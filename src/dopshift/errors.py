"""Exception types raised across the package.

Every failure mode a caller is expected to branch on gets its own class so
that CLI exit codes and tests can dispatch on type rather than on message
strings.
"""


class DopshiftError(Exception):
    """Base class for all package errors."""


# -- dispersion -------------------------------------------------------------

class ZeroFrequency(DopshiftError):
    """A model formula divides by the frequency and received zero."""


class DegenerateMedium(DopshiftError):
    """Permittivity or permeability is exactly zero; no refraction index."""


class FrequencyOutOfRange(DopshiftError):
    """A frequency so large that the model's float arithmetic overflows."""


class EvanescentRegime(DopshiftError):
    """A propagating-band quantity (group velocity, real wavenumber) was
    requested at a frequency where the wave is evanescent."""


# -- trajectory -------------------------------------------------------------

class ObserverOnTrajectory(DopshiftError):
    """Observer coincides with the source position; geometry is singular."""


# -- stationary phase -------------------------------------------------------

class DegeneratePoint(DopshiftError):
    """Hessian of the phase is singular (caustic); the leading-order
    contribution formula does not apply."""


class NoConvergence(DopshiftError):
    """Solver exhausted its iterations or the line search stalled.

    Carries the last iterate as ``diagnostics`` (a StationaryPoint with
    ``converged=False``) when available; from ``solve_line``, the bracket
    (omega_lo, omega_hi, seed omega, seed tau) whose polish failed.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class LeftPropagatingBand(DopshiftError):
    """Newton iterates exited the propagating frequency band repeatedly."""


# -- fields -----------------------------------------------------------------

class BelowCutoff(DopshiftError):
    """Source eigenfrequency at or below the plasma cutoff."""


class SuperluminalMach(DopshiftError):
    """Mach number outside [0, 1)."""


class NoRootInBand(DopshiftError):
    """Scalar Doppler equation has no root in the scanned band."""


class GroupVelocityMatchesSource(DopshiftError):
    """1-D retardation formula divides by (v - v_g) and received zero."""


class NoCherenkovRoot(DopshiftError):
    """Source is slower than every phase velocity in the band; no radiating
    stationary point exists."""


# -- oracle -----------------------------------------------------------------

class NoConvergenceInR(DopshiftError):
    """Cutoff-radius doubling reached its radius or node budget unsettled."""


class PhaseComplexOnBox(DopshiftError):
    """Phase callable returned complex or non-finite values on the box."""


class GradientVanishesUnbounded(DopshiftError):
    """Phase gradient does not grow at infinity; integration by parts
    regularization would not improve decay."""


# -- scenario / CLI ---------------------------------------------------------

class ScenarioError(DopshiftError):
    """Scenario file or flag set is invalid."""
