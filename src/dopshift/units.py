"""Internal unit system and the THz boundary conversion.

Internally everything is dimensionless: lengths are multiples of
``length_scale`` (default 75 nm), times are multiples of ``length_scale/c0``,
velocities are in units of the vacuum light speed, and c0 = eps0 = mu0 = 1.
Angular frequencies are radians per internal time unit.  The only conversion
the package ever performs is THz (ordinary frequency) to and from the
normalized angular frequency, via omega = 2*pi*f.
"""

import math
from dataclasses import dataclass

C0_SI = 299_792_458.0            # vacuum light speed, m/s
DEFAULT_LENGTH_SCALE = 75e-9     # meters


@dataclass(frozen=True)
class Normalization:
    """The length scale tying the dimensionless internal system to SI; the
    velocity scale is c0, which the internal units fix to 1."""

    length_scale: float = DEFAULT_LENGTH_SCALE

    def __post_init__(self):
        if not self.length_scale > 0:
            raise ValueError("the length scale must be positive")

    @property
    def time_scale(self) -> float:
        """Seconds per internal time unit."""
        return self.length_scale / C0_SI

    def omega_from_thz(self, f_thz: float) -> float:
        """Normalized angular frequency for an ordinary frequency in THz."""
        return 2.0 * math.pi * f_thz * 1e12 * self.time_scale

    def thz_from_omega(self, omega: float) -> float:
        """Ordinary frequency in THz for a normalized angular frequency."""
        return omega / (2.0 * math.pi * 1e12 * self.time_scale)


DEFAULT_NORMALIZATION = Normalization()


def omega_from_thz(f_thz: float) -> float:
    """THz -> normalized angular frequency under the default scales."""
    return DEFAULT_NORMALIZATION.omega_from_thz(f_thz)


def thz_from_omega(omega: float) -> float:
    """Normalized angular frequency -> THz under the default scales."""
    return DEFAULT_NORMALIZATION.thz_from_omega(omega)
