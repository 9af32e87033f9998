"""Internal unit system and the THz boundary conversion.

Internally everything is dimensionless: lengths are multiples of the length
scale, 75 nm, times are multiples of ``length_scale/c0``, velocities are in
units of the vacuum light speed, and c0 = eps0 = mu0 = 1.  Angular
frequencies are radians per internal time unit.  The only conversion the
package ever performs is THz (ordinary frequency) to and from the normalized
angular frequency, via omega = 2*pi*f.
"""

import math

C0_SI = 299_792_458.0            # vacuum light speed, m/s
DEFAULT_LENGTH_SCALE = 75e-9     # meters
_TIME_SCALE = DEFAULT_LENGTH_SCALE / C0_SI     # seconds per internal time unit


def omega_from_thz(f_thz: float) -> float:
    """THz -> normalized angular frequency."""
    return 2.0 * math.pi * f_thz * 1e12 * _TIME_SCALE


def thz_from_omega(omega: float) -> float:
    """Normalized angular frequency -> THz."""
    return omega / (2.0 * math.pi * 1e12 * _TIME_SCALE)
