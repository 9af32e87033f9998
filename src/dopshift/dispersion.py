"""Frequency-dependent material response.

Three media are supported: a frequency-independent dielectric, a lossless
cold plasma, and a double single-resonance (electric + magnetic) metamaterial
whose refraction index acquires a negative real part between the magnetic
resonance and the frequency where the permeability crosses zero.

The refraction index uses the half-argument branch

    n = sqrt(|eps*mu|) * exp(i*(arg(eps) + arg(mu))/2),

with principal arguments in (-pi, pi].  With small losses this places
Re n < 0 exactly when both Re eps < 0 and Re mu < 0, which is the branch a
left-handed medium requires; it also satisfies n**2 == eps*mu identically.

Group velocity is 1/k'(omega) with k = omega*n/c0 (c0 = 1 internally), from
analytic derivatives of the model permittivity and permeability.  Finite
differences are used only as a cross-check in the test suite: near the
resonance the group velocity is a small difference of large terms and needs
the analytic route.

Each medium class holds its formulas in private methods: ``_index_and_flag``
(Re n and the propagating flag, no derivatives), ``_wave`` (``sample``'s
tuple), ``_arrays`` (Re k and v_g on arrays), ``_flips`` (where the flag can
flip), ``_doppler_roots`` (closed-form collinear roots) and ``_index_above``.
The routes ``sample``, ``index_and_flag``, ``wavenumber_and_group`` and
``_band_table`` check the frequency and call them, never testing the medium.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DegenerateMedium, EvanescentRegime, FrequencyOutOfRange,
                     ZeroFrequency)
from .units import omega_from_thz

__all__ = [
    "NonDispersive", "ColdPlasma", "LorentzMetamaterial", "DispersionModel",
    "DispersionSample", "branch_sqrt_product", "sample", "index_and_flag",
    "wavenumber_and_group", "lorentz_from_thz", "LORENTZ_DEFAULTS_THZ",
]


def _store_floats(model):
    """Store every field as a float: a numpy float hashes equal to it but
    rounds apart, and the band caches are keyed by the model."""
    for name in model.__dataclass_fields__:
        object.__setattr__(model, name, float(getattr(model, name)))


class _Medium:
    """What the media share, unless a subclass writes its own."""

    _MAX_OMEGA = 1e50   # beyond it a plasma's k**3 and Lorentz cubes overflow
    _index_above = 1.0  # the index above every resonance

    def _flips(self) -> list:
        return []

    def _doppler_roots(self, omega0, sv):   # none in closed form: scan
        return None

    def _arrays(self, w):
        """Re k and v_g = 1/k' from ``_slope``, NaN where the scalar gate
        gives None; an overflow is an inf of its sign."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            (_, _, n, k, kp), _ = self._slope(w)   # n 0 at an edge
        ok = _wave_dominated(n) & (n.real != 0) & (kp != 0)
        return k, np.divide(1.0, kp, out=np.full(w.shape, np.nan), where=ok)


@dataclass(frozen=True)
class NonDispersive(_Medium):
    """Constant permittivity and permeability (both strictly positive, with
    a nonzero finite index sqrt(eps mu))."""

    eps: float = 1.0
    mu: float = 1.0

    _MAX_OMEGA = math.inf   # k = omega n has no cube to overflow

    def __post_init__(self):
        _store_floats(self)
        if not (self.eps > 0 and self.mu > 0 and 0 < self.index < math.inf):
            raise ValueError("non-dispersive medium requires eps > 0, mu > 0 "
                             "and 0 < sqrt(eps mu) < inf")

    @property
    def index(self) -> float:
        return math.sqrt(self.eps * self.mu)

    _index_above = index

    def _index_and_flag(self, w):
        return self.index, True

    def _wave(self, w):
        n = self.index
        return self.eps, self.mu, n, w * n, 1.0 / n, 1.0 / n, 0.0, True

    def _doppler_roots(self, omega0, sv):
        """The root omega0 / (1 + sv n), if it is positive and finite."""
        w = omega0 / d if (d := 1.0 + sv * self.index) else math.nan
        return [w] if 0.0 < w < math.inf else []

    def _slope(self, w):
        """eps, mu, n, Re k and k' = n, as the Lorentz ``_slope``."""
        n = self.index
        return (self.eps, self.mu, n, w * n, n), None


@dataclass(frozen=True)
class ColdPlasma(_Medium):
    """Lossless unmagnetized plasma: eps = 1 - omega_p**2/omega**2, mu = 1."""

    omega_p: float = 1.0

    def __post_init__(self):
        _store_floats(self)
        if self.omega_p < 0:
            raise ValueError("plasma frequency must be non-negative")

    def _k2(self, w):
        """k**2 = omega**2 - omega_p**2, > 0 where the plasma propagates."""
        return w * w - self.omega_p * self.omega_p

    def _k(self, w: float):
        """k**2, k and n = k/omega at one frequency: k real with the sign of
        omega where k**2 > 0, else i sqrt(-k**2) (limiting absorption)."""
        if w == 0:
            raise ZeroFrequency("plasma index diverges at omega = 0")
        k2 = self._k2(w)
        k = math.copysign(math.sqrt(k2), w) if k2 > 0 \
            else 1j * math.sqrt(-k2)
        return k2, k, k / w

    def _index_and_flag(self, w):
        k2, _, n = self._k(w)
        return n.real, k2 > 0

    def _wave(self, w):
        k2, k, n = self._k(w)
        eps = 1.0 - (self.omega_p / w) ** 2
        if not k2 > 0:
            return eps, 1.0, n, k, None, None, None, False
        aw, ak, wp = abs(w), math.sqrt(k2), self.omega_p     # ak = |k|
        return eps, 1.0, n, k, aw / ak, ak / aw, -wp * wp / k2 ** 1.5, True

    def _arrays(self, w):   # v_g v_p = 1, so v_g = n = k/omega
        k2 = self._k2(w)
        ok = k2 > 0
        k = np.copysign(np.sqrt(np.where(ok, k2, 0.0)), w)
        n = np.divide(k, w, out=np.zeros_like(w), where=ok)
        return w * n, np.where(ok, n, np.nan)

    def _flips(self) -> list:
        return [self.omega_p] if self.omega_p > 0 else []


@dataclass(frozen=True)
class LorentzMetamaterial(_Medium):
    """Single-resonance electric and magnetic response.

    All frequencies are normalized angular frequencies.
    """

    omega_pe: float
    omega_te: float
    gamma_e: float
    omega_pm: float
    omega_tm: float
    gamma_m: float

    def __post_init__(self):
        _store_floats(self)
        if not (self.omega_te > 0 and self.omega_tm > 0):
            raise ValueError("resonance frequencies must be strictly positive")
        if min(self.omega_pe, self.omega_pm, self.gamma_e, self.gamma_m) < 0:
            raise ValueError("coupling strengths and losses must be >= 0")

    def _index(self, w):
        """eps = 1 + omega_pe**2/d_e, mu alike, n = sqrt(eps*mu), d_e and d_m,
        d = omega_t**2 - w**2 - i w gamma (scalar or array w); a scalar w on
        a lossless oscillator's pole (d == 0) raises DegenerateMedium."""
        de = self.omega_te ** 2 - w * w - 1j * w * self.gamma_e
        dm = self.omega_tm ** 2 - w * w - 1j * w * self.gamma_m
        try:        # an array entry with d == 0 gives inf, not an error
            eps = 1.0 + self.omega_pe ** 2 / de
            mu = 1.0 + self.omega_pm ** 2 / dm
        except ZeroDivisionError:
            raise DegenerateMedium("omega on a lossless resonance pole") \
                from None
        return eps, mu, branch_sqrt_product(eps, mu), de, dm

    def _index_and_flag(self, w):
        n = self._index(w)[2]
        return n.real, _wave_dominated(n)

    def _slope(self, w):
        """eps, mu, n, Re k = w Re n and k' (scalar or array w), and what k''
        builds on: n' and (p**2, d, -d', eps') of each oscillator."""
        eps, mu, n, de, dm = self._index(w)
        pe2, pm2 = self.omega_pe ** 2, self.omega_pm ** 2
        ge = 2.0 * w + 1j * self.gamma_e    # -d(de)/dw
        gm = 2.0 * w + 1j * self.gamma_m
        deps = pe2 * ge / de ** 2
        dmu = pm2 * gm / dm ** 2
        dn = (deps * mu + eps * dmu) / (2.0 * n)        # (eps*mu)' / 2n
        return (eps, mu, n, w * n.real, n.real + w * dn.real), \
            (dn, (pe2, de, ge, deps), (pm2, dm, gm, dmu))

    def _chain(self, w):
        """eps, mu, n, Re k = w Re n, k' and k'' (scalar or array w)."""
        (eps, mu, n, k, kp), (dn, (pe2, de, ge, deps), (pm2, dm, gm, dmu)) = \
            self._slope(w)
        # x * (x * x) is the product Python's x ** 3 forms, and numpy's x ** 3
        # on complex arrays is several times slower
        d2eps = pe2 * (2.0 / de ** 2 + 2.0 * ge ** 2 / (de * (de * de)))
        d2mu = pm2 * (2.0 / dm ** 2 + 2.0 * gm ** 2 / (dm * (dm * dm)))
        p2 = d2eps * mu + 2.0 * deps * dmu + eps * d2mu  # (eps*mu)''
        d2n = (p2 - 2.0 * dn * dn) / (2.0 * n)
        return eps, mu, n, k, kp, 2.0 * dn.real + w * d2n.real

    def _wave(self, w):
        eps, mu, n, k, kp, kpp = self._chain(w)
        propagating = _wave_dominated(n)
        if propagating and n.real != 0 and kp != 0:
            return eps, mu, n, k, 1.0 / n.real, 1.0 / kp, kpp, True
        return eps, mu, n, k, None, None, None, bool(propagating)

    def _flips(self) -> list:
        """Re r of each root r with Re r > 0 (complex ones too: ``np.roots``
        splits a repeated real root) of Re(eps mu) |d_e d_m|**2, a real
        degree-8 polynomial, ascending."""
        # (d + p**2) conj(d) of each oscillator, d = t**2 - omega**2 - i
        # omega gam, in x = omega/s and divided by s**4
        s = self.omega_te
        x = np.roots(functools.reduce(np.polymul, [
            [-1.0, im * gam / s, (t * t + q * p * p) / s ** 2]
            for p, t, gam in ((self.omega_pe, self.omega_te, self.gamma_e),
                              (self.omega_pm, self.omega_tm, self.gamma_m))
            for q, im in ((1.0, -1j), (0.0, 1j))]).real)
        return sorted(s * float(r.real) for r in x if r.real > 0)


DispersionModel = Union[NonDispersive, ColdPlasma, LorentzMetamaterial]

# Metamaterial defaults (THz): coupling strengths, resonances and losses of
# the electric and magnetic oscillators.
LORENTZ_DEFAULTS_THZ = {
    "f_pe": 298.42, "gamma_e": 0.04, "f_te": 409.82,
    "f_pm": 171.09, "gamma_m": 0.04, "f_tm": 397.89,
}


def lorentz_from_thz(f_pe=LORENTZ_DEFAULTS_THZ["f_pe"],
                     gamma_e=LORENTZ_DEFAULTS_THZ["gamma_e"],
                     f_te=LORENTZ_DEFAULTS_THZ["f_te"],
                     f_pm=LORENTZ_DEFAULTS_THZ["f_pm"],
                     gamma_m=LORENTZ_DEFAULTS_THZ["gamma_m"],
                     f_tm=LORENTZ_DEFAULTS_THZ["f_tm"],
                     ) -> LorentzMetamaterial:
    """Build the metamaterial model from oscillator parameters given in THz."""
    w = omega_from_thz
    return LorentzMetamaterial(
        omega_pe=w(f_pe), omega_te=w(f_te), gamma_e=w(gamma_e),
        omega_pm=w(f_pm), omega_tm=w(f_tm), gamma_m=w(gamma_m),
    )


@dataclass(frozen=True)
class DispersionSample:
    """Everything the phase, Hessian and amplitude formulas need at one
    frequency.

    ``v_phase``, ``v_group`` and ``k_second`` are None outside the propagating
    band.  For the metamaterial ``k`` is omega Re n (Im n is neglected, and
    ``v_group`` and ``k_second`` follow from Re n); the complex eps, mu and n
    stay available.
    """

    omega: float
    eps: complex
    mu: complex
    n: complex
    k: complex
    v_phase: float | None
    v_group: float | None
    k_second: float | None
    propagating: bool


def branch_sqrt_product(eps, mu):
    """sqrt(eps*mu) on the half-argument branch, args taken in (-pi, pi].

    Takes complex scalars, or complex arrays elementwise.  A scalar eps or
    mu of exactly zero raises DegenerateMedium; an array entry gives 0.
    """
    if isinstance(eps, np.ndarray):
        sqrt, phase, exp = np.sqrt, np.angle, np.exp
    else:
        if eps == 0 or mu == 0:
            raise DegenerateMedium("eps or mu is exactly zero")
        sqrt, phase, exp = math.sqrt, cmath.phase, cmath.exp
    mag = sqrt(abs(eps) * abs(mu))
    half = 0.5 * (phase(eps) + phase(mu))
    return mag * exp(1j * half)


def _wave_dominated(n):
    """Propagating rule: the real part of n beats the imaginary part."""
    return n.real ** 2 > n.imag ** 2


def _check(model: DispersionModel, omega: float):
    """Raise ValueError on a non-finite omega and FrequencyOutOfRange above
    the medium's ``_MAX_OMEGA`` (inf for a non-dispersive medium)."""
    if not math.isfinite(omega):
        raise ValueError("frequency must be finite")
    if abs(omega) > model._MAX_OMEGA:
        raise FrequencyOutOfRange(
            f"|omega| = {abs(omega):g} > {model._MAX_OMEGA:g} (normalized)")


def wavenumber_and_group(model: DispersionModel, omega) -> tuple:
    """Re k (an inf of its sign past the floats) and v_g on an array of
    frequencies, from the formulas ``sample`` uses; v_g is NaN where
    ``sample``'s ``v_group`` is None, which right at a band edge may differ
    by rounding (numpy and Python divide complex numbers differently).
    Raises ValueError on a non-finite frequency and, as ``sample`` does,
    FrequencyOutOfRange for a plasma or metamaterial |omega| above 1e50."""
    w = np.asarray(omega, dtype=float)
    _check(model, float(np.abs(w).max(initial=0.0)))
    return model._arrays(w)


def index_and_flag(model: DispersionModel, omega: float) -> tuple:
    """Re n and the propagating flag at one frequency, with no derivatives.

    The same float operations as ``sample``, so both values equal
    ``sample(model, omega).n.real`` and ``.propagating`` bit for bit, and
    the same errors: ValueError on a non-finite omega, ZeroFrequency for a
    plasma at 0, DegenerateMedium where eps or mu is exactly 0, and
    FrequencyOutOfRange for a plasma or metamaterial |omega| above 1e50.
    """
    _check(model, omega)
    return model._index_and_flag(omega)


@functools.lru_cache(maxsize=32)
def _band_table(model: DispersionModel) -> tuple:
    """(lo, hi) of each propagating band at omega > 0, ascending, 0.0 and
    inf at open ends: the adjacent floats where ``index_and_flag`` flips (a
    lossless pole or zero, where it raises, does not propagate), bisected
    around each of the medium's ``_flips``; one with no flip is dropped."""
    def flag(w):
        try:
            return index_and_flag(model, w)[1]
        except DegenerateMedium:
            return False

    g = model._flips()
    ends = [0.5 * g[0], *(0.5 * (a + b) for a, b in zip(g, g[1:])),
            2.0 * g[-1]] if g else [1.0]
    cuts = [0.0]    # (0, a1), (b1, a2), ..., (bk, inf) between the flips
    for a, b in zip(ends, ends[1:]):
        if (inside := flag(a)) != flag(b):
            while (mid := 0.5 * (a + b)) not in (a, b):
                a, b = (mid, b) if flag(mid) == inside else (a, mid)
            cuts += [a, b]
    return tuple(band for band in zip(cuts[::2], [*cuts[1::2], math.inf])
                 if flag(min(band[1], ends[-1])))  # at its top, or past all g


def _wave(model: DispersionModel, omega: float) -> tuple:
    """eps, mu, n, Re k, v_p, v_g, k'' and the propagating flag at one
    frequency; the speeds and k'' are None outside the band, and where k'
    is stationary (infinite group speed; the point keeps its flag)."""
    _check(model, omega)
    return model._wave(omega)


def sample(model: DispersionModel, omega: float) -> DispersionSample:
    """Evaluate the full material response at one frequency.

    Pure function: identical inputs give bit-identical outputs.
    """
    eps, mu, n, k, vp, vg, kpp, propagating = _wave(model, omega)
    return DispersionSample(
        omega=omega, eps=complex(eps), mu=complex(mu), n=complex(n),
        k=complex(k), v_phase=vp, v_group=vg, k_second=kpp,
        propagating=propagating)


def _wave_floats(model: DispersionModel, omega: float) -> tuple:
    """``sample``'s (k.real, v_group, k_second) without building it; raises
    what ``sample`` raises, and EvanescentRegime where v_group is None."""
    _, _, _, k, _, vg, kpp, _ = _wave(model, omega)
    if vg is None:
        raise EvanescentRegime(f"no group velocity at omega={omega:g}")
    return k, vg, kpp
