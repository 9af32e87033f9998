"""Unit scales and the THz boundary conversion."""

import math

import numpy as np
import pytest

from dopshift.units import omega_from_thz, thz_from_omega


def test_round_trip():
    for f in (1.0, 417.82, 1e6):
        assert thz_from_omega(omega_from_thz(f)) == pytest.approx(f, rel=1e-14)


def test_default_scale_magnitude():
    # 75 nm and one light-crossing time: 420 THz sits near 0.66 rad/unit
    w = omega_from_thz(420.0)
    assert w == pytest.approx(2 * math.pi * 4.2e14 * 75e-9 / 299792458.0,
                              rel=1e-15)


def test_conversions_are_bit_equal_to_the_formula():
    # omega = 2 pi f 1e12 (L / c0) and its inverse, with L = 75 nm, in this
    # order of float operations, at 10^4 frequencies of 1e-12 to 1e12 THz
    rng = np.random.default_rng(24)
    scale = 75e-9 / 299792458.0
    for f in 10.0 ** rng.uniform(-12.0, 12.0, 10_000):
        f = float(f)
        assert omega_from_thz(f) == 2.0 * math.pi * f * 1e12 * scale
        assert thz_from_omega(f) == f / (2.0 * math.pi * 1e12 * scale)
