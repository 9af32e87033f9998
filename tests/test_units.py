"""Unit scales and the THz boundary conversion."""

import math

import pytest

from dopshift.units import Normalization, omega_from_thz, thz_from_omega


def test_round_trip():
    for f in (1.0, 417.82, 1e6):
        assert thz_from_omega(omega_from_thz(f)) == pytest.approx(f, rel=1e-14)


def test_default_scale_magnitude():
    # 75 nm and one light-crossing time: 420 THz sits near 0.66 rad/unit
    w = omega_from_thz(420.0)
    assert w == pytest.approx(2 * math.pi * 4.2e14 * 75e-9 / 299792458.0,
                              rel=1e-15)


def test_custom_length_scale():
    n = Normalization(length_scale=1e-6)
    assert n.omega_from_thz(1.0) == pytest.approx(
        2 * math.pi * 1e12 * 1e-6 / 299792458.0, rel=1e-15)


def test_invalid_scales_rejected():
    with pytest.raises(ValueError):
        Normalization(length_scale=0.0)
