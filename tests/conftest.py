"""Shared fixtures."""

import numpy as np
import pytest

from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph


@pytest.fixture
def rotate_array_index(monkeypatch):
    """Call with an angle in radians to turn the n of the array route
    (``dispersion.wavenumber_and_group``) by it, leaving scalar ``sample``
    as is: a stand-in for a rounding difference between the two routes
    larger than the one numpy and Python show.  The grid cache of both line
    scans (``stationary_phase._base_grid``) and the band scan's curve cache
    (``fields._doppler_curve``) are emptied when the route turns and after
    the test, so the scans evaluate the turned route and no later test
    reads a turned grid."""
    def rotate(angle):
        exact = disp.branch_sqrt_product

        def rotated(eps, mu):
            n = exact(eps, mu)
            return n * np.exp(1j * angle) if isinstance(n, np.ndarray) else n

        monkeypatch.setattr(disp, "branch_sqrt_product", rotated)
        sph._base_grid.cache_clear()
        fld._doppler_curve.cache_clear()
    yield rotate
    sph._base_grid.cache_clear()
    fld._doppler_curve.cache_clear()
