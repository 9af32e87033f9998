"""Shared fixtures."""

import numpy as np
import pytest

from dopshift import dispersion as disp


@pytest.fixture
def rotate_array_index(monkeypatch):
    """Call with an angle in radians to turn the n of the array route
    (``dispersion.index_and_mask``) by it, leaving scalar ``sample`` as is:
    a stand-in for a rounding difference between the two routes larger than
    the one numpy and Python show."""
    def rotate(angle):
        exact = disp.branch_sqrt_product

        def rotated(eps, mu):
            n = exact(eps, mu)
            return n * np.exp(1j * angle) if isinstance(n, np.ndarray) else n

        monkeypatch.setattr(disp, "branch_sqrt_product", rotated)
    return rotate
