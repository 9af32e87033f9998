"""Source world-lines and the geometric factors of the field formulas.

Every quantity here is a fixed-emission-time spatial derivative of the range
r(x, tau) = |x - x0(tau)|, so the closed forms below hold for any trajectory
kind, not just straight lines:

    grad r = u                      (unit vector from source to observer)
    curl of (r-scaled velocity field):   grad r x v = u x v
    grad(div) factor:  grad(v . grad r) = (v - (v.u) u)/r

The second expression is what the leading-order magnetic amplitude needs; the
third drives the electric amplitude.  Both are validated against nested
finite differences of r itself in the test suite (the finite-difference
oracle is authoritative).

Each world-line kind gives its position, velocity and acceleration at an
emission time through its own ``_state`` method; the functions below call
it and never test the kind.
"""

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Callable, Union

import numpy as np

from .errors import ObserverOnTrajectory

__all__ = [
    "Vec3", "as_vec3", "StraightLine", "OffsetLine", "CustomTrajectory",
    "Trajectory", "Geometry", "position", "velocity", "acceleration",
    "geometry", "amplitude_factors",
]

Vec3 = np.ndarray

_MIN_RANGE = 1e-12          # l0 units; closer counts as "on the trajectory"
_ZERO = (0.0, 0.0, 0.0)


def as_vec3(x) -> Vec3:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True)
class StraightLine:
    """x0(tau) = origin + velocity * tau."""

    origin: tuple = (0.0, 0.0, 0.0)
    velocity: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(map(float, self.origin)))
        object.__setattr__(self, "velocity", tuple(map(float, self.velocity)))

    def _state(self, tau: float):
        """Position, velocity and acceleration at tau, as float triples."""
        (o0, o1, o2), v = self.origin, self.velocity
        return (o0 + v[0] * tau, o1 + v[1] * tau, o2 + v[2] * tau), v, _ZERO


def OffsetLine(v: float = 0.0, H: float = 0.0) -> StraightLine:
    """x0(tau) = (0, v*tau, H): motion along x2 at lateral offset H."""
    return StraightLine(origin=(0.0, 0.0, H), velocity=(0.0, v, 0.0))


@dataclass(frozen=True)
class CustomTrajectory:
    """Arbitrary world-line given by callables tau -> 3-vector: its
    position, velocity and acceleration.

    All three are required: the acceleration enters every field amplitude
    through the Hessian entry S_tautau = -k dv_rad/dtau, and differences
    of the position give it too poorly for that.  The callables must be
    pure, agree with each other and be safe to call concurrently.
    """

    position_fn: Callable[[float], Vec3]
    velocity_fn: Callable[[float], Vec3]
    acceleration_fn: Callable[[float], Vec3]

    def _state(self, tau: float):
        """Position, velocity and acceleration at tau, each checked as
        ``as_vec3`` checks it, as float lists."""
        return (as_vec3(self.position_fn(tau)).tolist(),
                as_vec3(self.velocity_fn(tau)).tolist(),
                as_vec3(self.acceleration_fn(tau)).tolist())


Trajectory = Union[StraightLine, CustomTrajectory]


def position(traj: Trajectory, tau: float) -> Vec3:
    return np.array(traj._state(tau)[0])


def velocity(traj: Trajectory, tau: float) -> Vec3:
    return np.array(traj._state(tau)[1])


def acceleration(traj: Trajectory, tau: float) -> Vec3:
    return np.array(traj._state(tau)[2])


@dataclass(frozen=True)
class Geometry:
    """Range, direction, radial speed projection and its emission-time rate."""

    r: float
    unit_dir: Vec3
    v_rad: float
    dv_rad_dtau: float


def _float3(x):
    """x as three finite floats; ValueError as in ``as_vec3`` otherwise."""
    if type(x) is tuple and len(x) == 3:
        x0, x1, x2 = x
        if type(x0) is type(x1) is type(x2) is float \
                and isfinite(x0) and isfinite(x1) and isfinite(x2):
            return x
    return tuple(as_vec3(x).tolist())


def _geometry_floats(traj: Trajectory, x, tau: float, state=None):
    """``geometry``'s values as floats: (r, unit_dir as a float triple,
    v_rad, dv_rad/dtau), from ``state``, traj._state(tau), if given.

    dv_rad/dtau uses d(x - x0)/dtau = -v and d r/dtau = -v_rad:

        d/dtau (v . u) = a . u + (v_rad**2 - |v|**2)/r

    Plain floats: numpy's per-call cost on 3-vectors is several times the
    arithmetic, and this runs once per Newton trial point.
    """
    return _geometry_core(traj, _float3(x), tau, state)


def _geometry_core(traj: Trajectory, x, tau: float, state=None):
    """``_geometry_floats`` of an observer x that ``_float3`` has passed."""
    x0, x1, x2 = x
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2) = state or traj._state(float(tau))
    d0, d1, d2 = x0 - p0, x1 - p1, x2 - p2
    r = sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    if r < _MIN_RANGE:
        raise ObserverOnTrajectory(f"observer within {_MIN_RANGE} of source")
    u0, u1, u2 = d0 / r, d1 / r, d2 / r
    v_rad = v0 * u0 + v1 * u1 + v2 * u2
    dv_rad = (a0 * u0 + a1 * u1 + a2 * u2) \
        + (v_rad * v_rad - (v0 * v0 + v1 * v1 + v2 * v2)) / r
    return r, (u0, u1, u2), v_rad, dv_rad


def geometry(traj: Trajectory, x, tau: float) -> Geometry:
    """All scalar geometry at observer x and emission time tau."""
    r, u, v_rad, dv_rad = _geometry_floats(traj, x, tau)
    return Geometry(r, np.array(u), v_rad, dv_rad)


def amplitude_factors(u: Vec3, r: float, direction: Vec3):
    """curl_factor u x d and graddiv_factor (d - (d.u) u)/r of a current
    direction d, at range r and unit direction u."""
    curl, radial = _factors(u, direction)
    return np.array(curl), np.array(radial) / r


def _factors(u, d):
    """u x d and d - (d.u) u as float triples; d.u is numpy's fused dot."""
    d_rad = float(np.dot(d, u))
    (u0, u1, u2), (d0, d1, d2) = u, d
    return ((u1 * d2 - u2 * d1, u2 * d0 - u0 * d2, u0 * d1 - u1 * d0),
            (d0 - d_rad * u0, d1 - d_rad * u1, d2 - d_rad * u2))
