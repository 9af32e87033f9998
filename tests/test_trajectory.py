"""Geometry of source world-lines, validated against nested finite
differences of the range function (the authoritative oracle for the two
amplitude factors)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopshift import trajectory as trj
from dopshift.errors import ObserverOnTrajectory


def _range_of(traj, x, tau):
    return float(np.linalg.norm(np.asarray(x, float) - trj.position(traj, tau)))


def _fd_grad_r(traj, x, tau, h=1e-6):
    """Central-difference gradient of r(x) at fixed emission time."""
    x = np.asarray(x, float)
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (_range_of(traj, x + e, tau) - _range_of(traj, x - e, tau)) / (2 * h)
    return g


def _fd_graddiv(traj, x, tau, h=1e-4):
    """Nested central differences of grad(v . grad r), using only r values."""
    v = trj.velocity(traj, tau)
    x = np.asarray(x, float)

    def v_dot_grad_r(y):
        return float(v @ _fd_grad_r(traj, y, tau, h=1e-6))

    out = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        out[i] = (v_dot_grad_r(x + e) - v_dot_grad_r(x - e)) / (2 * h)
    return out


class TestGeometry:
    def test_head_on_approaching(self):
        g = trj.geometry(trj.OffsetLine(v=1.0, H=0.0), (0.0, 2.0, 0.0), 1.0)
        assert g.r == pytest.approx(1.0)
        assert g.v_rad == pytest.approx(1.0)

    def test_head_on_receding(self):
        g = trj.geometry(trj.OffsetLine(v=1.0, H=0.0), (0.0, 0.0, 0.0), 1.0)
        assert g.r == pytest.approx(1.0)
        assert g.v_rad == pytest.approx(-1.0)

    def test_static_3_4_5(self):
        g = trj.geometry(trj.OffsetLine(v=0.0, H=0.0), (3.0, 4.0, 0.0), 7.0)
        assert g.r == pytest.approx(5.0)

    def test_offset_range_formula(self):
        v, H, tau = 0.3, 1.2, 2.5
        x = (0.7, -0.4, 2.0)
        g = trj.geometry(trj.OffsetLine(v=v, H=H), x, tau)
        assert g.r == pytest.approx(
            math.sqrt(0.7 ** 2 + (-0.4 - v * tau) ** 2 + (2.0 - H) ** 2))

    def test_observer_on_trajectory_raises(self):
        with pytest.raises(ObserverOnTrajectory):
            trj.geometry(trj.OffsetLine(v=1.0, H=0.0), (0.0, 1.0, 0.0), 1.0)

    def test_radial_speed_bounded_by_speed(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vel = rng.normal(size=3) * 0.3
            traj = trj.StraightLine(origin=tuple(rng.normal(size=3)),
                                    velocity=tuple(vel))
            x = tuple(rng.normal(size=3) * 3)
            tau = float(rng.normal())
            try:
                g = trj.geometry(traj, x, tau)
            except ObserverOnTrajectory:
                continue
            assert abs(g.v_rad) <= float(np.linalg.norm(vel)) + 1e-12

    def test_dv_rad_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            traj = trj.StraightLine(origin=tuple(rng.normal(size=3)),
                                    velocity=tuple(rng.normal(size=3) * 0.4))
            x = tuple(rng.normal(size=3) * 2)
            tau = float(rng.normal())
            try:
                g = trj.geometry(traj, x, tau)
            except ObserverOnTrajectory:
                continue
            if g.r < 0.1:
                continue
            h = 1e-6 * max(1.0, abs(tau))
            fd = (trj.geometry(traj, x, tau + h).v_rad
                  - trj.geometry(traj, x, tau - h).v_rad) / (2 * h)
            assert fd == pytest.approx(g.dv_rad_dtau,
                                       rel=1e-6, abs=1e-6 * max(1, abs(fd)))

    def test_offset_equals_straight_line(self):
        a = trj.geometry(trj.OffsetLine(v=0.4, H=1.1), (1.0, 2.0, 3.0), 0.7)
        b = trj.geometry(trj.StraightLine(origin=(0, 0, 1.1),
                                          velocity=(0, 0.4, 0)),
                         (1.0, 2.0, 3.0), 0.7)
        assert a.r == pytest.approx(b.r, rel=1e-15)
        assert a.v_rad == pytest.approx(b.v_rad, rel=1e-15)
        assert a.dv_rad_dtau == pytest.approx(b.dv_rad_dtau, rel=1e-14)


def _numpy_geometry(traj, x, tau):
    """The numpy formula that the float kernel of ``trj.geometry`` replaced,
    kept as its reference: (r, u, v_rad, dv_rad/dtau)."""
    d = trj.as_vec3(x) - trj.position(traj, tau)
    r = float(np.linalg.norm(d))
    if r < 1e-12:
        raise ObserverOnTrajectory("observer on the trajectory")
    u = d / r
    v = trj.velocity(traj, tau)
    v_rad = float(v @ u)
    a = trj.acceleration(traj, tau)
    return r, u, v_rad, float(a @ u) + (v_rad * v_rad - float(v @ v)) / r


def _circle(radius=2.0, omega=0.3):
    pos = lambda s: np.array([radius * math.cos(omega * s),
                              radius * math.sin(omega * s), 0.0])
    vel = lambda s: np.array([-radius * omega * math.sin(omega * s),
                              radius * omega * math.cos(omega * s), 0.0])
    acc = lambda s: np.array([-radius * omega ** 2 * math.cos(omega * s),
                              -radius * omega ** 2 * math.sin(omega * s),
                              0.0])
    return pos, vel, acc


def _random_trajectory(rng, kind):
    if kind == "straight":
        return trj.StraightLine(origin=tuple(rng.normal(size=3)),
                                velocity=tuple(rng.normal(size=3) * 0.5))
    if kind == "offset":
        return trj.OffsetLine(v=float(rng.uniform(-0.9, 0.9)),
                              H=float(rng.normal()))
    pos, vel, acc = _circle(float(rng.uniform(0.5, 3.0)),
                            float(rng.uniform(-0.5, 0.5)))
    return trj.CustomTrajectory(position_fn=pos, velocity_fn=vel,
                                acceleration_fn=acc)


class TestFloatKernelAgainstNumpy:
    """The plain-float geometry against the numpy formula, within 1e-13 of
    each quantity's scale (|v| for v_rad, |a| + |v|**2/r for its rate)."""

    RTOL = 1e-13

    @pytest.mark.parametrize("kind", ["straight", "offset", "custom"])
    def test_random_draws(self, kind):
        rng = np.random.default_rng(["straight", "offset", "custom"].index(kind))
        checked = 0
        for _ in range(200):
            traj = _random_trajectory(rng, kind)
            x = tuple(rng.normal(size=3) * 3)
            tau = float(rng.normal() * 2)
            try:
                r, u, v_rad, dv_rad = _numpy_geometry(traj, x, tau)
            except ObserverOnTrajectory:
                continue
            g = trj.geometry(traj, x, tau)
            speed = float(np.linalg.norm(trj.velocity(traj, tau)))
            rate = float(np.linalg.norm(trj.acceleration(traj, tau))) \
                + speed * speed / r
            assert abs(g.r - r) <= self.RTOL * r
            assert np.max(np.abs(g.unit_dir - u)) <= self.RTOL
            assert abs(g.v_rad - v_rad) <= self.RTOL * speed
            assert abs(g.dv_rad_dtau - dv_rad) <= self.RTOL * rate
            assert isinstance(g.unit_dir, np.ndarray)
            # the float route that geometry wraps, bit for bit
            assert repr(trj._geometry_floats(traj, x, tau)) == repr(
                (g.r, tuple(g.unit_dir.tolist()), g.v_rad, g.dv_rad_dtau))
            checked += 1
        assert checked > 150

    @pytest.mark.parametrize("kind", ["straight", "offset", "custom"])
    def test_observer_on_trajectory(self, kind):
        traj = _random_trajectory(np.random.default_rng(3), kind)
        x = trj.position(traj, 0.7)
        for geometry in (_numpy_geometry, trj.geometry, trj._geometry_floats):
            with pytest.raises(ObserverOnTrajectory):
                geometry(traj, x, 0.7)

    @pytest.mark.parametrize("x", [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0),
                                   np.array([0.0, 1.0, -math.inf]),
                                   (1.0, 2.0), [[1.0], [2.0], [3.0]], 5.0])
    def test_bad_observer_rejected(self, x):
        for geometry in (_numpy_geometry, trj.geometry, trj._geometry_floats):
            with pytest.raises(ValueError):
                geometry(trj.OffsetLine(v=0.5), x, 0.0)

    @pytest.mark.parametrize("x", [[1, 2, 3], np.array([1.0, 2.0, 3.0]),
                                   (np.float64(1.0), 2, 3.0)])
    def test_observer_sequence_kinds(self, x):
        traj = trj.StraightLine(velocity=(0.1, 0.2, 0.3))
        a = trj.geometry(traj, x, 0.5)
        b = trj.geometry(traj, (1.0, 2.0, 3.0), 0.5)
        assert (a.r, a.v_rad, a.dv_rad_dtau) == (b.r, b.v_rad, b.dv_rad_dtau)


class TestCustomTrajectory:
    def test_analytic_callables(self):
        pos, vel, acc = _circle()
        traj = trj.CustomTrajectory(position_fn=pos, velocity_fn=vel,
                                    acceleration_fn=acc)
        g = trj.geometry(traj, (5.0, 1.0, 0.5), 0.9)
        # independent finite difference of v_rad over tau
        h = 1e-6
        fd = (trj.geometry(traj, (5.0, 1.0, 0.5), 0.9 + h).v_rad
              - trj.geometry(traj, (5.0, 1.0, 0.5), 0.9 - h).v_rad) / (2 * h)
        assert g.dv_rad_dtau == pytest.approx(fd, rel=1e-6)

    def test_derivatives_are_required(self):
        # the acceleration sets S_tautau, so no derivative is guessed
        pos, vel, _ = _circle()
        with pytest.raises(TypeError):
            trj.CustomTrajectory(position_fn=pos)
        with pytest.raises(TypeError):
            trj.CustomTrajectory(position_fn=pos, velocity_fn=vel)

    @pytest.mark.parametrize("bad", [(0.0, math.nan, 0.0), (1.0, 2.0)])
    def test_each_callable_is_checked(self, bad):
        pos, vel, acc = _circle()
        for fns in ((lambda s: bad, vel, acc), (pos, lambda s: bad, acc),
                    (pos, vel, lambda s: bad)):
            with pytest.raises(ValueError):
                trj.geometry(trj.CustomTrajectory(*fns), (5.0, 1.0, 0.5), 0.9)


def _factors(traj, x, tau):
    """(curl, graddiv) factors of the source velocity, as the fields use."""
    g = trj.geometry(traj, x, tau)
    return trj.amplitude_factors(g.unit_dir, g.r, trj.velocity(traj, tau))


def _array_amplitude_factors(u, r, direction):
    """``amplitude_factors`` by the array expressions its float core
    replaced: numpy's dot, the cross product written out, an array
    divided by r."""
    d_rad = float(np.dot(direction, u))
    (u0, u1, u2), (d0, d1, d2) = u, direction
    curl = u1 * d2 - u2 * d1, u2 * d0 - u0 * d2, u0 * d1 - u1 * d0
    return (np.array(curl),
            np.array((d0 - d_rad * u0, d1 - d_rad * u1, d2 - d_rad * u2)) / r)


class TestAmplitudeFactors:
    @settings(max_examples=300, deadline=None)
    @given(u=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           d=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
           r=st.floats(1e-12, 1e6), as_array=st.booleans())
    def test_equals_array_expressions(self, u, d, r, as_array):
        if as_array:
            u, d = np.array(u), np.array(d)
        for a, b in zip(trj.amplitude_factors(u, r, d),
                        _array_amplitude_factors(u, r, d)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_equals_numpy_cross_formula(self):
        # the float expressions give np.cross's bytes, and the grad-div
        # factor's bytes from the array formula
        rng = np.random.default_rng(11)
        for _ in range(500):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            d, r = rng.normal(size=3), float(rng.uniform(0.1, 10.0))
            curl, graddiv = trj.amplitude_factors(u, r, d)
            assert curl.tobytes() == np.cross(u, d).tobytes()
            assert graddiv.tobytes() == ((d - float(d @ u) * u) / r).tobytes()

    def test_static_source_zero_factors(self):
        curl, graddiv = _factors(trj.OffsetLine(v=0.0, H=0.0),
                                 (1.0, 2.0, 3.0), 0.5)
        assert not curl.any()
        assert not graddiv.any()

    def test_printed_example_point(self):
        curl, graddiv = _factors(trj.OffsetLine(v=1.0, H=0.0),
                                 (1.0, 0.0, 0.0), 0.0)
        assert curl == pytest.approx([0.0, 0.0, 1.0])

    def test_curl_second_component_vanishes_for_offset_motion(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            curl, graddiv = _factors(
                trj.OffsetLine(v=float(rng.uniform(-0.9, 0.9)),
                               H=float(rng.normal())),
                tuple(rng.normal(size=3) * 2), float(rng.normal()))
            assert curl[1] == 0.0

    def test_componentwise_offset_closed_forms(self):
        # motion (0, v tau, H): the corrected printed component list
        v, H, tau = 0.6, 0.3, 1.4
        x = np.array([0.8, -1.1, 2.0])
        curl, graddiv = _factors(trj.OffsetLine(v=v, H=H), x, tau)
        r = math.sqrt(x[0] ** 2 + (x[1] - v * tau) ** 2 + (x[2] - H) ** 2)
        assert curl == pytest.approx(
            [-v * (x[2] - H) / r, 0.0, v * x[0] / r], rel=1e-14)
        assert graddiv == pytest.approx(
            [-v * x[0] * (x[1] - v * tau) / r ** 3,
             v * (x[0] ** 2 + (x[2] - H) ** 2) / r ** 3,
             -v * (x[2] - H) * (x[1] - v * tau) / r ** 3], rel=1e-12)

    def test_against_finite_difference_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            traj = trj.StraightLine(origin=tuple(rng.normal(size=3)),
                                    velocity=tuple(rng.normal(size=3) * 0.5))
            x = tuple(rng.normal(size=3) * 3)
            tau = float(rng.normal())
            try:
                g = trj.geometry(traj, x, tau)
            except ObserverOnTrajectory:
                continue
            if g.r < 0.5:
                continue
            curl, graddiv = _factors(traj, x, tau)
            v = trj.velocity(traj, tau)
            curl_fd = np.cross(_fd_grad_r(traj, x, tau), v)
            graddiv_fd = _fd_graddiv(traj, x, tau)
            scale = max(1.0, float(np.linalg.norm(v)) / g.r)
            assert np.allclose(curl, curl_fd, rtol=1e-5,
                               atol=1e-5 * scale)
            assert np.allclose(graddiv, graddiv_fd, rtol=1e-4,
                               atol=1e-4 * scale)

    def test_custom_kind_supported_via_velocity(self):
        pos = lambda s: np.array([0.0, 0.5 * s, 0.0])
        traj = trj.CustomTrajectory(position_fn=pos,
                                    velocity_fn=lambda s: np.array([0, 0.5, 0]),
                                    acceleration_fn=lambda s: np.zeros(3))
        curl, graddiv = _factors(traj, (1.0, 2.0, 0.0), 0.3)
        curl_b, graddiv_b = _factors(trj.OffsetLine(v=0.5, H=0.0),
                                     (1.0, 2.0, 0.0), 0.3)
        assert curl == pytest.approx(curl_b)
        assert graddiv == pytest.approx(graddiv_b)
