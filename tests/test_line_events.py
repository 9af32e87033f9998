"""Named straight-line events: the ledger of ``solve_line``'s known drops.

Each known drop is one strict xfail that states what a correct answer
holds, with its ROADMAP item as the reason: a mend turns it into an
XPASS, which fails, and the mending change makes it a plain test.  The
inputs are the probe draws that found them (random-model Cherenkov probe,
item 16's probe, the non-dispersive closed-form draw, the plasma near-cutoff
draw); the expected points come from independent routes (Newton from a
nearby seed, the collinear scan, or the same event at tol 1e-10).
"""

import math

import pytest

from dopshift import dispersion as disp
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift.errors import NoConvergence
from dopshift.units import omega_from_thz


def _along_x3(v):
    return trj.StraightLine(velocity=(0.0, 0.0, v))


EVENTS = {
    # random-model Cherenkov probe: a branch island narrower than one base
    # cell next to a lossy resonance edge; Newton from old seeds found both
    "island": sph.PhaseContext(
        t=1.161003174675467, omega0=0.0, trajectory=_along_x3(
            0.33637307740523326),
        x=(0.7165808802166833, -0.3227383080998758, -0.1589271251185811),
        dispersion=disp.LorentzMetamaterial(
            0.8913845375301714, 0.8410796629393738, 0.01,
            0.5484853694500784, 0.3549319520755051, 0.01)),
    # random-model Cherenkov probe draw 197: at tol 1e-11 one point's
    # residual floor is above tol
    "draw-197": sph.PhaseContext(
        t=2.0942913166615034, omega0=0.0, trajectory=_along_x3(
            0.7998290917188082),
        x=(0.7553435159919157, 0.47516288371741866, -0.5539215982738217),
        dispersion=disp.LorentzMetamaterial(
            1.3557215194487238, 1.386021726062597, 0.01,
            0.7339473218775148, 1.2488741256509708, 0.01)),
    # item 16's probe draw 116 (G = 0): a collinear far-branch point 4.4e-5
    # below a lossless band top
    "draw-116": sph.PhaseContext(
        t=1.1635320087196994, omega0=1.205204173138115,
        trajectory=trj.OffsetLine(0.4753396664857291),
        x=(0.0, 0.5368374562152227, 0.0),
        dispersion=disp.LorentzMetamaterial(
            1.322607608625975, 1.1128343161080918, 0.0,
            0.80020818600396, 0.8706174408513279, 0.0)),
    # item 16's probe draw 165 (G = 0): one base cell is a whole joint
    "draw-165": sph.PhaseContext(
        t=1.6312954494508707, omega0=1.836660592198563,
        trajectory=trj.OffsetLine(0.3244562487996291),
        x=(0.021680442344743867, -0.7973175553112326, -0.113112857186773),
        dispersion=disp.LorentzMetamaterial(
            1.413116296944594, 1.096050408883327, 0.0,
            0.9548221967477237, 0.9431772168649364, 0.0)),
    # non-dispersive closed-form draw: the point lies at 13.6 omega0,
    # outside the scanned windows
    "event-318": sph.PhaseContext(
        t=0.44941384741519697, omega0=1.4069043017575629,
        trajectory=trj.OffsetLine(-0.5164320240509733),
        x=(-2.2361305415117654, 0.8862102663823372, 0.5609729838355393),
        dispersion=disp.NonDispersive(eps=4.562857641347017)),
    # plasma near-cutoff draw (default_rng(7)): the first base cell is a fold
    # joint, and the joint's seed at the far node leaves the band
    "plasma-cutoff": sph.PhaseContext(
        t=2.16, omega0=1.000147, trajectory=trj.StraightLine(
            velocity=(-0.03882, -0.06565, 0.0202)),
        x=(1.943, 1.821, -1.037), dispersion=disp.ColdPlasma(1.0)),
    "planar": sph.PhaseContext(
        t=2.0, x=(0.01, 1.595, 0.0), omega0=omega_from_thz(420.0),
        trajectory=trj.OffsetLine(v=0.5), dispersion=disp.lorentz_from_thz()),
}


def assert_holds(points, expected, rel=1e-8):
    """Each expected (omega, tau) is among the points, to rel."""
    for omega, tau in expected:
        assert any(p.omega_s == pytest.approx(omega, rel=rel)
                   and p.tau_s == pytest.approx(tau, rel=rel)
                   for p in points), (omega, tau)


def known_drop(item, why, raises=AssertionError):
    """A strict xfail for a drop that ROADMAP item ``item`` mends; it must
    fail as it does today, with ``raises``."""
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP item {item}: {why}")


class TestKnownDrops:
    @known_drop(18, "a branch island narrower than one base cell is not "
                "split")
    def test_island(self):
        assert_holds(sph.solve_line(EVENTS["island"]),
                     [(0.352071982666288, -1.0968619199333725),
                      (0.8382053099779451, -1.9988369606756329)])

    @known_drop(18, "the far branch ends unresolved just below a lossless "
                "band top")
    def test_draw_116(self):
        assert_holds(sph.solve_line(EVENTS["draw-116"]),
                     [(0.53930305, 1.14105323), (1.18245610, 1.12924222)])

    @known_drop(18, "a joint whose lower node is past the fold is never "
                "split", raises=NoConvergence)
    def test_draw_165(self):
        points = sph.solve_line(EVENTS["draw-165"])
        # D changes sign on the near branch between 1.79322 and 1.79483
        assert any(1.79322 < p.omega_s < 1.79483 for p in points)

    @known_drop(22, "one point's float-resolution residual floor is above "
                "tol", raises=NoConvergence)
    def test_draw_197_at_tight_tol(self):
        assert_holds(sph.solve_line(EVENTS["draw-197"], tol=1e-11),
                     [(0.821814837, -1.589233546),
                      (1.388684007, -0.456243608)])

    @known_drop(19, "a point beyond 10 omega0 on a non-dispersive line is "
                "outside every window")
    def test_event_318(self):
        # Newton from (19.11756, -8.62126) converges here, |grad S| 1.7e-13
        points = sph.solve_line(EVENTS["event-318"])
        assert any(p.omega_s == pytest.approx(19.117557669780698, rel=1e-9)
                   for p in points)

    @known_drop(19, "a fold joint in the first base cell next to the "
                "plasma cutoff is not polished", raises=NoConvergence)
    def test_plasma_near_cutoff(self):
        # Newton from 11 of 12 seeds across that cell converges here
        assert_holds(sph.solve_line(EVENTS["plasma-cutoff"]),
                     [(1.0002425452932244, -35.2609524756)])


class TestTol:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["island", "event-318", "planar"])
    def test_nonpositive_tol_raises_on_entry(self, name, tol):
        # events with no bracket used to return [] before any Newton call
        with pytest.raises(ValueError, match="tol must be positive"):
            sph.solve_line(EVENTS[name], tol=tol)
