"""Acceptance suite.

Criteria (one test each, one PASS/FAIL line each):

  1.  Band negativity: Re n < 0 on 200 frequencies in [410, 432] THz, < 1 s.
  2.  Marker velocities at 417.82 THz: v_p = -0.31673 +/- 0.005 and
      v_g = +0.0061344 +/- 10 %.
  3.  Planar scenario (v=0.5, f0=420 THz, x1=0.01, x2=1.595, t=2) solves to
      its causal stationary point f = 713.783 +/- 0.5 THz,
      tau = -0.5577 +/- 0.02, residual < 1e-9, t - tau_s > 0.
  4.  Collinear scenario (x1=0): the causal closed-form point nearest the
      carrier (both branches, each retarded with its own side's geometry)
      gives f = 713.796 +/- 0.5 THz, tau = -0.5574 +/- 0.02, with
      t - tau > 0 and |grad S| < 1e-9.
  5.  Plasma closed form vs Newton to 1e-9 on the 5x5 (Mach, ratio) grid;
      M=0 exact; plasma-frequency-free limit to 1e-12; < 1 s.
  6.  Motionless source: omega_s = omega0 exactly, det = -1, signature 0,
      retarded time = r/v_g(omega0) to 1e-10.
  7.  Saddle value vs direct quadrature: error <= 5/lam at lam in
      {20, 40, 80}, consecutive ratios in [1.5, 2.5], fitted exponent of
      error vs lam in [-1.5, -0.7]; unit-amplitude quadratic phase exact
      to 1e-6; < 60 s.
  8.  Stationary identity on 100 randomized admissible contexts:
      |omega_s - omega0 - k v_rad| <= 1e-8 max(1, omega0), t - tau_s > 0.
  9.  Analytic gradient/Hessian vs central differences to 1e-6/1e-5 on 100
      randomized points.
  10. Cherenkov: cone angle arccos(2/3) to 1e-8 for c=0.5, v=0.75; gate
      surface by retardation predicate and cone formula coincide to 1e-8;
      vacuum at v=0.5 refuses.
  11. Non-dispersive shift-vs-carrier exactly linear (< 1e-10); metamaterial
      sweep strictly nonlinear.

The v_g target of criterion 2 is the medium's own 1/k' at the marker, and the
points of criteria 3 and 4 are causal: emitted before they are received.  No
left-handed-band point of the scenario can be causal (its Doppler equation
there needs |Re n| < 0.05, and the band has |Re n| > 2.4 where it would
apply), so criteria 3 and 4 target the one causal point, in the
positive-index band above the permittivity zero (506.96 THz).  Each target's
independent route is recorded next to it in dopshift.validation; see
README.md.
"""

from dopshift.validation import CHECKS


def _run(name):
    result = CHECKS[name]()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.details} "
          f"({result.elapsed:.2f}s)")
    assert result.passed, f"{result.name}: {result.details}"


def test_criterion_01_band_negativity():
    _run("band-negativity")


def test_criterion_02_marker_velocities():
    _run("band-velocities")


def test_criterion_03_planar_reference_point():
    _run("planar-reference-point")


def test_criterion_04_collinear_reference_point():
    _run("collinear-reference-point")


def test_criterion_05_plasma_closed_form():
    _run("plasma-closed-form")


def test_criterion_06_stationary_source():
    _run("stationary-source")


def test_criterion_07_asymptotics_vs_oracle():
    _run("oracle-asymptotics")


def test_criterion_08_stationary_identity():
    _run("stationary-identity")


def test_criterion_09_derivative_checks():
    _run("derivative-checks")


def test_criterion_10_cherenkov():
    _run("cherenkov")


def test_criterion_11_nondispersive_linearity():
    _run("nondispersive-linearity")
