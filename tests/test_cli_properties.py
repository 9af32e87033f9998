"""Property tests: the ``doppler``, ``doppler-sweep``, ``dispersion-sweep``,
``plasma`` and ``cherenkov`` commands end every input with a documented exit
code and never let an exception escape."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dopshift import cli

DOCUMENTED = {int(line.split()[0]) for line in
              cli.__doc__.split("Exit codes:")[1].splitlines()
              if line.strip()[:1].isdigit()}

FLOAT_FLAGS = ("f0-thz", "v", "x1", "x2", "x3", "t", "tol", "fp-thz", "eps",
               "mu")
# Plausible values next to extreme and non-finite ones.
VALUES = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, 1e-300, 1e300, 420.0]),
                   st.floats(allow_nan=True, allow_infinity=True))
SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def check_exit(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in DOCUMENTED - {1}, argv
    assert "Traceback" not in err, argv


def float_flags(floats):
    return [f"--{flag}={value!r}" for flag, value in floats.items()]


@SETTINGS
@given(medium=st.sampled_from([None, "lorentz", "plasma", "nondispersive"]),
       method=st.sampled_from([None, "newton", "closed-form"]),
       floats=st.dictionaries(st.sampled_from(FLOAT_FLAGS), VALUES),
       max_iter=st.one_of(st.none(), st.integers(-2, 120)))
def test_doppler_returns_a_documented_code(capsys, medium, method, floats,
                                           max_iter):
    argv = ["doppler"]
    if medium is not None:
        argv.append(f"--medium={medium}")
    if method is not None:
        argv.append(f"--method={method}")
    if max_iter is not None:
        argv.append(f"--max-iter={max_iter}")
    check_exit(capsys, argv + float_flags(floats))


@SETTINGS
@given(medium=st.sampled_from([None, "lorentz", "plasma", "nondispersive"]),
       method=st.sampled_from([None, "newton", "closed-form"]),
       start=VALUES, end=VALUES, n=st.integers(-2, 6),
       floats=st.dictionaries(st.sampled_from(FLOAT_FLAGS[1:]), VALUES))
def test_doppler_sweep_returns_a_documented_code(capsys, medium, method, start,
                                                 end, n, floats):
    # --n stays small: every point is a full solve
    argv = ["doppler-sweep", f"--f0-start-thz={start!r}",
            f"--f0-end-thz={end!r}", f"--n={n}"]
    if medium is not None:
        argv.append(f"--medium={medium}")
    if method is not None:
        argv.append(f"--method={method}")
    check_exit(capsys, argv + float_flags(floats))


@SETTINGS
@given(medium=st.sampled_from(["lorentz", "plasma", "nondispersive"]),
       start=VALUES, end=VALUES, n=st.integers(-2, 40),
       floats=st.dictionaries(st.sampled_from(("fp-thz", "eps", "mu")),
                              VALUES))
def test_dispersion_sweep_returns_a_documented_code(capsys, medium, start, end,
                                                    n, floats):
    argv = ["dispersion-sweep", f"--medium={medium}", f"--f-start-thz={start!r}",
            f"--f-end-thz={end!r}", f"--n={n}"]
    check_exit(capsys, argv + float_flags(floats))


@SETTINGS
@given(direction=st.sampled_from(["approaching", "receding"]),
       floats=st.dictionaries(st.sampled_from(("f0-thz", "fp-thz", "mach")),
                              VALUES))
def test_plasma_returns_a_documented_code(capsys, direction, floats):
    check_exit(capsys, ["plasma", f"--direction={direction}"]
               + float_flags(floats))


@SETTINGS
@given(floats=st.dictionaries(
    st.sampled_from(("eps", "mu", "v", "x1", "x2", "x3", "t")), VALUES))
def test_cherenkov_returns_a_documented_code(capsys, floats):
    check_exit(capsys, ["cherenkov"] + float_flags(floats))
