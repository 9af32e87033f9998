"""Property tests: the ``doppler``, ``doppler-sweep``, ``dispersion-sweep``,
``plasma`` and ``cherenkov`` commands end every input with a documented exit
code and never let an exception escape; a ``doppler`` point is causal, and a
medium flag that the medium kind does not read is a usage error."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dopshift import cli

DOCUMENTED = {int(line.split()[0]) for line in
              cli.__doc__.split("Exit codes:")[1].splitlines()
              if line.strip()[:1].isdigit()}

FLOAT_FLAGS = ("f0-thz", "v", "x1", "x2", "x3", "t", "tol")
# The medium flags each --medium reads (none given: lorentz).
MEDIUM_FLAGS = {None: (), "lorentz": (), "plasma": ("fp-thz",),
                "nondispersive": ("eps", "mu")}
# Plausible values next to extreme and non-finite ones.
VALUES = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, 1e-300, 1e300, 420.0]),
                   st.floats(allow_nan=True, allow_infinity=True))
SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def check_exit(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in DOCUMENTED - {1}, argv
    assert "Traceback" not in err, argv
    return code, out


def float_flags(floats):
    return [f"--{flag}={value!r}" for flag, value in floats.items()]


@st.composite
def media(draw, flags=FLOAT_FLAGS, kinds=tuple(MEDIUM_FLAGS)):
    """argv of a --medium of ``kinds`` (None: no flag) and a draw of
    ``flags`` and the medium flags that kind reads."""
    medium = draw(st.sampled_from(kinds))
    pool = flags + MEDIUM_FLAGS[medium]
    floats = draw(st.dictionaries(st.sampled_from(pool), VALUES)
                  if pool else st.just({}))
    return ([f"--medium={medium}"] if medium else []) + float_flags(floats)


@SETTINGS
@given(medium=media(), max_iter=st.one_of(st.none(), st.integers(-2, 120)))
def test_doppler_returns_a_documented_code(capsys, medium, max_iter):
    argv = ["doppler"]
    if max_iter is not None:
        argv.append(f"--max-iter={max_iter}")
    code, out = check_exit(capsys, argv + medium)
    if code == 0:       # a causal point: emitted before the observer's t
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["retarded_time"]) > 0, argv


@SETTINGS
@given(medium=media(FLOAT_FLAGS[1:]), start=VALUES, end=VALUES,
       n=st.integers(-2, 6))
def test_doppler_sweep_returns_a_documented_code(capsys, medium, start, end,
                                                 n):
    # --n stays small: every point is a full solve
    argv = ["doppler-sweep", f"--f0-start-thz={start!r}",
            f"--f0-end-thz={end!r}", f"--n={n}"]
    check_exit(capsys, argv + medium)


@SETTINGS
@given(medium=media((), ("lorentz", "plasma", "nondispersive")),
       start=VALUES, end=VALUES, n=st.integers(-2, 40))
def test_dispersion_sweep_returns_a_documented_code(capsys, medium, start, end,
                                                    n):
    argv = ["dispersion-sweep", f"--f-start-thz={start!r}",
            f"--f-end-thz={end!r}", f"--n={n}"]
    check_exit(capsys, argv + medium)


# Valid otherwise: each command stops at the medium flag alone.
REFUSED_BY = {"doppler": [],
              "doppler-sweep": ["--f0-start-thz=400", "--f0-end-thz=420"],
              "dispersion-sweep": ["--f-start-thz=400", "--f-end-thz=420"]}


@SETTINGS
@given(command=st.sampled_from(tuple(REFUSED_BY)),
       medium=st.sampled_from(tuple(MEDIUM_FLAGS)),
       flag=st.sampled_from(("fp-thz", "eps", "mu")), value=VALUES)
def test_a_medium_flag_the_kind_does_not_read_is_a_usage_error(
        capsys, command, medium, flag, value):
    assume(flag not in MEDIUM_FLAGS[medium])
    argv = [command, *REFUSED_BY[command], f"--{flag}={value!r}"]
    code, out = check_exit(
        capsys, argv + ([f"--medium={medium}"] if medium else []))
    assert code == 2 and out == "", argv


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
