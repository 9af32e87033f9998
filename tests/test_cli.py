"""Command-line interface and scenario files: formats, determinism and exit
codes."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dopshift import cli, errors, scenario, validation
from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift.units import omega_from_thz, thz_from_omega
from dopshift.scenario import Scenario, load_scenario
from dopshift.errors import ScenarioError

SCENARIO_TEXT = """
[medium]
kind = lorentz

[source]
f0_thz = 420
v = 0.5

[observer]
x1 = 0.01
x2 = 1.595
x3 = 0
t = 2

[solve]
tol = 1e-10

[output]
format = csv
path = -
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_text(tmp_path, text):
    """``load_scenario`` of a file holding text."""
    p = tmp_path / "scenario.ini"
    p.write_text(text)
    return load_scenario(str(p))


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "case.ini"
        p.write_text(SCENARIO_TEXT)
        sc = load_scenario(str(p))
        assert sc.medium_kind == "lorentz"
        assert sc.f0_thz == 420.0
        assert sc.x2 == 1.595

    def test_defaults_fill_missing_sections(self, tmp_path):
        sc = load_text(tmp_path, "[source]\nf0_thz = 100\n")
        assert sc.f0_thz == 100.0
        assert sc.medium_kind == "lorentz"

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_text(tmp_path, "[source]\nv = 1.5\n")
        with pytest.raises(ScenarioError):
            load_text(tmp_path, "[solve]\ntol = 0\n")
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.ini")

    @pytest.mark.parametrize("text", [
        "[observer]\nx1 = nan\n", "[source]\nf0_thz = inf\n",
        "[source]\nf0_thz = 0\n",
        "[solve]\ntol = nan\n", "[observer]\nt = 1e13\n",
        "[medium]\nkind = plasma\nf_p_thz = 1e-300\n",
        "[medium]\nkind = lorentz\nf_te_thz = nan\n"])
    def test_values_outside_the_modelled_range_rejected(self, tmp_path,
                                                        text):
        with pytest.raises(ScenarioError):
            load_text(tmp_path, text)

    def test_unknown_sections_and_keys_rejected(self, tmp_path):
        for text in ("[sovle]\ntol = 1e-10\n",
                     "[medium]\nkind = lorentz\nneglect_imaginery = false\n",
                     "[medium]\nkind = lorentz\nneglect_imaginary = true\n",
                     "[medium]\nkind = plasma\neps = 4\n",
                     "[observer]\ny = 1\n"):
            with pytest.raises(ScenarioError):
                load_text(tmp_path, text)
        sc = load_text(tmp_path, "[medium]\nkind = plasma\nf_p_thz = 400\n")
        assert sc.medium_params == {"f_p_thz": "400"}

    @pytest.mark.parametrize("text, message", [
        ("[source]\nv = fast\n", "[source] v = 'fast'"),
        ("[DEFAULT]\nv = 0.5\n", "unknown section [DEFAULT]"),
        ("f0_thz = 420\n", "bad scenario syntax"),
        ("[medium]\nkind = glass\n", "unknown medium kind 'glass'")])
    def test_rejected_file_is_a_usage_error(self, tmp_path, capsys, text,
                                            message):
        p = tmp_path / "case.ini"
        p.write_text(text)
        code, out, err = run_cli(capsys, "doppler", "--config", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        p = tmp_path / "typo.ini"
        p.write_text(SCENARIO_TEXT.replace("[solve]", "[sovle]"))
        code, _, err = run_cli(capsys, "doppler", "--config", str(p))
        assert code == 2 and "sovle" in err

    @pytest.mark.parametrize("command", ["doppler", "dispersion-sweep"])
    @pytest.mark.parametrize("flags", [
        ("--medium", "nondispersive", "--eps", "-1"),
        ("--medium", "nondispersive", "--mu", "0"),
        ("--medium", "plasma", "--fp-thz", "-1")])
    def test_bad_medium_exit_code(self, capsys, command, flags):
        extra = ("--f-start-thz", "400", "--f-end-thz", "500") \
            if command == "dispersion-sweep" else ()
        code, out, err = run_cli(capsys, command, *flags, *extra)
        assert code == 2
        assert out == "" and "invalid" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flags", [
        ("--x1",), ("--x2",), ("--x3",), ("--t",), ("--f0-thz",), ("--v",),
        ("--tol",), ("--medium", "plasma", "--fp-thz"),
        ("--medium", "nondispersive", "--eps"),
        ("--medium", "nondispersive", "--mu")])
    def test_non_finite_flag_is_a_usage_error(self, capsys, flags, value):
        *medium, flag = flags
        code, out, err = run_cli(capsys, "doppler", *medium, f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_medium_construction(self, tmp_path):
        sc = load_text(tmp_path,
                       "[medium]\nkind = nondispersive\neps = 4\nmu = 1\n")
        m = sc.medium()
        assert m.eps == 4.0 and m.mu == 1.0

    def test_flags_override_config(self, tmp_path, capsys):
        p = tmp_path / "base.ini"
        p.write_text("[medium]\nkind = nondispersive\n"
                     "[source]\nf0_thz = 100\nv = 0.2\n"
                     "[observer]\nx1 = 0\nx2 = 5\nx3 = 0\nt = 0\n")
        _, base_out, _ = run_cli(capsys, "doppler", "--config", str(p))
        _, over_out, _ = run_cli(capsys, "doppler", "--config", str(p),
                                 "--f0-thz", "200")
        base_f = float(base_out.splitlines()[1].split(",")[1])
        over_f = float(over_out.splitlines()[1].split(",")[1])
        assert over_f == pytest.approx(2 * base_f, rel=1e-9)
        # a medium flag overrides its own key only; --medium of the file's
        # kind keeps the file's keys; a key the kind does not read is refused
        p.write_text("[medium]\nkind = plasma\nf_p_thz = 400\n"
                     "[source]\nf0_thz = 1000\nv = 0.3\n"
                     "[observer]\nx1 = 0.5\nx2 = 4\nx3 = 0\nt = 1\n")
        for flags, f_thz in ((("--medium", "plasma"), "1401.12694"),
                             (("--fp-thz", "300"), "1412.19069")):
            code, out, _ = run_cli(capsys, "doppler", "--config", str(p),
                                   *flags)
            assert code == 0 and out.splitlines()[1].split(",")[1] == f_thz
        p.write_text(SCENARIO_TEXT)
        code, out, err = run_cli(capsys, "doppler", "--config", str(p),
                                 "--eps", "2")
        assert code == 2 and out == "" and "eps" in err

    def test_method_is_rejected(self, tmp_path, capsys):
        # one route answers every Doppler point, with a fixed Newton cap: no
        # flag or key selects a method or sets the cap
        for flag, value in (("--method", "newton"),
                            ("--method", "closed-form"),
                            ("--method", "fixed-point"), ("--max-iter", "80")):
            code, out, err = run_cli(capsys, "doppler", flag, value)
            assert code == 2 and out == "" and flag in err
            assert "Traceback" not in err
        for key, value in (("method", "newton"), ("max_iter", "80")):
            p = tmp_path / f"{key}.ini"
            p.write_text(SCENARIO_TEXT.replace(
                "[solve]", f"[solve]\n{key} = {value}"))
            code, out, err = run_cli(capsys, "doppler", "--config", str(p))
            assert code == 2 and out == "" and "Traceback" not in err
            assert err.startswith("error:") and f"unknown keys: {key}" in err

    def test_every_flag_sets_a_key(self):
        # a doppler flag is a scenario field, a medium key or one of the
        # command's own flags, so no flag outlives the key it set
        keys = {f.name for f in dataclasses.fields(Scenario)}
        keys |= set().union(*scenario._MEDIUM_KEYS.values())
        keys |= {"config", "medium", "f0_start_thz", "f0_end_thz", "n"}
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for command in ("doppler", "doppler-sweep"):
            dests = {a.dest for a in commands[command]._actions} - {"help"}
            assert dests - keys == set(), command

    def test_docstring_example_is_the_default(self, tmp_path):
        text = scenario.__doc__.split("Example::")[1].split("\n\nUnknown")[0]
        assert load_text(tmp_path, textwrap.dedent(text)) == Scenario()

    @pytest.mark.parametrize("command", [
        ("doppler",),
        ("doppler-sweep", "--f0-start-thz", "100", "--f0-end-thz", "200",
         "--n", "3")])
    def test_output_section_is_honoured(self, tmp_path, capsys, command):
        flags = ("--medium", "nondispersive", "--f0-thz", "100", "--v", "0.2",
                 "--x1", "0", "--x2", "5", "--x3", "0", "--t", "0")
        text = ("[medium]\nkind = nondispersive\n"
                "[source]\nf0_thz = 100\nv = 0.2\n"
                "[observer]\nx1 = 0\nx2 = 5\nx3 = 0\nt = 0\n")
        plain, as_json, to_file = (tmp_path / name for name in (
            "plain.ini", "json.ini", "file.ini"))
        out_path = tmp_path / "out.json"
        plain.write_text(text)
        as_json.write_text(text + "[output]\nformat = json\n")
        to_file.write_text(
            text + f"[output]\nformat = json\npath = {out_path}\n")
        # no file, and a file without [output]: CSV on stdout
        _, no_file, _ = run_cli(capsys, *command, *flags)
        _, no_section, _ = run_cli(capsys, *command, "--config", str(plain))
        assert no_file == no_section and no_file.startswith("f0_thz,")
        # the file's format, unless a flag names one
        code, from_file, _ = run_cli(capsys, *command, "--config",
                                     str(as_json))
        assert code == 0
        rows = json.loads(from_file)
        header, *cells = no_file.strip().splitlines()
        assert [list(r) for r in rows] == [header.split(",")] * len(cells)
        _, flagged, _ = run_cli(capsys, *command, "--config", str(as_json),
                                "--format", "csv")
        assert flagged == no_file
        # the file's path
        code, stdout, _ = run_cli(capsys, *command, "--config", str(to_file))
        assert code == 0 and stdout == ""
        assert out_path.read_text() == from_file


class TestDispersionSweep:
    def test_lorentz_band_all_negative(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion-sweep", "--medium",
                               "lorentz", "--f-start-thz", "410",
                               "--f-end-thz", "432", "--n", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f_thz,re_n,im_n,v_p,v_g"
        assert len(lines) == 201
        assert all(float(l.split(",")[1]) < 0 for l in lines[1:])

    def test_evanescent_rows_have_empty_cells(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion-sweep", "--medium",
                               "plasma", "--fp-thz", "500", "--f-start-thz",
                               "100", "--f-end-thz", "400", "--n", "4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == "" and cells[4] == ""

    def test_nondispersive_constant_columns(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion-sweep", "--medium",
                               "nondispersive", "--eps", "4", "--mu", "1",
                               "--f-start-thz", "100", "--f-end-thz", "400",
                               "--n", "5")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len({r[1] for r in rows}) == 1
        assert {r[3] for r in rows} == {"0.5"}

    def test_invalid_range_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "dispersion-sweep", "--f-start-thz",
                               "500", "--f-end-thz", "400", "--n", "10")
        assert code == 2
        assert "f_start" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("dispersion-sweep", "--medium", "lorentz", "--f-start-thz",
                "410", "--f-end-thz", "432", "--n", "50")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestDoppler:
    def test_nondispersive_head_on(self, capsys):
        code, out, _ = run_cli(capsys, "doppler", "--medium", "nondispersive",
                               "--eps", "1", "--mu", "1", "--f0-thz", "420",
                               "--v", "0.5", "--x1", "0", "--x2", "10",
                               "--x3", "0", "--t", "0")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["f_shift_thz"]) == pytest.approx(840.0, rel=1e-9)
        assert vals["classification"] == "blue-shift"
        assert float(vals["residual"]) <= 1e-10

    @pytest.mark.parametrize("route", ["newton", "closed-form"])
    def test_fast_source_head_on(self, capsys, route):
        # at 0.95 c the shift factor 1/(1 - v) = 20 lies past the [1e-3, 10]
        # carriers that the scan covers for a slower source; both the CLI's
        # Newton-polished point and the collinear closed-form reference
        # reach it
        if route == "newton":
            code, out, _ = run_cli(capsys, "doppler", "--medium",
                                   "nondispersive", "--v", "0.95", "--x1",
                                   "0", "--x2", "10", "--t", "5")
            assert code == 0
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            f, tau = vals["f_shift_thz"], vals["tau"]
            assert vals["retarded_time"] == "105"
        else:
            w, tau, _ = fld._collinear_point(disp.NonDispersive(),
                                             omega_from_thz(420.0), 0.95,
                                             10.0, 5.0)
            f, tau = cli._fmt(thz_from_omega(w)), cli._fmt(tau)
        assert f == "8400" and tau == "-100"

    @pytest.mark.parametrize("flags", [
        ("--medium", "lorentz", "--f0-thz", "420", "--v", "0.5", "--x2",
         "1.595", "--t", "2"),
        ("--f0-thz", "420", "--v", "-0.3")])
    def test_closed_form_is_the_causal_point(self, capsys, flags):
        # the collinear closed-form point nearest the carrier: (713.7961 THz,
        # tau -0.5574), and of (433.0204 THz, -5.21082) and (280.725 THz,
        # -1.35663) the first
        code, out, _ = run_cli(capsys, "doppler", "--x1", "0", "--format",
                               "json", *flags)
        assert code == 0
        row = json.loads(out)[0]
        sc = cli._scenario_from_args(cli.build_parser().parse_args(
            ["doppler", *flags]))
        w, tau, _ = fld._collinear_point(sc.medium(), omega_from_thz(sc.f0_thz),
                                         sc.v, sc.x2, sc.t)
        assert row["f_shift_thz"] == pytest.approx(thz_from_omega(w),
                                                   rel=1e-9, abs=0)
        assert abs(row["tau"] - tau) <= 1e-9 * max(1.0, abs(tau))
        assert row["retarded_time"] > 0 and row["residual"] <= 1e-9

    def test_reference_2d_scenario_is_the_planar_point(self, capsys,
                                                        tmp_path):
        # the causal point nearest the carrier on the planar context, as
        # fields._nearest_point takes it: 713.782905 THz, tau -0.557698682
        p = tmp_path / "reference.ini"
        p.write_text(SCENARIO_TEXT)
        code, out, _ = run_cli(capsys, "doppler", "--config", str(p),
                               "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        w0 = omega_from_thz(420.0)
        sp = fld._nearest_point(sph.PhaseContext(
            t=2.0, x=(0.01, 1.595, 0.0), omega0=w0,
            trajectory=trj.OffsetLine(v=0.5, H=0.0),
            dispersion=disp.lorentz_from_thz()), w0)
        assert row["f_shift_thz"] == thz_from_omega(sp.omega_s)
        assert row["tau"] == sp.tau_s and row["retarded_time"] > 0

    def test_lossless_pole_carrier_answers_by_both_methods(self, capsys,
                                                           tmp_path):
        # the carrier on the electric pole of a lossless metamaterial: neither
        # the CLI nor the collinear closed-form reference reads the carrier's
        # own index, so both find the point
        p = tmp_path / "pole.ini"
        p.write_text(SCENARIO_TEXT.replace(
            "kind = lorentz", "kind = lorentz\ngamma_e_thz = 0\n"
            "gamma_m_thz = 0").replace("f0_thz = 420", "f0_thz = 409.82"))
        code, out, err = run_cli(capsys, "doppler", "--config", str(p),
                                 "--x1", "0")
        assert code == 0 and "Traceback" not in err
        assert out.splitlines()[1].split(",")[1] == "679.153898"
        sc = load_scenario(str(p))
        w, _, _ = fld._collinear_point(sc.medium(), omega_from_thz(sc.f0_thz),
                                       sc.v, sc.x2, sc.t)
        assert cli._fmt(thz_from_omega(w)) == "679.153898"

    def test_lossless_collinear_event_answers(self, capsys, tmp_path):
        # a collinear event whose bracket below the lossless electric pole
        # raised NoConvergence (exit 3): D passes a pole there, not a root
        p = tmp_path / "collinear.ini"
        p.write_text(textwrap.dedent("""\
            [medium]
            kind = lorentz
            f_pe_thz = 850.1491646010827
            f_te_thz = 399.69740813424426
            f_pm_thz = 355.8305353610498
            f_tm_thz = 628.9173053382137
            gamma_e_thz = 0
            gamma_m_thz = 0
            [source]
            f0_thz = 922.4600641191422
            v = 0.3
            [observer]
            x1 = 0
            x2 = 0.01
            x3 = 0
            t = 2
            """))
        code, out, err = run_cli(capsys, "doppler", "--config", str(p))
        assert code == 0 and "Traceback" not in err
        assert out.splitlines()[1].split(",")[1] == "941.880945"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "doppler", "--medium", "nondispersive",
                               "--f0-thz", "100", "--v", "0.2", "--x1", "0",
                               "--x2", "5", "--x3", "0", "--t", "0",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["classification"] == "blue-shift"

    def test_closed_form_plasma_matches_newton(self, capsys):
        # the CLI's point against the collinear closed-form reference
        code, out, _ = run_cli(capsys, "doppler", "--medium", "plasma",
                               "--fp-thz", "500", "--f0-thz", "1000", "--v",
                               "0.5", "--x1", "0", "--x2", "4", "--x3", "0",
                               "--t", "1", "--format", "json")
        assert code == 0
        plasma = disp.ColdPlasma(omega_p=omega_from_thz(500.0))
        w, _, _ = fld._collinear_point(plasma, omega_from_thz(1000.0), 0.5,
                                       4.0, 1.0)
        assert json.loads(out)[0]["f_shift_thz"] == pytest.approx(
            thz_from_omega(w), rel=1e-9)
        # and the collinear Lorentz sweep: the same 17 carriers without a
        # causal point, the same point at every other one
        code, out, _ = run_cli(capsys, "doppler-sweep", "--x1", "0",
                               "--f0-start-thz", "380", "--f0-end-thz",
                               "460", "--n", "81", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        sc = Scenario()
        expected = []
        for row in rows:
            try:
                w, tau, _ = fld._collinear_point(
                    sc.medium(), omega_from_thz(row["f0_thz"]), sc.v, sc.x2,
                    sc.t)
            except errors.NoRootInBand:
                expected.append("NoRootInBand")
                continue
            expected.append(None)
            assert row["f_shift_thz"] == pytest.approx(thz_from_omega(w),
                                                       rel=1e-9)
            assert abs(row["tau"] - tau) <= 1e-9 * max(1.0, abs(tau))
        assert [r["error"] for r in rows] == expected
        assert expected.count("NoRootInBand") == 17


class TestDopplerSweep:
    def test_nondispersive_sweep_is_linear(self, capsys):
        code, out, err = run_cli(capsys, "doppler-sweep", "--medium",
                                 "nondispersive", "--f0-start-thz", "380",
                                 "--f0-end-thz", "460", "--n", "9",
                                 "--x1", "0", "--x2", "10", "--t", "0",
                                 "--v", "0.5")
        assert code == 0
        metric = float(err.split("=")[1])
        assert metric < 1e-10
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 9
        # cells carry 9 significant digits; the observer at x2 = 10 sees the
        # source approach, so the causal point is w0 / (1 - v) (blue shift)
        assert float(rows[0][1]) == pytest.approx(380 * 2, rel=1e-8)

    def test_lorentz_sweep_nonlinear_with_error_rows(self, capsys):
        code, out, err = run_cli(capsys, "doppler-sweep", "--medium",
                                 "lorentz", "--f0-start-thz", "380",
                                 "--f0-end-thz", "460", "--n", "9",
                                 "--x1", "0", "--x2", "1.595", "--t", "2",
                                 "--v", "0.5")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 9
        # the 380 and 390 THz carriers have no causal collinear point and
        # give error rows; the run continues
        assert [r[3] for r in rows[:2]] == ["NoRootInBand"] * 2
        assert all(r[3] == "" for r in rows[2:])
        metric = float(err.split("=")[1])
        assert metric > 0.0

    def test_two_point_range(self, capsys):
        code, out, _ = run_cli(capsys, "doppler-sweep", "--medium",
                               "nondispersive", "--f0-start-thz", "100",
                               "--f0-end-thz", "200", "--n", "2",
                               "--x1", "0", "--x2", "10", "--t", "0",
                               "--v", "0.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestPlasmaCommand:
    def test_closed_vs_newton_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "plasma", "--f0-thz", "1000",
                               "--fp-thz", "500", "--mach", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["relative_gap"]) <= 1e-9

    @pytest.mark.parametrize("direction, shifted", [
        ("approaching", "19880.5174"), ("receding", "632.303102")])
    def test_fast_source_agreement(self, capsys, direction, shifted):
        # at Mach 0.95 the approach point lies at 19.9 carriers, past the
        # [1e-3, 10] carriers that the scan covers for a slower source
        code, out, _ = run_cli(capsys, "plasma", "--mach", "0.95",
                               "--direction", direction)
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["f_newton_thz"] == vals["f_closed_thz"] == shifted
        assert float(vals["relative_gap"]) <= 1e-14

    def test_bad_mach_exit(self, capsys):
        code, _, _ = run_cli(capsys, "plasma", "--mach", "1.5")
        assert code == 2

    @pytest.mark.parametrize("flags", [("--f0-thz", "400"),
                                       ("--fp-thz", "-1")])
    def test_bad_frequency_exit(self, capsys, flags):
        code, out, err = run_cli(capsys, "plasma", *flags)
        assert code == 2 and out == "" and err.startswith("error:")


class TestCherenkovCommand:
    def test_cone_angle_output(self, capsys):
        code, out, _ = run_cli(capsys, "cherenkov")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["cos_angle"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert vals["gate"] == "true"

    def test_vacuum_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "cherenkov", "--eps", "1", "--v", "0.5")
        assert code == 4

    @pytest.mark.parametrize("flags", [("--eps", "-1"), ("--v", "1.5")])
    def test_bad_input_exit_code(self, capsys, flags):
        code, out, err = run_cli(capsys, "cherenkov", *flags)
        assert code == 2 and out == "" and err.startswith("error:")


class TestValidateCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--list")
        assert code == 0
        assert "plasma-closed-form" in out

    def test_passing_case(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "plasma-closed-form")
        assert code == 0
        assert out.startswith("PASS")

    def test_failing_case_exit_one(self, capsys, monkeypatch):
        # Every registered check passes, so register one that fails.
        monkeypatch.setitem(validation.CHECKS, "always-fails",
                            lambda: validation.CheckResult(
                                "always-fails", False, "forced failure", 0.0))
        code, out, _ = run_cli(capsys, "validate", "always-fails")
        assert code == 1
        assert out.startswith("FAIL")

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no-such-check")
        assert code == 2


def test_output_file_writing(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "dispersion-sweep", "--medium",
                         "nondispersive", "--f-start-thz", "1",
                         "--f-end-thz", "2", "--n", "3", "--out",
                         str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("f_thz,")
    assert len(text.strip().splitlines()) == 4


def test_nine_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "dispersion-sweep", "--medium", "lorentz",
                           "--f-start-thz", "417", "--f-end-thz", "418",
                           "--n", "2")
    cell = out.strip().splitlines()[1].split(",")[1]
    mantissa = cell.lstrip("-").replace(".", "").lstrip("0")
    assert len(mantissa) == 9


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


class TestExitCodeTable:
    DOCUMENTED = {int(line.split()[0]) for line in
                  cli.__doc__.split("Exit codes:")[1].splitlines()
                  if line.strip()[:1].isdigit()}

    def test_every_error_maps_to_a_documented_code(self):
        subclasses = list(all_subclasses(errors.DopshiftError))
        assert set(subclasses) >= {
            c for c in vars(errors).values() if isinstance(c, type)
            and issubclass(c, errors.DopshiftError)} - {errors.DopshiftError}
        for cls in [errors.DopshiftError] + subclasses:
            code, prefix = cli.exit_code(cls("x"))
            assert code in self.DOCUMENTED - {0, 1}, cls.__name__
            assert prefix.startswith("error"), cls.__name__
        # README's exit-code list names each type in the rows for 2 and 4
        readme = (Path(cli.__file__).resolve().parents[2]
                  / "README.md").read_text()
        codes = readme.split("Exit codes: ")[1]
        rows = {2: codes.split("2 usage error")[1].split("3 no conv")[0],
                4: codes.split("4 no root")[1].split(".")[0]}
        for types, code, _ in cli.EXIT_CODES:
            if code in rows:
                for cls in types:
                    assert f"`{cls.__name__}`" in rows[code], cls.__name__

    @pytest.mark.parametrize("cls, code", [
        (errors.ZeroFrequency, 2), (errors.DegenerateMedium, 2),
        (errors.FrequencyOutOfRange, 2),
        (errors.BelowCutoff, 2), (errors.SuperluminalMach, 2),
        (errors.ScenarioError, 2),
        (errors.NoRootInBand, 4), (errors.NoCherenkovRoot, 4),
        (errors.NoConvergence, 3), (errors.DegeneratePoint, 3)])
    def test_code_of_each_kind(self, cls, code):
        assert cli.exit_code(cls("x"))[0] == code

    def test_zero_frequency_sweep_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dispersion-sweep", "--medium",
                                 "plasma", "--f-start-thz", "0",
                                 "--f-end-thz", "10", "--n", "3")
        assert code == 2 and out == "" and err.startswith("error:")

    # Each of these once ended in a traceback or exited 0 with an empty
    # cell or denormal rows; the range rule now stops them.
    @pytest.mark.parametrize("argv", [
        ("dispersion-sweep", "--medium", "lorentz", "--f-start-thz",
         "1e-300", "--f-end-thz", "inf"),
        ("dispersion-sweep", "--medium", "plasma", "--f-start-thz", "0.42",
         "--f-end-thz", "4.8e138"),
        ("cherenkov", "--eps", "1e300", "--mu", "1e12", "--x3", "2e175"),
        ("plasma", "--f0-thz", "1e201"),
        ("cherenkov", "--t", "nan"),
        # a bare ValueError, a ValueError from the band march, denormal rows
        ("doppler-sweep", "--f0-start-thz=-5", "--f0-end-thz=5", "--n=3"),
        ("doppler-sweep", "--f0-start-thz=400", "--f0-end-thz=1e300", "--n=3",
         "--x1=0"),
        ("doppler-sweep", "--f0-start-thz=0", "--f0-end-thz=1e-320"),
        # a zero carrier radiates no wave to shift
        ("doppler", "--f0-thz=0"),
        ("doppler-sweep", "--f0-start-thz=0", "--f0-end-thz=10", "--n=3"),
        # the range rule stops the speed before its norm can overflow
        ("cherenkov", "--v=1e300"),
        # a row count past numpy's index range (a ValueError from linspace)
        ("dispersion-sweep", "--f-start-thz", "400", "--f-end-thz", "420",
         "--n", "10000000000000000000"),
        ("doppler-sweep", "--f0-start-thz", "400", "--f0-end-thz", "420",
         "--n", "10000000000000000000")])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "Traceback" not in err


def test_import_needs_no_scipy():
    # numpy is the only runtime dependency: starting the CLI loads no scipy
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, dopshift.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_import_starts_no_thread_pool():
    # the oracle imports concurrent.futures inside the quadrature, so
    # starting the CLI does not pay for it
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, dopshift.cli; print('concurrent.futures' in "
            "sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
