import contextlib
import io
import json
import math
import re
import tempfile
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wignerflow

from launcher import launch, run_cli


def parse_kv(stdout):
    out = {}
    for line in stdout.strip().split("\n"):
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


class TestLauncher:
    def test_child_imports_same_package(self, tmp_path):
        res = launch(["-c", "import pathlib, wignerflow; "
                      "print(pathlib.Path(wignerflow.__file__).resolve())"],
                     tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == str(Path(wignerflow.__file__).resolve())

    def test_import_failure_fails_with_stderr(self, tmp_path):
        with pytest.raises(pytest.fail.Exception, match="No module named"):
            launch(["-c", "raise ModuleNotFoundError("
                    "\"No module named 'wignerflow'\")"], tmp_path)


class TestOrbit:
    def test_schema_and_summary(self, tmp_path):
        res = run_cli(["orbit", "--model", "toda", "--a", "1", "--eps", "2.5",
                       "--dt", "1e-3", "--periods", "1", "--out", "o.csv"],
                      tmp_path)
        assert res.returncode == 0
        kv = parse_kv(res.stdout)
        assert abs(float(kv["period"]) - 5.602412169) < 1e-6
        assert float(kv["max_energy_drift"]) < 1e-8
        header = (tmp_path / "o.csv").read_text().split("\n", 1)[0]
        assert header == "tau,x,k,y,z,energy_residual"

    def test_below_closed_orbit_bound_exits_3(self, tmp_path):
        res = run_cli(["orbit", "--eps", "1.5", "--a", "1", "--out", "o.csv"],
                      tmp_path)
        assert res.returncode == 3

    def test_lv_root_failure_prints_a_plain_float(self, tmp_path):
        # (eps - 1 - a)/a = 2e308 overflows: the turning point has no float
        res = run_cli(["orbit", "--model", "lv", "--a", "0.5", "--eps",
                       "1e308", "--out", "o.csv"], tmp_path)
        assert res.returncode == 1
        assert ("numerical failure: root of v + e^-v = 1 + inf did not "
                "converge\n") in res.stderr
        assert "np.float64" not in res.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_lv_root_failure_prints_one_line(self, tmp_path):
        res = run_cli(["orbit", "--model", "lv", "--a", "0.5", "--eps",
                       "1e308", "--out", "o.csv"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == ("numerical failure: root of v + e^-v = 1 + "
                              "inf did not converge\n")

    def test_far_lv_orbit_exceeds_the_step_budget(self, tmp_path):
        # the period at eps = 1e300 is 1e300 (its root overflowed to
        # inf / inf in Halley's step); three periods are refused as work
        res = run_cli(["orbit", "--model", "lv", "--eps", "1e300", "--out",
                       "o.csv"], tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("usage error: 3e+303 RK4 steps exceed the work "
                              "budget of 10000000 steps per integration\n")

    def test_eps_sweep_writes_one_file_each(self, tmp_path):
        res = run_cli(["orbit", "--eps", "2.5", "--eps", "2.2", "--dt", "2e-3",
                       "--periods", "1", "--out", "o.csv"], tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "o_eps2.5.csv").exists()
        assert (tmp_path / "o_eps2.2.csv").exists()

    def test_explicit_start_is_one_member(self, tmp_path):
        # --x0/--k0 fix the orbit, so repeated --eps values are no sweep
        res = run_cli(["orbit", "--x0", "0.5", "--eps", "2.5", "--eps", "3",
                       "--dt", "2e-3", "--periods", "1", "--out", "o.csv"],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        assert parse_kv(res.stdout)["out"] == "o.csv"
        assert res.stdout.count("out=") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]

    def test_drift_failure_exits_1_reporting_the_run(self, tmp_path):
        # the one LV run over three exact periods (163 steps) is audited;
        # Toda rows are the closed form, with no step to drift
        from wignerflow import classical
        from wignerflow.errors import NumericalError
        from wignerflow.model import HamiltonianKind, SeparableHamiltonian
        model = SeparableHamiltonian(HamiltonianKind.LV, 1.0)
        spec = classical.OrbitSpec.from_energy(
            model, 6.0, step=0.2, duration=3.0 * classical.period(model, 6.0))
        with pytest.raises(NumericalError) as err:
            classical.integrate_orbit(spec)
        assert len(err.value.payload) == 164
        res = run_cli(["orbit", "--model", "lv", "--eps", "6", "--dt", "0.2",
                       "--out", "o.csv"], tmp_path)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"energy drift {err.value.payload.max_drift:.3e}" in res.stderr
        assert "energy drift 3.774e-02" in res.stderr
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("eps", ["1e4", "2e6", "1.5e308"])
    def test_overflowing_step_exits_1(self, tmp_path, eps):
        # at dt = 1e-3 an RK4 stage from x = acosh(eps - 1) leaves the float
        # range of sinh: the RK4 reference fails with the exit-1 error naming
        # eps and dt.  orbit tabulates the closed form instead: exit 0 with
        # the drift audit met, or exit 3 above its energy limit
        from wignerflow import classical
        from wignerflow.errors import NumericalError
        from wignerflow.model import HamiltonianKind, SeparableHamiltonian
        model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
        spec = classical.OrbitSpec.from_energy(
            model, float(eps), step=1e-3,
            duration=max(3.0 * classical.period(model, float(eps)), 2e-3))
        says = re.escape(f"eps = {float(eps):g}, dt = 0.001")
        with pytest.raises(NumericalError, match=says):
            classical.integrate_orbit(spec)
        res = run_cli(["orbit", "--model", "toda", "--eps", eps,
                       "--out", "o.csv"], tmp_path)
        assert "Traceback" not in res.stderr
        if float(eps) <= classical.TODA_ORBIT_EPS_MAX:
            assert res.returncode == 0, res.stderr
            drift = float(parse_kv(res.stdout)["max_energy_drift"])
            assert drift <= 1e-14 * float(eps)
        else:
            assert res.returncode == 3
            assert "only up to eps = 1e+07" in res.stderr
            assert list(tmp_path.iterdir()) == []

    def test_json_format(self, tmp_path):
        res = run_cli(["orbit", "--eps", "2.5", "--dt", "5e-3", "--periods",
                       "1", "--format", "json", "--out", "o.json"], tmp_path)
        assert res.returncode == 0
        records = json.loads((tmp_path / "o.json").read_text())
        assert sorted(records[0]) == ["energy_residual", "k", "tau", "x",
                                      "y", "z"]


class TestAnalytic:
    def test_summary_and_bounds(self, tmp_path):
        res = run_cli(["analytic", "--eps", "2.5", "--samples", "200",
                       "--out", "an.csv"], tmp_path)
        assert res.returncode == 0
        kv = parse_kv(res.stdout)
        assert abs(float(kv["kappa"]) - 0.9375) < 1e-9
        assert float(kv["period_ratio"]) > 0.0
        assert kv["convention"] == "parameter"
        lines = (tmp_path / "an.csv").read_text().strip().split("\n")
        assert lines[0] == "tau,T,y,z"
        t_vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.5 - 1e-9 <= t <= 2.0 + 1e-9 for t in t_vals)
        summary = json.loads((tmp_path / "an_summary.json").read_text())
        assert summary[0]["t_source"] == "analytic"

    def test_harmonic_boundary_exits_3(self, tmp_path):
        res = run_cli(["analytic", "--eps", "2.0", "--out", "an.csv"], tmp_path)
        assert res.returncode == 3

    def test_runs_no_rk4(self, tmp_path, monkeypatch, capsys):
        from wignerflow import classical, cli
        calls = []
        core = classical._rk4

        def counted(*args, **kwargs):
            calls.append(args[4])
            return core(*args, **kwargs)

        monkeypatch.setattr(classical, "_rk4", counted)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analytic", "--eps", "6", "--eps", "2.1",
                         "--out", "an.csv"]) == 0
        assert calls == []

    @pytest.mark.parametrize("eps", [70.0, 100.0, 1000.0])
    def test_high_energy_summary_against_mpmath(self, tmp_path, monkeypatch,
                                                capsys, eps):
        # kappa, the linear-sine period formula and the exact period
        # 4 K(kappa) / T+, all from the float eps in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analytic", "--eps", str(eps), "--samples", "50",
                         "--out", "an.csv"]) == 0
        summary = json.loads((tmp_path / "an_summary.json").read_text())[0]
        with mpmath.workdps(40):
            e = mpmath.mpf(eps)
            s = mpmath.sqrt(e * e - 4)
            kappa = 2 * e * s / (e * (e + s) - 2)
            t_plus = (e + s) / 2
            linear_sine = 4 * mpmath.quad(
                lambda t: 1 / mpmath.sqrt(1 - kappa * mpmath.sin(t)),
                [0] + [mpmath.pi / 2 - mpmath.mpf(10) ** -j
                       for j in range(1, 10)] + [mpmath.pi / 2])
            expected = {
                "kappa": kappa,
                "period_formula": 8 * mpmath.sqrt(2) * linear_sine
                / mpmath.sqrt(e + s - 2),
                "period_ode": 4 * mpmath.ellipk(kappa) / t_plus}
        for key, ref in expected.items():
            assert abs(summary[key] - float(ref)) <= 1e-12 * float(ref), key

    @pytest.mark.parametrize("eps", ["1.0000000000000001e150", "1e154",
                                     "1e300"])
    def test_above_the_energy_limit_exits_3(self, tmp_path, eps):
        res = run_cli(["analytic", "--eps", "2.5", "--eps", eps,
                       "--out", "an.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert "2 < eps <= 1e+150" in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_high_energy_species_identity(self, tmp_path, monkeypatch, capsys):
        # the species hold to 1e-9 at eps = 1e6 (the old bound was 1500)
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analytic", "--eps", "1e6", "--samples", "101",
                         "--out", "an.csv"]) == 0
        rows = [[float(v) for v in line.split(",")] for line in
                (tmp_path / "an.csv").read_text().splitlines()[1:]]
        for _, t_val, y, z in rows:
            assert abs(0.5 * (y + 1.0 / y + z + 1.0 / z) / 1e6 - 1.0) <= 1e-9
            assert 1e-6 * (1.0 - 1e-9) <= t_val <= 1e6 * (1.0 + 1e-9)


class TestThermo:
    def test_classical_spot_value(self, tmp_path):
        res = run_cli(["thermo", "--a", "1", "--beta-min", "1", "--beta-max",
                       "2", "--steps", "2", "--order", "classical",
                       "--out", "t.csv"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "t.csv").read_text().strip().split("\n")
        assert lines[0] == "a,beta,z,energy,heat_capacity,valid"
        first = lines[1].split(",")
        assert abs(float(first[3]) - 2.8592507965208035) < 1e-9

    def test_h2_rows_flagged_beyond_validity(self, tmp_path):
        res = run_cli(["thermo", "--a", "1", "--beta-min", "4.0",
                       "--beta-max", "4.8", "--steps", "5", "--order", "h2",
                       "--out", "t.csv"], tmp_path)
        assert res.returncode == 0
        rows = [line.split(",") for line in
                (tmp_path / "t.csv").read_text().strip().split("\n")[1:]]
        flags = [int(r[-1]) for r in rows]
        assert flags[0] == 1 and flags[-1] == 0

    def test_fully_invalid_range_exits_3(self, tmp_path):
        res = run_cli(["thermo", "--a", "1", "--beta-min", "4.6",
                       "--beta-max", "5.0", "--steps", "3", "--order", "h2",
                       "--out", "t.csv"], tmp_path)
        assert res.returncode == 3

    @pytest.mark.parametrize("args, code, says", [
        # K1(1e-320) exceeds the float range: exit 3 naming the row
        (["--beta-min", "1e-320"], 3, "row beta = 1e-320"),
        # at order h2, beta*(1e-300) lies where K0 underflows: no table
        (["--a", "1e-300", "--order", "h2"], 1, "beta*(a=1e-300)"),
        (["--a", "1e300"], 3, "Z0 underflows"),
        (["--a", "1e300", "--order", "h2"], 1, "beta*(a=1e+300)"),
    ])
    def test_out_of_range_rows_fail_cleanly(self, tmp_path, args, code, says):
        res = run_cli(["thermo", "--steps", "2", *args, "--out", "t.csv"],
                      tmp_path)
        assert res.returncode == code
        assert "Traceback" not in res.stderr
        assert says in res.stderr
        assert "inf" not in res.stdout and "nan" not in res.stdout
        assert not (tmp_path / "t.csv").exists()


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_classical_sweep_without_beta_star(self, tmp_path, fmt):
        """Classical rows do not depend on beta*; where it is out of float
        reach the table is still written and beta* reads unavailable."""
        res = run_cli(["thermo", "--a", "1e-300", "--a", "1", "--steps", "2",
                       "--format", fmt, "--out", f"t.{fmt}"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        kv = parse_kv(res.stdout)
        assert kv["beta_star_a1e-300"] == "unavailable"
        assert abs(float(kv["beta_star_a1"]) - 4.4224) < 1e-4
        assert kv["rows"] == "4"
        text = (tmp_path / f"t.{fmt}").read_text()
        rows = (json.loads(text) if fmt == "json"
                else text.strip().split("\n")[1:])
        assert len(rows) == 4

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_beta_max_names_the_flags(self, tmp_path, bound):
        res = run_cli(["thermo", "--beta-max", bound, "--out", "t.csv"],
                      tmp_path)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "Warning" not in res.stderr
        assert "need 0 < --beta-min < --beta-max < inf" in res.stderr
        assert "row beta" not in res.stderr
        assert list(tmp_path.iterdir()) == []


class TestDegenerateCounts:
    @pytest.mark.parametrize("args", [
        ["thermo", "--steps", "0"],
        ["stagnation", "--alpha-steps", "0"],
        ["thermo", "--steps", "-3"],
        ["stagnation", "--alpha-steps", "-1"],
        ["analytic", "--eps", "4", "--samples", "-1"],
    ])
    def test_non_positive_count_is_usage_error(self, tmp_path, args):
        res = run_cli(args + ["--out", "out.txt"], tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "expected a positive integer" in res.stderr
        assert not (tmp_path / "out.txt").exists()


class TestField:
    def test_unknown_quantity_exits_2(self, tmp_path):
        res = run_cli(["field", "--quantity", "bogus", "--out", "f.csv"],
                      tmp_path)
        assert res.returncode == 2

    def test_thermal_divw_spot_value(self, tmp_path):
        res = run_cli(["field", "--ensemble", "thermal", "--beta", "1",
                       "--a", "4", "--quantity", "divw", "--bbox", "-2", "2",
                       "-2", "2", "--grid", "5", "--out", "f.csv"], tmp_path)
        assert res.returncode == 0
        rows = (tmp_path / "f.csv").read_text().strip().split("\n")[1:]
        lookup = {}
        for row in rows:
            x, k, value = (float(v) for v in row.split(","))
            lookup[(x, k)] = value
        assert abs(lookup[(1.0, 1.0)] - 2.13114534024063) < 1e-10

    def test_alpha_sweep_files(self, tmp_path):
        res = run_cli(["field", "--alpha", "0.70710678", "--alpha", "1",
                       "--alpha", "1.41421356", "--quantity", "divj",
                       "--grid", "11", "--out", "f.csv"], tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "f_alpha0.707107.csv").exists()
        assert (tmp_path / "f_alpha1.csv").exists()
        assert (tmp_path / "f_alpha1.41421.csv").exists()

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        blobs = []
        for threads, name in (("1", "a.csv"), ("8", "b.csv")):
            res = run_cli(["field", "--quantity", "wx", "--grid", "31",
                           "--threads", threads, "--out", name], tmp_path)
            assert res.returncode == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


class TestThermalFieldValidity:
    """A thermal grid whose normalisation is not positive is refused: Z0
    underflows to 0 from beta = 370.5 at a = 1, and at beta = 1 for
    a = 1e8; Z_ST is NaN at beta = 1e300.  No file, no all-nan rows."""

    @pytest.mark.parametrize("args, says", [
        (["classical", "--beta", "800", "--quantity", "w0"], "Z0 underflows"),
        (["classical", "--beta", "800", "--quantity", "jx"], "Z0 underflows"),
        (["classical", "--a", "1e8", "--quantity", "j"], "Z0 underflows"),
        (["classical", "--a", "1e8", "--quantity", "jk"], "Z0 underflows"),
        (["h2", "--beta", "1e300", "--quantity", "w_st2"],
         "Z_ST is NaN at beta = 1e+300"),
    ])
    def test_exits_3_writing_nothing(self, tmp_path, args, says):
        res = run_cli(["field", "--ensemble", "thermal", "--order", *args,
                       "--grid", "5", "--out", "f.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert "Warning" not in res.stderr
        assert says in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_divw_needs_no_partition_function(self, tmp_path):
        res = run_cli(["field", "--ensemble", "thermal", "--order",
                       "classical", "--beta", "800", "--quantity", "divw",
                       "--grid", "5", "--out", "f.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "nan" not in (tmp_path / "f.csv").read_text()

    @pytest.mark.parametrize("args, says", [
        # a beta leaves the float range: the Bessel factors named no value
        (["h2", "--beta", "1e200", "--a", "1e200", "--quantity", "w0"],
         "a beta = inf at beta = 1e+200, a = 1e+200"),
        (["h2", "--beta", "1e-200", "--a", "1e-200", "--quantity", "w0"],
         "a beta = 0.0 at beta = 1e-200, a = 1e-200"),
        (["classical", "--beta", "1e200", "--a", "1e200", "--quantity", "j"],
         "a beta = inf at beta = 1e+200, a = 1e+200"),
        # a beta^2 overflows in divw, which needs no partition function
        (["classical", "--beta", "1e200", "--a", "1e200", "--quantity",
          "divw"], "divw is not finite at 25 of 25 grid values at "
         "beta = 1e+200, a = 1e+200"),
        # sinh and cosh overflow past |x| = 710
        (["classical", "--beta", "1", "--bbox", "-800", "800", "-800", "800",
          "--quantity", "divw"], "divw is not finite at 20 of 25"),
        (["classical", "--beta", "1", "--bbox", "-800", "800", "-800", "800",
          "--quantity", "j"], "j is not finite at"),
        (["h2", "--beta", "1", "--bbox", "-800", "800", "-800", "800",
          "--quantity", "j"], "beta = 1.0, a = 1.0"),
    ], ids=["w0-overflow", "w0-underflow", "j-overflow", "divw-overflow",
            "divw-wide", "j-wide", "j-h2-wide"])
    def test_non_finite_grid_exits_3_without_warning(self, tmp_path, args,
                                                     says):
        res = run_cli(["field", "--ensemble", "thermal", "--order", *args,
                       "--grid", "5", "--out", "f.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr.count("\n") == 1, res.stderr
        assert says in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order", ["classical", "h2"])
    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_thermo_row_names_beta_and_a(self, tmp_path, order, scale):
        res = run_cli(["thermo", "--a", scale, "--beta-min", scale,
                       "--beta-max", f"2{scale[1:]}", "--steps", "2",
                       "--order", order, "--out", "t.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        value = repr(float(scale))
        assert f"at beta = {value}, a = {value}" in res.stderr
        assert "0 < a beta < inf" in res.stderr
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteBounds:
    # -inf, -Infinity and -NAN are read as values, not as option names, so
    # GridSpec refuses them (argparse said "expected 4 arguments")
    @pytest.mark.parametrize("bbox", [["-1", "inf", "-1", "1"],
                                      ["-1", "1", "-1", "inf"],
                                      ["-1", "1", "nan", "1"],
                                      ["-inf", "1", "-1", "1"],
                                      ["-1", "1", "-Infinity", "1"],
                                      ["-1", "1", "-NAN", "1"]])
    def test_field_bbox_is_usage_error(self, tmp_path, bbox):
        res = run_cli(["field", "--bbox", *bbox, "--grid", "3",
                       "--out", "f.csv"], tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "grid ranges must satisfy -inf < lo < hi < inf" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-infinity", "-nan"])
    def test_negative_non_finite_beta_is_a_value(self, tmp_path, value):
        # argparse said "expected one argument"
        res = run_cli(["thermo", "--beta-min", value, "--out", "t.csv"],
                      tmp_path)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "need 0 < --beta-min < --beta-max < inf" in res.stderr
        assert list(tmp_path.iterdir()) == []


class TestStagnation:
    def test_densification_trend(self, tmp_path):
        res = run_cli(["stagnation", "--a", "1", "--alpha-min", "0.70710678",
                       "--alpha-max", "1.41421356", "--alpha-steps", "2",
                       "--bbox", "-3", "3", "-3", "3", "--out", "s.json"],
                      tmp_path)
        assert res.returncode == 0
        records = json.loads((tmp_path / "s.json").read_text())
        assert len(records[0]["points"]) < len(records[1]["points"])
        for rec in records:
            for point in rec["points"]:
                gamma = point["circulation"]
                assert min(abs(gamma - g) for g in (-1.0, 0.0, 1.0)) < 1e-3

    @pytest.mark.parametrize("alpha", ["1e-160", "1e-300"])
    def test_underflowing_alpha_keeps_the_origin(self, tmp_path, alpha):
        # alpha^2 underflows to 0 below about 1.5e-162; the kernel has no
        # extremum, and so no zero, on the window either way
        res = run_cli(["stagnation", "--alpha-min", alpha, "--alpha-max",
                       alpha, "--alpha-steps", "1", "--out", "s.json"],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        records = json.loads((tmp_path / "s.json").read_text())
        assert [(p["x"], p["k"], p["class"]) for p in records[0]["points"]] \
            == [(0.0, 0.0, "vortex_cw")]

    def test_bbox_beyond_trust_exits_3(self, tmp_path):
        res = run_cli(["stagnation", "--alpha-max", "4.0", "--bbox", "-3", "3",
                       "-3", "3", "--out", "s.json"], tmp_path)
        assert res.returncode == 3

    @pytest.mark.parametrize("steps, code", [("1", 0), ("2", 3)])
    def test_trust_check_uses_the_largest_member_that_runs(
            self, tmp_path, monkeypatch, capsys, steps, code):
        # one step runs --alpha-min = 1 alone, whose trust region |x|,|k| <= 6
        # holds the bbox; with two steps alpha = 4 runs too (limit 1.5)
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        assert cli.main(["stagnation", "--alpha-min", "1", "--alpha-max", "4",
                         "--alpha-steps", steps, "--bbox", "-3", "3", "-3",
                         "3", "--out", "s.json"]) == code
        if code:
            assert "at alpha = 4.0" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []
        else:
            records = json.loads((tmp_path / "s.json").read_text())
            assert [r["alpha"] for r in records] == [1.0]

    def test_envelope_emission(self, tmp_path):
        res = run_cli(["stagnation", "--a", "4", "--alpha-min", "1.0",
                       "--alpha-max", "1.0", "--alpha-steps", "1",
                       "--bbox", "-2", "2", "-2", "2", "--grid", "41",
                       "--emit-envelope", "--out", "s.json"], tmp_path)
        assert res.returncode == 0
        rec = json.loads((tmp_path / "s.json").read_text())[0]
        assert rec["envelope_nodes"]
        # every envelope node sits where the speed is below the threshold
        from wignerflow.gaussian import GaussianEnsembleParams, velocity_w
        params = GaussianEnsembleParams(1.0, 4.0)
        for x, k in rec["envelope_nodes"][:20]:
            wx, wk = velocity_w(params, x, k)
            assert (wx * wx + wk * wk) ** 0.5 < 0.08

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1e-3"])
    def test_empty_envelope_threshold_exits_3(self, tmp_path, monkeypatch,
                                              capsys, threshold):
        # no speed is below a threshold <= 0 or NaN: every member's
        # envelope would be silently empty, so no member runs
        from wignerflow import cli, gaussian
        monkeypatch.setattr(gaussian, "find_stagnation_points", None)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["stagnation", "--alpha-steps", "2", "--grid", "21",
                         "--emit-envelope", "--envelope-threshold",
                         threshold, "--out", "s.json"]) == 3
        out, err = capsys.readouterr()
        assert f"--envelope-threshold {float(threshold)}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestTrajectory:
    def test_dephasing_summary(self, tmp_path):
        res = run_cli(["trajectory", "--alpha", "1", "--a", "1", "--x0", "0.6",
                       "--k0", "0", "--dt", "2e-3", "--tau-max", "13",
                       "--out", "tr.csv"], tmp_path)
        assert res.returncode == 0
        kv = parse_kv(res.stdout)
        assert float(kv["quantum_closure"]) <= 1e-12
        assert float(kv["classical_closure"]) <= 1e-12
        assert float(kv["dephasing"]) > 1e-3
        header = (tmp_path / "tr.csv").read_text().split("\n", 1)[0]
        assert header == "kind,tau,x,k,y,z"

    def test_default_span_is_ten_exact_periods(self, tmp_path):
        # the default and an explicit --tau-max of ten exact periods run the
        # one integration path, so they write the same bytes
        from wignerflow import classical
        from wignerflow.model import (HamiltonianKind, SeparableHamiltonian,
                                      energy)
        model = SeparableHamiltonian(HamiltonianKind.TODA, 2.0)
        span = 10.0 * classical.period(model, energy(model, 0.5, 0.1))
        args = ["trajectory", "--alpha", "1.2", "--a", "2", "--x0", "0.5",
                "--k0", "0.1", "--dt", "5e-3"]
        default = run_cli(args + ["--out", "d.csv"], tmp_path)
        explicit = run_cli(args + ["--tau-max", repr(span), "--out", "e.csv"],
                           tmp_path)
        assert default.returncode == explicit.returncode == 0
        assert ((tmp_path / "d.csv").read_bytes()
                == (tmp_path / "e.csv").read_bytes())
        assert (default.stdout.replace("out=d.csv", "")
                == explicit.stdout.replace("out=e.csv", ""))

    def test_start_outside_trust_exits_3(self, tmp_path):
        res = run_cli(["trajectory", "--x0", "7.0", "--out", "tr.csv"],
                      tmp_path)
        assert res.returncode == 3

    @pytest.mark.parametrize("alpha", ["1", "0.001"])
    def test_start_beyond_float_energy_exits_3(self, tmp_path, alpha):
        # cosh(800) is beyond the float range: the default span has no
        # period to take, and no numpy warning reaches stderr
        res = run_cli(["trajectory", "--alpha", alpha, "--x0", "800",
                       "--out", "tr.csv"], tmp_path)
        assert res.returncode == 3
        assert res.stderr == ("domain error: eps = inf: a closed orbit needs "
                              "1 + a = 2.0 <= eps < inf\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_return_within_duration_writes_nothing(self, tmp_path):
        res = run_cli(["trajectory", "--alpha", "1", "--a", "0.5", "--x0",
                       "0.6", "--tau-max", "6", "--out", "tr.csv"], tmp_path)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "does not return" in res.stderr
        assert "out=" not in res.stdout
        assert not (tmp_path / "tr.csv").exists()


class TestWorkBudget:
    @pytest.mark.parametrize("args, says", [
        (["orbit", "--dt", "1e-12"], "work budget of 10000000 steps"),
        (["trajectory", "--dt", "1e-12", "--tau-max", "10"],
         "work budget of 10000000 steps"),
        (["field", "--grid", "1000000"], "work budget of 4000000 nodes"),
        # the count in three significant digits, inf for a subnormal step
        (["orbit", "--dt", "1e-300"], "error: 1.68e+301 RK4 steps exceed"),
        (["trajectory", "--tau-max", "1e300"], "error: 5e+302 RK4 steps"),
        (["orbit", "--dt", "5e-324"], "error: inf RK4 steps exceed"),
        (["trajectory", "--dt", "5e-324", "--tau-max", "1"],
         "error: inf RK4 steps exceed"),
    ])
    def test_over_budget_exits_2(self, tmp_path, args, says):
        res = run_cli(args + ["--out", "out.csv"], tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert says in res.stderr
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args", [["orbit", "--dt", "1e-12"],
                                      ["field", "--grid", "1000000"]])
    def test_refused_before_allocation(self, tmp_path, monkeypatch, capsys,
                                       args):
        import numpy as np

        from wignerflow import cli

        def boom(*args, **kwargs):
            raise AssertionError("allocated past the budget")

        for name in ("empty", "zeros", "linspace"):
            monkeypatch.setattr(np, name, boom)
        monkeypatch.chdir(tmp_path)
        assert cli.main(args + ["--out", "out.csv"]) == 2
        assert "work budget" in capsys.readouterr().err


class TestQuantumLegOverflow:
    def test_overflowing_stage_exits_1_naming_alpha_and_dt(self, tmp_path):
        # from x = 18 the flow moves k so fast that an RK4 stage's sinh
        # leaves the float range long before the trust limit 30
        res = run_cli(["trajectory", "--alpha", "0.2", "--x0", "18",
                       "--tau-max", "1", "--out", "tr.csv"], tmp_path)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert res.stderr.strip().splitlines() == [
            "numerical failure: an RK4 stage left the float range at "
            "alpha = 0.2, dt = 0.002"]
        assert not (tmp_path / "tr.csv").exists()


class TestKernelTableFailure:
    def test_non_convergence_exits_1_naming_alpha(self, tmp_path,
                                                  monkeypatch, capsys):
        from wignerflow import cli, gaussian
        monkeypatch.setattr(gaussian, "_TABLE_MAX_POINTS", 9)
        gaussian._kernel_table.cache_clear()
        monkeypatch.chdir(tmp_path)
        try:
            code = cli.main(["trajectory", "--alpha", "1.0", "--a", "1",
                             "--tau-max", "1", "--out", "tr.csv"])
        finally:
            gaussian._kernel_table.cache_clear()
        assert code == 1
        assert "alpha = 1.0 did not converge" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    def test_node_values_near_the_float_limit_do_not_overflow(
            self, tmp_path, monkeypatch, capsys):
        # at alpha = 53.28 the kernel reaches 1e308; the FFT of its even
        # extension overflowed and warned before the clean exit 1
        import warnings

        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["trajectory", "--alpha", "53.28", "--x0", "0.05",
                             "--tau-max", "1", "--out", "tr.csv"])
        assert code == 1
        assert "alpha = 53.28 did not converge" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestZeroScanBudget:
    """The kernel zeros are bracketed between the extrema of F, so --grid
    sizes only the --emit-envelope grid, and an over-budget grid is refused
    before the first sweep member runs."""

    def test_over_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from wignerflow import cli
        linspace = np.linspace

        def guarded(start, stop, num=50, **kwargs):
            if num > 10_000:
                raise AssertionError("allocated past the budget")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", guarded)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["stagnation", "--grid", "1000000", "--emit-envelope",
                         "--alpha-steps", "1", "--out", "s.json"]) == 2
        out, err = capsys.readouterr()
        assert "work budget of 4000000 nodes" in err
        assert "stagnation_count" not in out
        assert list(tmp_path.iterdir()) == []


class TestNegativeExponentValues:
    @pytest.mark.parametrize("args, says", [
        (["orbit", "--dt", "-1e-3"], "step = -0.001"),
        (["orbit", "--periods", "-1e-3"], "periods = -0.001"),
        (["trajectory", "--dt", "-1e-3"], "step = -0.001"),
        (["trajectory", "--tau-max", "-1e-3"], "--tau-max -0.001"),
        (["analytic", "--eps", "-1e-3"], "eps = -0.001"),
        (["analytic", "--eps", "2.5", "--tau-max", "-1E-3"],
         "--tau-max -0.001"),
        (["stagnation", "--alpha-max", "0"], "alpha = 0.0 must be positive"),
        (["stagnation", "--alpha-max", "-1"], "alpha = -1.0 must be positive"),
    ])
    def test_exits_3_naming_the_value(self, tmp_path, args, says):
        res = run_cli(args + ["--out", "out.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert says in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_negative_exponent_start_is_a_value(self, tmp_path):
        res = run_cli(["orbit", "--x0", "-1e-1", "--periods", "1", "--out",
                       "o.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o.csv").exists()


class TestExtremeValues:
    """Extreme values that once hung, warned or wrote a NaN residual: each
    exits 3 with one line, no warning and no file."""

    @pytest.mark.parametrize("args, says", [
        # period() was handed a numpy float, whose product overflowed
        (["orbit", "--model", "lv", "--a", "1e-308", "--eps", "2.5"],
         "duration = inf"),
        # K0(1e308): the continued fraction looped on its overflow
        (["thermo", "--steps", "2", "--beta-max", "1e308"],
         "Z0 underflows to 0.0 at beta = 1e+308"),
        (["stagnation", "--a", "1e308"],
         "the current leaves the float range at alpha = 2.1"),
        # 6/alpha = inf: the kernel table's nodes were inf * 0
        (["trajectory", "--alpha", "5e-324", "--tau-max", "1"],
         "and so must 6/alpha"),
    ], ids=["orbit", "thermo", "stagnation", "trajectory"])
    def test_exits_3(self, tmp_path, monkeypatch, capsys, args, says):
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args + ["--out", "out.csv"]) == 3
        err = capsys.readouterr().err
        assert says in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestInfiniteDuration:
    @pytest.mark.parametrize("args", [
        ["orbit", "--periods", "inf"],
        ["trajectory", "--tau-max", "inf"],
    ])
    def test_infinite_duration_exits_3(self, tmp_path, args):
        res = run_cli(args + ["--out", "out.csv"], tmp_path)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "duration < inf" in res.stderr
        assert not (tmp_path / "out.csv").exists()


class TestNonPositiveDuration:
    @pytest.mark.parametrize("args", [
        ["orbit", "--periods", "-1"],
        ["orbit", "--periods", "0"],
        ["analytic", "--eps", "2.5", "--tau-max", "-1"],
        ["analytic", "--eps", "2.5", "--tau-max", "inf"],
        ["trajectory", "--tau-max", "-1"],
    ])
    def test_exits_3_and_writes_nothing(self, tmp_path, args):
        res = run_cli(args + ["--out", "out.csv"], tmp_path)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "out=" not in res.stdout
        assert list(tmp_path.iterdir()) == []


class TestSweepMembersFreed:
    """A sweep member's outputs are freed before the next member
    integrates, so each member peaks at the size of one member."""

    @staticmethod
    def _track(monkeypatch):
        """Weak references to every member output; the integration of each
        member first checks that the earlier ones are dead."""
        from wignerflow import classical, cli, gaussian
        refs = []

        def recorded(fn, pick=lambda out: [out]):
            def wrapper(*args):
                out = fn(*args)
                refs.extend(weakref.ref(o) for o in pick(out))
                return out
            return wrapper

        def checked(fn, pick):
            def wrapper(*args):
                assert all(ref() is None for ref in refs), \
                    "member output alive"
                return recorded(fn, pick)(*args)
            return wrapper

        monkeypatch.setattr(classical, "measured_orbit",
                            checked(classical.measured_orbit,
                                    lambda out: [out[1]]))
        monkeypatch.setattr(gaussian, "integrate_quantum_trajectory",
                            checked(gaussian.integrate_quantum_trajectory,
                                    lambda out: out))
        monkeypatch.setattr(cli, "column_table", recorded(cli.column_table))
        return refs

    def test_orbit_sweep(self, tmp_path, monkeypatch, capsys):
        from wignerflow import cli
        refs = self._track(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["orbit", "--model", "lv", "--eps", "2.5", "--eps",
                         "2.2", "--dt", "2e-3", "--periods", "1", "--out",
                         "o.csv"]) == 0
        assert len(refs) == 2

    def test_trajectory_sweep(self, tmp_path, monkeypatch, capsys):
        from wignerflow import cli
        refs = self._track(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["trajectory", "--a", "1", "--a", "2", "--x0", "0.6",
                         "--dt", "5e-3", "--out", "t.csv"]) == 0
        assert len(refs) == 6  # quantum, classical and table per member


class TestOneIntegrationPerMember:
    """Each LV orbit and each quantum leg is integrated once, over the span
    it writes: its exact period sets the step count before the run starts.
    Classical Toda rows are the closed form and run no RK4 step."""

    @staticmethod
    def _count(monkeypatch):
        from wignerflow import classical, gaussian
        calls = []
        core = classical._rk4
        orbits = classical.integrate_orbit
        trajectories = gaussian.integrate_quantum_trajectory

        def counted(f, x, k, h, n_steps, stop=None):
            calls.append(("quantum" if stop else "classical", n_steps))
            return core(f, x, k, h, n_steps, stop)

        def counted_orbit(spec):
            calls.append(("integrate_orbit", spec.duration))
            return orbits(spec)

        def counted_trajectory(params, start, step, duration):
            calls.append(("integrate_quantum_trajectory", duration))
            return trajectories(params, start, step, duration)

        # the quantum leg imports classical._rk4 when it runs
        monkeypatch.setattr(classical, "_rk4", counted)
        monkeypatch.setattr(classical, "integrate_orbit", counted_orbit)
        monkeypatch.setattr(gaussian, "integrate_quantum_trajectory",
                            counted_trajectory)
        return calls

    @staticmethod
    def _toda_period(start):
        """The exact period of the a = 1 Toda orbit through start."""
        from wignerflow import classical
        from wignerflow.model import (HamiltonianKind, SeparableHamiltonian,
                                      energy)
        model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
        return classical.period(model, energy(model, start.x, start.k))

    def test_orbit_member_runs_the_core_once(self, tmp_path, monkeypatch,
                                              capsys):
        # once per LV member; never for a Toda member
        from wignerflow import classical, cli
        from wignerflow.model import HamiltonianKind, SeparableHamiltonian
        calls = self._count(monkeypatch)
        monkeypatch.chdir(tmp_path)
        for kind in ("lv", "toda"):
            model = SeparableHamiltonian(HamiltonianKind(kind), 1.0)
            calls.clear()
            assert cli.main(["orbit", "--model", kind, "--eps", "2.5",
                             "--eps", "2.2", "--dt", "2e-3", "--periods",
                             "3", "--out", f"{kind}.csv"]) == 0
            expected = []
            for eps in (2.5, 2.2):
                duration = 3.0 * classical.period(model, eps)
                n = round(duration / 2e-3)
                if kind == "lv":
                    expected += [("integrate_orbit", duration),
                                 ("classical", n)]
                text = (tmp_path / f"{kind}_eps{eps}.csv").read_text()
                assert text.count("\n") - 1 == n + 1
            assert calls == expected, kind

    def test_trajectory_member_integrates_each_step_once(
            self, tmp_path, monkeypatch, capsys):
        from wignerflow import cli
        calls = self._count(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["trajectory", "--a", "1", "--x0", "0.6", "--dt",
                         "5e-3", "--out", "t.csv"]) == 0
        kinds = [line.split(",", 1)[0] for line in
                 (tmp_path / "t.csv").read_text().splitlines()[1:]]
        from wignerflow.model import PhasePoint
        duration = 10.0 * self._toda_period(PhasePoint(0.6, 0.0))
        assert kinds.count("classical") - 1 == round(duration / 5e-3)
        # the classical rows are the closed form: no classical RK4 step
        assert calls == [("integrate_quantum_trajectory", duration),
                         ("quantum", kinds.count("quantum") - 1)]

    def test_equilibrium_member_runs_no_step(self, tmp_path, monkeypatch,
                                             capsys):
        from wignerflow import cli
        calls = self._count(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["orbit", "--x0", "0", "--k0", "0", "--dt", "0.05",
                         "--out", "o.csv"]) == 1
        assert "equilibrium" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestAlphaOverflow:
    """Above alpha = 53.28, e^{(alpha/2)^2} leaves the float range: the
    kernel refuses alpha as a domain error instead of overflowing."""

    @pytest.mark.parametrize("args", [
        ["field", "--alpha", "60", "--bbox", "-0.05", "0.05", "-0.05", "0.05",
         "--quantity", "w", "--grid", "5"],
        ["stagnation", "--alpha-min", "60", "--alpha-max", "60",
         "--alpha-steps", "1", "--bbox", "-0.05", "0.05", "-0.05", "0.05"],
        ["trajectory", "--alpha", "60", "--x0", "0.05", "--tau-max", "1"],
    ], ids=["field", "stagnation", "trajectory"])
    def test_exits_3_naming_alpha_and_limit(self, tmp_path, args):
        res = run_cli(args + ["--out", "out.csv"], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert "alpha = 60.0 exceeds 53.2835" in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_largest_alpha_evaluates(self):
        from wignerflow import specfun
        top = specfun._ALPHA_MAX
        assert math.isfinite(specfun.im_erf_offset_scaled(top, 0.01))
        with pytest.raises(specfun.DomainError, match="exceeds 53.2835"):
            specfun.im_erf_offset_scaled(math.nextafter(top, math.inf), 0.01)


class TestVelocityOverflow:
    """Below alpha = 0.0085 the trust region reaches past |chi| = 710, where
    sinh overflows: those nodes are flagged valid = 0 and hold zeros."""

    # the nodes that stay finite: sinh k overflows in wx, sinh x in wk, and
    # both in the others, except where a factor sinh 0 = 0 cancels them
    @pytest.mark.parametrize("quantity, finite", [
        ("w", lambda x, k: x == k == 0.0),
        ("wx", lambda x, k: k == 0.0),
        ("wk", lambda x, k: x == 0.0),
        ("divw", lambda x, k: x == k == 0.0),
        ("vort", lambda x, k: x == k == 0.0),
    ], ids=["w", "wx", "wk", "divw", "vort"])
    def test_overflowing_nodes_are_flagged_out(self, tmp_path, quantity,
                                               finite):
        res = run_cli(["field", "--alpha", "0.001", "--quantity", quantity,
                       "--bbox", "-6000", "6000", "-6000", "6000",
                       "--grid", "5", "--out", "f.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        header, *rows = (tmp_path / "f.csv").read_text().splitlines()
        assert header.endswith(",valid")
        assert len(rows) == 25
        for row in rows:
            x, k, *values, valid = (float(v) for v in row.split(","))
            assert all(math.isfinite(v) for v in values)
            assert valid == finite(x, k)
            if not valid:
                assert values == [0.0] * len(values)


class TestRowBudget:
    """Table row counts are refused before np.linspace allocates them."""

    @pytest.mark.parametrize("args", [
        ["thermo", "--a", "1", "--a", "2", "--a", "4", "--steps", "400000",
         "--out", "t.csv"],
        ["analytic", "--eps", "2.5", "--samples", "1000001", "--out", "a.csv"],
        ["stagnation", "--alpha-steps", "1000001", "--out", "s.json"],
    ], ids=["thermo", "analytic", "stagnation"])
    def test_over_budget_exits_2(self, tmp_path, monkeypatch, capsys, args):
        import numpy as np

        from wignerflow import cli
        linspace = np.linspace

        def guarded(start, stop, num=50, **kwargs):
            if num > 10_000:
                raise AssertionError("allocated past the budget")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", guarded)
        monkeypatch.chdir(tmp_path)
        assert cli.main(args) == 2
        assert "work budget of 1000000 rows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSelfTest:
    def test_selftest_passes(self, tmp_path):
        res = run_cli(["--selftest"], tmp_path)
        assert res.returncode == 0
        assert "selftest=pass" in res.stdout
        assert "selftest_csv_cells_vs_format=pass" in res.stdout
        assert "selftest_json_cells_vs_repr=pass" in res.stdout
        assert "selftest_period_tof_vs_elliptic=pass" in res.stdout


class TestSweepPathCollisions:
    """Sweep members whose values print alike under 'g' would write one
    file: every member's path is resolved first, and a collision exits 2
    naming both values and the path, before any file is written."""

    @pytest.mark.parametrize("args, says", [
        (["orbit", "--model", "toda", "--eps", "2.5000001", "--eps",
          "2.5000002", "--out", "o.csv"],
         "--eps 2.5000001 and 2.5000002 would both write o_eps2.5.csv"),
        (["analytic", "--eps", "4", "--eps", "2.5", "--eps", "4.0000001",
          "--out", "an.csv"],
         "--eps 4.0 and 4.0000001 would both write an_eps4.csv"),
        (["field", "--alpha", "1", "--alpha", "1.0000001", "--grid", "5",
          "--out", "f.csv"],
         "--alpha 1.0 and 1.0000001 would both write f_alpha1.csv"),
        (["field", "--ensemble", "thermal", "--beta", "2", "--beta", "2",
          "--grid", "5", "--out", "f.csv"],
         "--beta 2.0 and 2.0 would both write f_beta2.csv"),
        (["trajectory", "--a", "1", "--a", "1", "--tau-max", "1",
          "--out", "t.csv"],
         "--a 1.0 and 1.0 would both write t_a1.csv"),
    ], ids=["orbit", "analytic", "field", "field-thermal", "trajectory"])
    def test_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                        args, says):
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert says in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_distinct_values_keep_their_suffixes(self, tmp_path, monkeypatch,
                                                 capsys):
        from wignerflow import cli
        monkeypatch.chdir(tmp_path)
        assert cli.main(["field", "--alpha", "0.5", "--alpha", "1",
                         "--alpha", "1.0000001", "--grid", "5",
                         "--out", "f.csv"]) == 2
        assert list(tmp_path.iterdir()) == []
        assert cli.main(["field", "--alpha", "0.5", "--alpha", "1.0000001",
                         "--grid", "5", "--out", "f.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "f_alpha0.5.csv", "f_alpha1.csv"]


# flag values: zero, tiny and huge of both signs, the infinities, nan,
# negative numbers in exponent notation and a few ordinary values
FUZZ_FLOATS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e308",
               "-1e308", "inf", "-inf", "nan", "-1e-3", "-2.5e+10", "0.5", "1",
               "2.5"]
# at most 1, for the flags that set a run's duration
FUZZ_SPANS = [v for v in FUZZ_FLOATS if not float(v) > 1.0]
FUZZ_COUNTS = ["-1", "0", "1", "2", "5", "nan"]
FUZZ_FLAGS = {
    "orbit": {"--periods": FUZZ_SPANS, "--model": ["toda", "lv"],
              "--a": FUZZ_FLOATS, "--eps": FUZZ_FLOATS,
              "--x0": FUZZ_FLOATS, "--k0": FUZZ_FLOATS, "--dt": FUZZ_FLOATS},
    "analytic": {"--tau-max": FUZZ_SPANS, "--samples": FUZZ_COUNTS,
                 "--eps": FUZZ_FLOATS},
    "thermo": {"--steps": FUZZ_COUNTS, "--a": FUZZ_FLOATS,
               "--beta-min": FUZZ_FLOATS, "--beta-max": FUZZ_FLOATS,
               "--order": ["classical", "h2"]},
    "field": {"--grid": FUZZ_COUNTS, "--ensemble": ["gaussian", "thermal"],
              "--alpha": FUZZ_FLOATS, "--beta": FUZZ_FLOATS,
              "--a": FUZZ_FLOATS, "--order": ["classical", "h2"],
              "--quantity": ["divj", "j", "vort", "w", "w0", "w_st2"],
              "--bbox": FUZZ_FLOATS},
    "stagnation": {"--grid": FUZZ_COUNTS,
                   "--alpha-steps": [c for c in FUZZ_COUNTS if c != "5"],
                   "--a": FUZZ_FLOATS, "--alpha-min": FUZZ_FLOATS,
                   "--alpha-max": FUZZ_FLOATS, "--bbox": FUZZ_FLOATS,
                   "--emit-envelope": None,
                   "--envelope-threshold": FUZZ_FLOATS},
    # --tau-max 0 asks for ten periods, which a tiny --a stretches to the
    # budget of 10^7 RK4 steps
    "trajectory": {"--tau-max": [v for v in FUZZ_SPANS if float(v)],
                   "--alpha": FUZZ_FLOATS,
                   "--a": FUZZ_FLOATS, "--x0": FUZZ_FLOATS,
                   "--k0": FUZZ_FLOATS, "--dt": FUZZ_FLOATS},
}


class TestFuzzedFlags:
    """Extreme numeric flags, in process through cli.main: every run ends
    with a documented exit code, no traceback, no warning and no empty
    file.  The first flag of each subcommand bounds its work and is always
    given."""

    @staticmethod
    def argv(data, command, out):
        argv = [command, "--out", out]
        if command != "stagnation":
            argv += ["--format", data.draw(st.sampled_from(["csv", "json"]))]
        for i, (flag, values) in enumerate(FUZZ_FLAGS[command].items()):
            if i and not data.draw(st.booleans()):
                continue
            argv.append(flag)
            if values is not None:
                n = 4 if flag == "--bbox" else 1
                argv += [data.draw(st.sampled_from(values)) for _ in range(n)]
        return argv

    @pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_extreme_values(self, command, data):
        from wignerflow import cli
        with tempfile.TemporaryDirectory() as tmp:
            argv = self.argv(data, command, str(Path(tmp) / "out"))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refuses the value
                    code = exc.code
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue(), argv
            assert [str(w.message) for w in caught] == [], argv
            assert all(p.stat().st_size for p in Path(tmp).iterdir()), argv
