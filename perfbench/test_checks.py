"""The benchmark's own tests: every output check passes on a small instance
of the real output and fails on a copy with one value perturbed, one row
dropped or one point moved.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wignerflow import cli, fieldgrid  # noqa: E402
from wignerflow.gaussian import GaussianEnsembleParams  # noqa: E402

SMALL = 21
CheckError = checks.CheckError


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Run a wignerflow subcommand in tmp_path; return its stdout."""
    monkeypatch.chdir(tmp_path)

    def go(*argv):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 0
        return capsys.readouterr().out

    return go


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


def perturb(path, row, col, rel=1e-6, add=0.0):
    """Scale one CSV cell (data row ``row``, column ``col``) by 1 + rel."""
    lines = _lines(path)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + rel) + add)
    lines[row + 1] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")


def drop_row(path, row):
    lines = _lines(path)
    del lines[row + 1]
    Path(path).write_text("".join(lines), encoding="utf-8")


def fails(check, *args, **kwargs):
    with pytest.raises(CheckError):
        check(*args, **kwargs)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

GAUSSIAN_CASES = [("divj", "csv", 2), ("divw", "csv", 2), ("vort", "csv", 2),
                  ("w", "json", 3)]


@pytest.mark.parametrize("quantity,fmt,col", GAUSSIAN_CASES)
def test_gaussian_grid(run, tmp_path, quantity, fmt, col):
    out = tmp_path / f"g.{fmt}"
    run("field", "--alpha", 0.9, "--quantity", quantity, "--grid", SMALL,
        "--format", fmt, "--out", out)
    args = (out, "gaussian", quantity)
    kw = {"n": SMALL, "alpha": 0.9}
    checks.check_grid(*args, **kw)
    good = out.read_bytes()
    row = SMALL * 7 + 5
    if fmt == "json":
        recs = json.loads(good)
        recs[row]["vk"] *= 1.0 + 1e-6
        out.write_text(json.dumps(recs))
        fails(checks.check_grid, *args, **kw)
        out.write_text(json.dumps(recs[:row] + recs[row + 1:]))
        fails(checks.check_grid, *args, **kw)
        return
    perturb(out, row, col, rel=1e-6)
    fails(checks.check_grid, *args, **kw)
    out.write_bytes(good)
    drop_row(out, row)
    fails(checks.check_grid, *args, **kw)
    out.write_bytes(good)
    perturb(out, row, 0, add=1e-3)  # move one node
    fails(checks.check_grid, *args, **kw)
    if quantity != "divj":
        out.write_bytes(good)
        perturb(out, row, -1, rel=-1.0)  # valid flag 1 -> 0
        fails(checks.check_grid, *args, **kw)


@pytest.mark.parametrize("quantity,col", [("w_st2", 2), ("j", 3)])
def test_thermal_grid(run, tmp_path, quantity, col):
    out = tmp_path / "t.csv"
    run("field", "--ensemble", "thermal", "--beta", 1.0, "--a", 4.0,
        "--quantity", quantity, "--grid", SMALL, "--out", out)
    args = (out, "thermal", quantity)
    kw = {"n": SMALL, "beta": 1.0, "a": 4.0}
    checks.check_grid(*args, **kw)
    good = out.read_bytes()
    perturb(out, SMALL * 10 + 3, col, rel=1e-8)
    fails(checks.check_grid, *args, **kw)
    out.write_bytes(good)
    drop_row(out, 0)
    fails(checks.check_grid, *args, **kw)


def test_vort_tolerance_admits_exact_form(tmp_path):
    """An exact vorticity passes, so a closed form can replace the finite
    difference."""
    xs = np.linspace(-2.0, 2.0, SMALL)
    exact = checks.ref.gaussian_grid("vort", 1.1, 1.0, xs, xs)
    rows = ["x,k,value,valid"] + [
        f"{float(x)!r},{float(k)!r},{float(exact[j, i])!r},1"
        for j, k in enumerate(xs) for i, x in enumerate(xs)]
    out = tmp_path / "v.csv"
    out.write_text("\n".join(rows) + "\n")
    checks.check_grid(out, "gaussian", "vort", n=SMALL, alpha=1.1)


# ---------------------------------------------------------------------------
# zero contours and stagnation points
# ---------------------------------------------------------------------------

def test_contours(tmp_path):
    n, alpha, a = 41, 1.1, 2.0
    spec = fieldgrid.GridSpec(-2.0, 2.0, -2.0, 2.0, n, n)
    grid = fieldgrid.sample_field(GaussianEnsembleParams(alpha, a), "divj",
                                  spec)
    lines = fieldgrid.zero_contours(grid)
    out = tmp_path / "c.npz"
    args = (out, alpha, a)

    def save(ls):
        np.savez(out, *ls)

    save(lines)
    checks.check_contours(*args, n=n)
    # a vertex on an edge whose end values are clearly nonzero (the axes
    # are zero lines too, and their nodes count as either sign)
    xs = np.linspace(-2.0, 2.0, n)
    v = checks.ref.gaussian_grid("divj", alpha, a, xs, xs)
    clear = np.abs(v) > 1e-6 * np.abs(v).max()
    li, vi, edge = next(
        (li, vi, e) for li, line in enumerate(lines)
        for vi, (px, pk) in enumerate(line)
        for e in [checks._edge_of(px, pk, xs, xs, 1e-12)]
        if clear[e[0][1], e[0][0]] and clear[e[1][1], e[1][0]])
    along = 0 if edge[0][1] == edge[1][1] else 1
    dx = xs[1] - xs[0]
    moved = [p.copy() for p in lines]
    moved[li][vi, along] += 1e-3 * dx  # along its edge
    save(moved)
    fails(checks.check_contours, *args, n=n)
    moved[li][vi] += 0.3 * dx  # off every edge
    save(moved)
    fails(checks.check_contours, *args, n=n)
    save(lines[:li] + lines[li + 1:])  # its line dropped
    fails(checks.check_contours, *args, n=n)


def test_stagnation(run, tmp_path):
    out = tmp_path / "s.json"
    run("stagnation", "--a", 4, "--alpha-min", 2.0, "--alpha-max", 2.6,
        "--alpha-steps", 2, "--grid", 40, "--emit-envelope",
        "--envelope-threshold", 0.5, "--out", out)
    args = (out, 4.0, 2.0, 2.6, 2, 40, 0.5)
    checks.check_stagnation(*args)
    good = json.loads(out.read_text())

    def corrupt(edit):
        recs = json.loads(json.dumps(good))
        edit(recs[-1])
        out.write_text(json.dumps(recs))
        fails(checks.check_stagnation, *args)

    def move(rec):
        rec["points"][3]["x"] += 1e-6

    def drop(rec):
        del rec["points"][3]

    def flip(rec):
        p = next(p for p in rec["points"] if p["circulation"] == 0.0)
        p["circulation"], p["class"] = 1.0, "vortex_ccw"

    def envelope(rec):
        del rec["envelope_nodes"][0]

    for edit in (move, drop, flip, envelope):
        corrupt(edit)


# ---------------------------------------------------------------------------
# thermal observables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order,lo,hi", [("h2", 4.0, 4.5),
                                          ("classical", 0.05, 4.5)])
def test_thermo(run, tmp_path, order, lo, hi):
    out = tmp_path / "t.csv"
    stdout = run("thermo", "--a", 1, "--order", order, "--beta-min", lo,
                 "--beta-max", hi, "--steps", 6, "--out", out)
    args = (out, stdout, order, [1.0], lo, hi, 6)
    checks.check_thermo(*args)
    good = out.read_bytes()
    perturb(out, 1, 4, rel=1e-4)  # heat capacity
    fails(checks.check_thermo, *args)
    out.write_bytes(good)
    perturb(out, 2, 3, rel=1e-4)  # energy
    fails(checks.check_thermo, *args)
    out.write_bytes(good)
    drop_row(out, 3)
    fails(checks.check_thermo, *args)
    out.write_bytes(good)
    star = stdout.replace("beta_star_a1=4.42242", "beta_star_a1=4.42243")
    fails(checks.check_thermo, out, star, order, [1.0], lo, hi, 6)
    if order == "h2":
        perturb(out, 5, 5, add=1.0)  # an invalid row flagged valid
        fails(checks.check_thermo, *args)


# ---------------------------------------------------------------------------
# orbits, analytic tables, trajectories
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,eps", [("toda", 2.5), ("lv", 2.2)])
def test_orbit(run, tmp_path, model, eps):
    out = tmp_path / "o.csv"
    stdout = run("orbit", "--model", model, "--eps", eps, "--periods", 1,
                 "--out", out)
    args = (out, stdout, model, 1.0, eps, 1e-3)
    checks.check_orbit(*args, periods=1.0)
    good = out.read_bytes()
    perturb(out, 700, 1, rel=1e-6)
    fails(checks.check_orbit, *args, periods=1.0)
    out.write_bytes(good)
    drop_row(out, 700)
    fails(checks.check_orbit, *args, periods=1.0)
    out.write_bytes(good)
    period = [line for line in stdout.splitlines()
              if line.startswith("period=")][0]
    bad = stdout.replace(period, f"period={float(period[7:]) * (1 + 1e-7)!r}")
    fails(checks.check_orbit, out, bad, model, 1.0, eps, 1e-3, periods=1.0)


def test_analytic(run, tmp_path):
    out = tmp_path / "an.csv"
    run("analytic", "--eps", 2.5, "--samples", 50, "--out", out)
    summary = tmp_path / "an_summary.json"
    checks.check_analytic(out, summary, 2.5, samples=50)
    good = out.read_bytes()
    perturb(out, 20, 2, rel=1e-7)
    fails(checks.check_analytic, out, summary, 2.5, samples=50)
    out.write_bytes(good)
    drop_row(out, 20)
    fails(checks.check_analytic, out, summary, 2.5, samples=50)
    out.write_bytes(good)
    s = json.loads(summary.read_text())
    s[0]["period_formula"] *= 1.0 + 1e-8
    summary.write_text(json.dumps(s))
    fails(checks.check_analytic, out, summary, 2.5, samples=50)


def test_trajectory(run, tmp_path):
    out = tmp_path / "tr.csv"
    run("trajectory", "--alpha", 1, "--a", 1, "--x0", 0.6, "--k0", 0,
        "--tau-max", 8, "--out", out)
    args = (out, 1.0, 1.0, 0.6, 0.0, 2e-3)
    checks.check_trajectory(*args)
    good = out.read_bytes()
    perturb(out, 900, 2, rel=1e-7)  # quantum x
    fails(checks.check_trajectory, *args)
    out.write_bytes(good)
    perturb(out, 4900, 3, rel=1e-7)  # classical k
    fails(checks.check_trajectory, *args)
    out.write_bytes(good)
    drop_row(out, 900)
    fails(checks.check_trajectory, *args)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [[1, 0, "outer", 0.0, 10.0, {}],
             [2, 1, "inner", 1.0, 4.0, {}],
             [3, 1, "inner", 3.0, 5.0, {}],   # overlaps the first child
             [4, 2, "leaf", 1.5, 2.0, {}]]
    t = tracing.span_table(spans)
    assert t["outer"]["total_s"] == pytest.approx(10.0)
    assert t["outer"]["self_s"] == pytest.approx(6.0)
    assert t["inner"]["self_s"] == pytest.approx(4.5)
    assert t["inner"]["calls"] == 2


def test_traced_step_counts_repeat(tmp_path):
    """A traced step reports the same counts every time, and the counts of
    a thermal grid are the ones the code implies: per row one Z0/Z_ST
    prefactor pair and one Z0 (8 bessel_k calls), plus one Z_ST check of
    the parameters."""
    import os
    import subprocess

    def traced_counts(i):
        report = tmp_path / f"r{i}.json"
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        subprocess.run([sys.executable, str(HERE / "step.py"), str(report),
                        "1", "field", "--ensemble", "thermal",
                        "--quantity", "w_st2", "--grid", "11", "--threads",
                        "2", "--out", "f.csv"], cwd=tmp_path, env=env,
                       check=True, timeout=120)
        spans = json.loads(report.read_text())["spans"]
        names = [m["name"] for m in json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
        m = tracing.per_layer_metrics([spans], names)
        return {k: v for k, v in m.items() if not k.endswith("_s")}

    first, second = traced_counts(1), traced_counts(2)
    assert first == second
    assert first["specfun.bessel_k.calls"] == 11 * 8 + 4
    assert first["fieldgrid.sample_field.nodes"] == 121
    assert first["fieldgrid.export_table.rows"] == 121
    assert first["thermo.partition.repeat_ratio"] == 11 * 3 + 1


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_step_argv_parses_to_its_params(name):
    """Every CLI step's command line parses back to exactly the values in
    its dict, which is what the checks read (a repeatable option given one
    value parses to a one-element list)."""
    parser = cli.build_parser()
    for step in workloads.WORKLOADS[name](7, threads=1):
        if step.command == "contours":
            continue
        args = vars(parser.parse_args(step.argv()))
        for key, value in step.params.items():
            parsed = args[key.replace("-", "_")]
            expect = list(value) if isinstance(value, tuple) else value
            if isinstance(parsed, list) and not isinstance(expect, list):
                expect = [expect]
            assert parsed == expect, (step.command, key)
