"""Each process loads only the modules its subcommand runs, and only a CLI
process freezes its start-up heap.  Both are checked in fresh interpreters,
since the test process itself has loaded every module."""

import json
import re
import shlex
from pathlib import Path

import pytest

import wignerflow
from wignerflow import classical, cli, fieldgrid, gaussian, tables, thermo

from launcher import launch, run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def loaded_modules(tmp_path, code):
    """The names in sys.modules after a fresh interpreter runs code, taken
    before the report itself imports json."""
    res = launch(["-c", f"import sys\n{code}\nmodules = sorted(sys.modules)\n"
                  "import json\nprint(json.dumps(modules))"], tmp_path)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def run_loads(tmp_path, argv):
    return loaded_modules(tmp_path, "from wignerflow import cli\n"
                          f"assert cli.main({argv!r}) == 0")


def test_cli_import_loads_only_the_writer(tmp_path):
    modules = loaded_modules(tmp_path, "import wignerflow.cli")
    assert {m for m in modules if m.startswith("wignerflow")} == {
        "wignerflow", "wignerflow.cli", "wignerflow.errors",
        "wignerflow.tables"}
    assert "numpy" not in modules


def readme_thermo_runs():
    """The README's thermo lines, classical and h2 order."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line)[1:]
            for line in re.findall(r"^wignerflow thermo .*$", text, re.M)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", readme_thermo_runs(),
                         ids=["classical", "h2"])
def test_readme_thermo_loads_no_numpy(tmp_path, argv, fmt):
    # a table of at most 512 rows is written from lists; the partition
    # functions and observables use math alone
    modules = run_loads(tmp_path, argv + ["--format", fmt])
    assert "wignerflow.thermo" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", readme_thermo_runs()[:1] + [
    ["field", "--grid", "5", "--out", "f.csv"],
], ids=["thermo", "field"])
def test_csv_processes_load_no_json(tmp_path, argv):
    # json is imported only where a JSON document is written
    modules = run_loads(tmp_path, argv)
    assert "json" not in modules
    assert "wignerflow.tables" in modules


def test_json_process_loads_json(tmp_path):
    modules = run_loads(tmp_path, ["field", "--grid", "5", "--format", "json",
                                   "--out", "f.json"])
    assert "json" in modules


def test_thermo_loads_no_grid_or_orbit_code(tmp_path):
    modules = run_loads(tmp_path, ["thermo", "--a", "1", "--order", "h2",
                                   "--steps", "5", "--out", "t.csv"])
    assert "wignerflow.thermo" in modules
    for name in ("wignerflow.classical", "wignerflow.gaussian",
                 "wignerflow.fieldgrid", "wignerflow.model", "dataclasses",
                 "numpy.fft"):
        assert name not in modules


@pytest.mark.parametrize("argv", [
    ["orbit", "--periods", "1", "--out", "o.csv"],
    ["analytic", "--eps", "4", "--samples", "10", "--out", "a.csv"],
])
def test_orbit_and_analytic_load_no_ensemble_code(tmp_path, argv):
    modules = run_loads(tmp_path, argv)
    assert "wignerflow.classical" in modules
    for name in ("wignerflow.gaussian", "wignerflow.thermo",
                 "wignerflow.fieldgrid"):
        assert name not in modules


def test_trajectory_loads_no_polynomial_package(tmp_path):
    # the kernel table is fitted by one matrix product
    modules = run_loads(tmp_path, ["trajectory", "--tau-max", "10",
                                   "--out", "t.csv"])
    assert "wignerflow.gaussian" in modules
    assert "numpy.polynomial" not in modules


@pytest.mark.parametrize("argv", [
    ["field", "--quantity", "divw", "--grid", "5", "--out", "f.csv"],
    ["field", "--quantity", "w", "--grid", "5", "--format", "json",
     "--out", "f.json"],
    ["stagnation", "--alpha-steps", "3", "--out", "s.json"],
    ["trajectory", "--tau-max", "10", "--out", "t.csv"],
    ["field", "--ensemble", "thermal", "--quantity", "j", "--grid", "5",
     "--out", "f.csv"],
    ["orbit", "--periods", "1", "--out", "o.csv"],
    ["analytic", "--eps", "4", "--samples", "10", "--out", "a.csv"],
    ["thermo", "--steps", "5", "--out", "t.csv"],
], ids=["divw", "w_json", "stagnation", "trajectory", "thermal", "orbit",
        "analytic", "thermo"])
def test_no_process_loads_numpy_fft(tmp_path, argv):
    # the Weideman coefficients of the array kernel are constants
    modules = run_loads(tmp_path, argv)
    assert "numpy.fft" not in modules
    if argv[0] == "stagnation":
        # gaussian takes its bisection from bracket, which holds no Bessel code
        assert "wignerflow.gaussian" in modules
        assert "wignerflow.scalar" not in modules


def test_help_texts_match_the_modules():
    """The help texts are literals, so that building the parser imports
    neither fieldgrid nor classical."""
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command").choices
    helps = {(name, a.dest): a.help for name in ("field", "analytic")
             for a in sub[name]._actions}
    assert helps["field", "quantity"] == "gaussian: %s; thermal: %s" % (
        "|".join(sorted(gaussian.GRID_QUANTITIES)),
        "|".join(sorted(thermo.GRID_QUANTITIES)))
    assert (f"2 < eps <= {classical.ISOTROPIC_EPS_MAX:g},"
            in helps["analytic", "eps"])


def test_writer_is_one_object_everywhere():
    assert fieldgrid.export_table is tables.export_table is cli.export_table
    assert fieldgrid.column_table is tables.column_table is cli.column_table
    assert wignerflow.export_table is tables.export_table


@pytest.mark.parametrize("argv", [
    ["stagnation", "--alpha-steps", "1", "--out", "s.json"],
    ["field", "--grid", "5", "--out", "f.csv"],
    ["stagnation", "--alpha-steps", "1", "--emit-envelope", "--grid", "5",
     "--out", "s.json"],
    ["field", "--ensemble", "thermal", "--quantity", "divw", "--grid", "5",
     "--out", "f.csv"],
])
def test_grids_load_no_orbit_code(tmp_path, argv):
    # gaussian imports classical only where a trajectory runs, and a grid
    # loads the module of its own ensemble only
    own, other = "wignerflow.gaussian", "wignerflow.thermo"
    if "thermal" in argv:
        own, other = other, own
    modules = run_loads(tmp_path, argv)
    assert own in modules
    assert other not in modules
    assert "wignerflow.classical" not in modules


def freeze_count(tmp_path, code):
    """gc.get_freeze_count() after a fresh interpreter runs code."""
    res = launch(["-c", f"import gc\n{code}\n"
                  "print(gc.get_freeze_count())"], tmp_path)
    assert res.returncode == 0, res.stderr
    return int(res.stdout.splitlines()[-1])


def test_cli_import_freezes_the_start_up_heap(tmp_path):
    assert freeze_count(tmp_path, "import wignerflow.cli") > 0


def test_library_import_freezes_nothing(tmp_path):
    # the README library sketch: grids without the command line
    assert freeze_count(tmp_path, "import wignerflow.fieldgrid") == 0


def test_main_calls_freeze_nothing(tmp_path):
    argv = ["thermo", "--steps", "5", "--out", "t.csv"]
    code = ("from wignerflow import cli\n"
            "frozen = gc.get_freeze_count()\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert gc.get_freeze_count() == frozen, frozen")
    assert freeze_count(tmp_path, code) > 0


def test_process_entry_freezes_what_its_subcommand_loaded(tmp_path):
    """main() without arguments, as a CLI process calls it, freezes again
    once the subcommand has returned: numpy, which a grid loads after the
    import of cli, is frozen too."""
    argv = ["wignerflow", "field", "--grid", "5", "--out", "f.csv"]
    code = ("import sys\n"
            f"sys.argv = {argv!r}\n"
            "from wignerflow import cli\n"
            "assert 'numpy' not in sys.modules\n"
            "assert cli.main() == 0\n"
            "import numpy\n"
            "assert not any(o is numpy.__dict__ for o in gc.get_objects())")
    assert freeze_count(tmp_path, code) > 0


def test_frozen_process_flushes_its_output(tmp_path, capsys, monkeypatch):
    """A CLI process, whose start-up heap is frozen and not freed at exit,
    still prints every summary line through a pipe and writes the same
    file as an in-process run."""
    # a block-buffered stdout, so that an exit that skips the flush shows
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    argv = ["thermo", "--a", "1", "--a", "2", "--order", "h2", "--steps", "9",
            "--out", "t.csv"]
    res = run_cli(argv, tmp_path)
    assert res.returncode == 0, res.stderr
    inner = tmp_path / "in_process"
    inner.mkdir()
    assert cli.main(argv[:-1] + [str(inner / "t.csv")]) == 0
    expected = capsys.readouterr().out.replace(str(inner / "t.csv"), "t.csv")
    assert res.stdout == expected
    assert len(res.stdout.splitlines()) == 5
    assert (tmp_path / "t.csv").read_bytes() == (inner / "t.csv").read_bytes()


def test_readme_library_names_resolve():
    block = re.search(r"from wignerflow import \(([^)]*)\)",
                      README.read_text(encoding="utf-8")).group(1)
    names = [n.strip() for n in block.replace("\n", " ").split(",")]
    assert len(names) > 10
    for name in names + wignerflow.__all__:
        assert getattr(wignerflow, name) is not None, name
        assert name in dir(wignerflow)
    with pytest.raises(AttributeError):
        wignerflow.no_such_name
