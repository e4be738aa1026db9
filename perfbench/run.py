"""Benchmark of the wignerflow command line and library, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                     # every workload, both modes

Each round runs the workload's steps one at a time, each in a fresh Python
process started from this checkout's ``src``.  Untraced runs repeat whole
rounds until ``--seconds`` have passed and at least ``MIN_ROUNDS`` have run,
and report the median round's end-to-end times, scaled to the reference
host speed (``PROBE_REF_S``).  A traced run makes one untraced round, then
the same round with the per-layer wrappers of ``tracing.py`` bound, and
reports the per-layer metrics and the tracing overhead.  After the timed
part the outputs of the last round are checked against scipy and mpmath
(``checks.py``).  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STEP_TIMEOUT_S = 150.0
MIN_ROUNDS = 5  # an untraced run's median is taken over at least this many
# The host-speed probe: each step's time from launch until numpy is
# imported, before any code of the package runs.  The machine is shared and
# its speed drifts by up to 1.9x within minutes; every step slows alike, so
# the untraced times are divided by (median probe / PROBE_REF_S), the probe's
# time on this machine when it is quiet.  They read as seconds on a host
# where a step's probe takes PROBE_REF_S.
PROBE_REF_S = 0.1


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_process(argv, cwd, out_path, err_path):
    """Start one process, wait for it; return (exit code, launch, exit,
    rusage).  A process still running after STEP_TIMEOUT_S is killed."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch = _now()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out,
                                stderr=err)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        done = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, launch, done, usage


def run_round(steps, workdir, trace):
    """Run every step once; return the round's measurements."""
    launches, exits, setup, imports, rss, cpu, failed = [], [], [], [], [], [], []
    probe, spans = [], []
    for i, step in enumerate(steps):
        report = workdir / f"step{i}.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "step.py"), str(report),
                "1" if trace else "0", *step.argv()]
        code, launch, done, usage = _run_process(
            argv, workdir, workdir / f"step{i}.out", workdir / f"step{i}.err")
        launches.append(launch)
        exits.append(done)
        rss.append(usage.ru_maxrss / 1024.0)
        cpu.append(usage.ru_utime + usage.ru_stime)
        if code != 0 or not report.exists():
            failed.append(i)
            continue
        rep = json.loads(report.read_text(encoding="utf-8"))
        probe.append(rep["numpy"] - launch)
        setup.append(rep["imported"] - launch)
        imports.append(rep["imported"] - rep["numpy"])
        spans.append(rep["spans"])
    return {"wall_s": exits[-1] - launches[0], "setup_s": sum(setup),
            "peak_rss_mb": max(rss), "import_s": sum(imports),
            "cpu_s": sum(cpu), "probe": probe, "failed": failed,
            "spans": spans}


def _warm_up(workdir):
    """Import the package once untimed, so byte-code compilation and a cold
    file cache do not land in the first round; fail if it cannot."""
    code, *_ = _run_process([sys.executable, "-c", "import wignerflow.cli"],
                            workdir, workdir / "warmup.out",
                            workdir / "warmup.err")
    if code != 0:
        err = (workdir / "warmup.err").read_text(errors="replace")
        raise SystemExit(f"cannot import wignerflow from {ROOT / 'src'}:\n{err}")


def _check(workdir, name, seed, failed):
    """Run the output checks in their own process; return the failures."""
    res = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), str(workdir), name,
         str(seed), *map(str, failed)],
        capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if res.returncode != 0:
        return [f"checks exited with {res.returncode}: {res.stderr[-2000:]}"]
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, layer_names, threads=None):
    steps = WORKLOADS[name](seed, threads)
    workdir = ROOT / ".perfbench_runs" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        _warm_up(workdir)
        rounds = []
        if trace:
            rounds.append(run_round(steps, workdir, trace=False))
            traced = run_round(steps, workdir, trace=True)
            # the process.* and trace.* metrics come from the rounds
            metrics = tracing.per_layer_metrics(traced["spans"], layer_names)
            metrics["process.import_s"] = traced["import_s"]
            metrics["process.cpu_s"] = traced["cpu_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
            rounds.append(traced)
        else:
            begin = _now()
            while len(rounds) < MIN_ROUNDS or _now() - begin < seconds:
                rounds.append(run_round(steps, workdir, trace=False))
            raw = {key: statistics.median(r[key] for r in rounds)
                   for key in ("wall_s", "setup_s", "peak_rss_mb")}
            probes = [p for r in rounds for p in r["probe"]]
            slowdown = statistics.median(probes) / PROBE_REF_S if probes else 1.0
            metrics = {"wall_s": raw["wall_s"] / slowdown,
                       "setup_s": raw["setup_s"] / slowdown,
                       "peak_rss_mb": raw["peak_rss_mb"]}
            print(f"host: median probe {PROBE_REF_S * slowdown:.4f} s per "
                  f"step (reference {PROBE_REF_S} s); unscaled medians: "
                  f"wall {raw['wall_s']:.4f} s, setup {raw['setup_s']:.4f} s")
        failed_last = rounds[-1]["failed"]
        problems = _check(workdir, name, seed, failed_last)
        for i in failed_last:
            err = (workdir / f"step{i}.err").read_text(errors="replace")
            print(f"step {i} failed: {' '.join(steps[i].argv())}\n{err}",
                  file=sys.stderr)
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)
        failed = sum(len(r["failed"]) for r in rounds)
        return {"correct": not problems and not failed,
                "attempted": len(steps) * len(rounds), "failed": failed,
                "rounds": len(rounds), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result_line(res, declared):
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _summary(name, trace, res, declared):
    print(f"workload={name} trace={int(trace)} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"correct={str(res['correct']).lower()}")
    for m in declared:
        print(f"  {m['name']} = {res['metrics'][m['name']]:.6g} {m['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of one run; default run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="pass --threads to the grid steps (default: the "
                        "CLI default, the core count)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wignerflow" / "cli.py").is_file():
        print(f"no wignerflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    layers = [m["name"] for m in spec["per_layer"]]
    if args.workload != "all":
        declared = spec["per_layer" if args.trace else "end_to_end"]
        res = run_workload(args.workload, args.seed, seconds, args.trace,
                           layers, args.threads)
        _summary(args.workload, args.trace, res, declared)
        print(json.dumps(_result_line(res, declared)))
        return 0

    # each workload and mode in its own process, exactly as when run alone
    # (a parent that held earlier spans would count in the next peak RSS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            if args.threads is not None:
                argv += ["--threads", str(args.threads)]
            res = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                 check=True)
            lines = res.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            line = json.loads(lines[-1])
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for key, val in line["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
