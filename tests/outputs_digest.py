"""Digest of every output the README commands and the benchmark steps write.

    python tests/outputs_digest.py [--seed N]

Runs, in a fresh temporary directory each, every ``wignerflow`` command of
the README's shell blocks (each ``thermo``, ``orbit`` and ``trajectory``
line a second time with ``--format json``, so that both writers of a short
table and of a long one, with string and float columns, are covered) and
every step of every benchmark workload at seed N (``perfbench/workloads.py``, run through ``perfbench/step.py`` untraced,
as the benchmark runs them), all on the package in this checkout's ``src``.
Prints one ``sha256  <label>`` line per written file and per stdout, and
the exit code of each run.  Two checkouts write the same bytes exactly when
their digests match, so a change that must keep its outputs is checked by
diffing this script's output on both.  An ``.npz`` file is digested by its
arrays (names, dtypes, shapes and bytes), since the zip container stamps
the time it was written.  The step's own timing report is left out.
"""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPORT = "step_report.json"


def readme_commands():
    """Argument lists of the ``wignerflow`` lines in the README's ``sh``
    blocks, with continuation lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["wignerflow"]:
                commands.append(words[1:])
    return commands


def benchmark_steps(seed):
    """(workload, step index, argv) of every benchmark step at seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [(name, i, step.argv())
            for name, plan in workloads.WORKLOADS.items()
            for i, step in enumerate(plan(seed))]


def _digest_file(path):
    if path.suffix != ".npz":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    with np.load(path) as arrays:
        for name in sorted(arrays.files):
            a = arrays[name]
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run(label, argv):
    """Run argv in a fresh directory; print the digests of its stdout and
    of each file it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        res = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                             capture_output=True, timeout=600)
        print(f"{hashlib.sha256(res.stdout).hexdigest()}  {label} stdout "
              f"exit={res.returncode}")
        for path in sorted(Path(tmp).iterdir()):
            if path.name != REPORT:
                print(f"{_digest_file(path)}  {label} {path.name}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1,
                   help="benchmark workload seed")
    args = p.parse_args()
    for i, words in enumerate(readme_commands()):
        twins = [words, words + ["--format", "json"]]
        twice = words[0] in ("thermo", "orbit", "trajectory")
        for argv in twins[:2 if twice else 1]:
            run(f"readme[{i}] {shlex.join(argv)}",
                ["-m", "wignerflow.cli", *argv])
    step = str(ROOT / "perfbench" / "step.py")
    for name, i, argv in benchmark_steps(args.seed):
        run(f"{name}[{i}] {shlex.join(argv)}", [step, REPORT, "0", *argv])
    return 0


if __name__ == "__main__":
    sys.exit(main())
