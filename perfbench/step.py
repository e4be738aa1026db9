"""One benchmark step, run in a fresh Python process by ``run.py``.

    python3 step.py REPORT TRACE <wignerflow arguments...>
    python3 step.py REPORT TRACE contours --alpha A --a A --grid N --out F

The process imports numpy, then ``wignerflow.cli``, and records the moment
each import finishes.  The parent subtracts its own launch time: launch
until numpy is imported is the host-speed probe (interpreter start-up and
numpy, no code of the package), launch until ``wignerflow.cli`` is imported
is the step's set-up time.  With TRACE = 1 the wrappers of ``tracing.py``
are bound before the step runs.  REPORT receives the timestamps and, when
traced, the spans.
"""

import time

_T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
import numpy as np  # noqa: E402  (the probe: the same work on every commit)

_T_NUMPY = time.clock_gettime(time.CLOCK_MONOTONIC)
import wignerflow.cli  # noqa: E402  (the import is what set-up time measures)

_T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def contours(argv):
    """README library sketch: sample div J on a grid, extract its zero set."""
    p = argparse.ArgumentParser(prog="step.py contours")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    from wignerflow import fieldgrid
    from wignerflow.gaussian import GaussianEnsembleParams
    spec = fieldgrid.GridSpec(-2.0, 2.0, -2.0, 2.0, args.grid, args.grid)
    grid = fieldgrid.sample_field(GaussianEnsembleParams(args.alpha, args.a),
                                  "divj", spec, threads=args.threads)
    lines = fieldgrid.zero_contours(grid)
    np.savez(args.out, *lines)
    return 0


def main():
    report, trace, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.install()
    if rest[:1] == ["contours"]:
        code = contours(rest[1:])
    else:
        code = wignerflow.cli.main(rest)
    out = {"started": _T_START, "numpy": _T_NUMPY, "imported": _T_IMPORTED,
           "spans": recorder.spans if recorder else []}
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
