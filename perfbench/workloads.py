"""Seeded workload plans: the steps each workload runs and their parameters.

A step is one fresh Python process.  A ``Step`` names a ``wignerflow``
subcommand, or ``contours``, the library step of ``step.py``, and holds one
dict of its options.  The command line is built from that dict and the
output checks read the same dict, so every value is stated once.  Options
the steps leave at the README's defaults are stated too where a check needs
them (``--dt``, ``--grid``, ``--samples``, ...).

The seed draws every parameter from a narrow range around the README's
values, so the amount of work barely depends on the seed and every step
succeeds: all Gaussian quantities stay inside the trust region
alpha * max(|x|, |k|) <= 6, every orbit energy exceeds 1 + a, every thermal
grid sits below beta*(a), every quantum trajectory runs past its first
return, and the stagnation sweep keeps the same number of lattice points per
member for every alpha range drawn here.
"""

import random
from dataclasses import dataclass

GRID = 151
BBOX = (-2.0, 2.0, -2.0, 2.0)
DEFAULT_SEED = 1


@dataclass
class Step:
    command: str  # a wignerflow subcommand, or "contours" (library step)
    params: dict  # option name -> value, without the leading "--"

    def argv(self):
        """The command line.  A list repeats its option (``--a 1 --a 2``),
        a tuple gives one option several values (``--bbox``), True is a
        flag, and a float is written with ``repr``, which round-trips, so
        the step parses exactly the value the checks use."""
        out = [self.command]
        for key, value in self.params.items():
            if value is True:
                out.append(f"--{key}")
            elif isinstance(value, tuple):
                out += [f"--{key}", *map(_fmt, value)]
            else:
                for v in value if isinstance(value, list) else [value]:
                    out += [f"--{key}", _fmt(v)]
        return out


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def phase_portraits(seed, threads=None):
    rng = random.Random(f"phase_portraits/{seed}")
    thr = {} if threads is None else {"threads": threads}
    steps = []
    for quantity, fmt in (("divj", "csv"), ("divw", "csv"), ("vort", "csv"),
                          ("w", "json")):
        steps.append(Step("field", {
            "ensemble": "gaussian", "alpha": _u(rng, 0.8, 1.2), "a": 1.0,
            "quantity": quantity, "bbox": BBOX, "grid": GRID, "format": fmt,
            "out": f"g_{quantity}.{fmt}", **thr}))
    beta, a = _u(rng, 0.9, 1.1), _u(rng, 3.5, 4.5)
    for quantity in ("w_st2", "j"):
        steps.append(Step("field", {
            "ensemble": "thermal", "beta": beta, "a": a, "quantity": quantity,
            "bbox": BBOX, "grid": GRID, "format": "csv",
            "out": f"t_{quantity}.csv", **thr}))
    steps.append(Step("stagnation", {
        "a": 4.0, "alpha-min": _u(rng, 0.2, 0.3),
        "alpha-max": _u(rng, 2.6, 2.65), "alpha-steps": 5, "bbox": BBOX,
        "grid": GRID, "emit-envelope": True, "envelope-threshold": 0.08,
        "out": "stagnation.json", **thr}))
    steps.append(Step("contours", {
        "alpha": _u(rng, 0.8, 1.2), "a": 1.0, "grid": GRID,
        "out": "contours.npz", **thr}))
    return steps


def thermal_sweep(seed, threads=None):
    rng = random.Random(f"thermal_sweep/{seed}")
    a_values = [_u(rng, 0.97 * a, 1.03 * a) for a in (0.5, 1.0, 2.0, 4.0)]
    sweep = {"beta-min": _u(rng, 0.045, 0.055),
             "beta-max": _u(rng, 4.45, 4.55), "steps": 20}
    # one h2 step per anisotropy, so that each process computes one beta*(a)
    steps = [Step("thermo", {"a": a_values, "order": "classical", **sweep,
                             "out": "thermo_classical.csv"})]
    for i, a in enumerate(a_values):
        steps.append(Step("thermo", {"a": [a], "order": "h2", **sweep,
                                     "out": f"thermo_h2_{i}.csv"}))
    return steps


def trajectories(seed, threads=None):
    rng = random.Random(f"trajectories/{seed}")
    # ten classical periods by default; 10 covers the first return of the
    # slowest member (a = 0.5: at most 8.8) for every drawn start
    steps = [Step("trajectory", {
        "alpha": _u(rng, 0.95, 1.05),
        "a": [_u(rng, 0.97 * a, 1.03 * a) for a in (0.5, 1.0, 4.0)],
        "x0": _u(rng, 0.57, 0.63), "k0": _u(rng, -0.03, 0.03), "dt": 2e-3,
        "tau-max": 10.0, "out": "traj.csv"})]
    toda_eps = [_u(rng, 0.98 * e, 1.02 * e) for e in (2.5, 4.0)]
    lv_eps = [round(2.0 + _u(rng, 0.95, 1.05) * d, 4) for d in (0.5, 0.2)]
    for model, eps_values in (("toda", toda_eps), ("lv", lv_eps)):
        steps.append(Step("orbit", {"model": model, "a": 1.0,
                                    "eps": eps_values, "dt": 1e-3,
                                    "periods": 3.0, "out": f"orbit_{model}.csv"}))
    steps.append(Step("analytic", {
        "eps": [_u(rng, 0.98 * e, 1.02 * e) for e in (6.0, 4.0, 2.5, 2.1)],
        "samples": 1000, "out": "analytic.csv"}))
    return steps


WORKLOADS = {
    "phase_portraits": phase_portraits,
    "thermal_sweep": thermal_sweep,
    "trajectories": trajectories,
}
