"""Command-line front end.

Every subcommand is deterministic given its flags and writes tables through
the table writer.  Repeated value flags form sweeps; with more than
one sweep value the output path gains a ``_<name><value>`` suffix per
member so each run maps to one file; an ``orbit`` with an explicit start is
one member.  ``orbit`` prints the exact period; a Toda orbit, in ``orbit``
and as the classical rows of ``trajectory``, is tabulated in closed form,
and RK4 integrates each LV orbit and each quantum leg once, over the span
it writes.  ``analytic`` tabulates the exact closed form and integrates
nothing.
``field`` and ``stagnation`` accept ``--threads`` for compatibility; it has
no effect, since each grid is one vectorized evaluation.

Exit codes: 0 success, 1 numerical failure, 2 usage error, 3 domain or
validity error.

At module level only the standard library, ``errors`` and the table
writer are imported; each subcommand imports the modules it runs, so a
process loads and compiles no code that its subcommand does not run, a
``thermo`` process whose table has at most 512 rows loads no numpy, and
only a process that writes JSON loads ``json``.

Importing this module ends with ``gc.freeze()``: every object alive at that
moment (the standard library, this module and the writer, and numpy where
the importer loaded it first) moves to the permanent generation, which no
collection traverses or frees.  ``main()`` without arguments, the entry of
a CLI process, freezes once more when its subcommand has returned, so that
the modules the subcommand loaded, numpy among them, join them.  The
process then exits without the interpreter's final collections over, and
one-by-one frees of, those objects; the operating system reclaims them.
Objects that a caller of ``main(argv)`` makes, before or after, are
collected as before.  ``import wignerflow`` and the library modules freeze
nothing.
"""

import argparse
import gc
import math
import os
import re
import sys

from .errors import DomainError, NumericalError, UsageError, ValidityError
from .tables import column_table, export_table

_EXIT_OK = 0
_EXIT_NUMERICAL = 1
_EXIT_USAGE = 2
_EXIT_DOMAIN = 3

# rows one table may hold (thermo: --steps times the --a values; analytic:
# --samples; stagnation: --alpha-steps); a larger table is refused before
# any allocation
MAX_TABLE_ROWS = 1_000_000


def _fmt(v):
    return format(float(v), ".12g")


def _say(**kv):
    for key, value in kv.items():
        if isinstance(value, float):
            value = _fmt(value)
        print(f"{key}={value}")


def _require_rows(n):
    if n > MAX_TABLE_ROWS:
        raise UsageError(f"{n} rows exceed the work budget of "
                         f"{MAX_TABLE_ROWS} rows per table")


def _sweep_paths(base, name, values):
    """Every sweep member's output path: ``base`` for one member, else
    ``base`` with a ``_<name><value>`` suffix.  Two members that would
    write one path are a usage error, raised before any member runs."""
    if len(values) == 1:
        return [base]
    stem, ext = os.path.splitext(base)
    owners = {}
    for value in values:
        path = f"{stem}_{name}{format(value, 'g')}{ext}"
        if path in owners:
            raise UsageError(f"--{name} {owners[path]!r} and {value!r} would "
                             f"both write {path}")
        owners[path] = value
    return list(owners)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_orbit(args):
    from . import classical
    from .model import (HamiltonianKind, PhasePoint, SeparableHamiltonian,
                        energy)
    model = SeparableHamiltonian(HamiltonianKind(args.model), args.a)
    explicit = args.x0 is not None or args.k0 is not None
    eps_values = [None] if explicit else args.eps or [2.5]
    for eps, path in zip(eps_values,
                         _sweep_paths(args.out, "eps", eps_values)):
        if explicit:
            start = PhasePoint(args.x0 or 0.0, args.k0 or 0.0)
            eps = energy(model, start.x, start.k)
        else:
            start = classical.section_start(model, eps)
        period, traj = classical.measured_orbit(model, start, args.dt,
                                                args.periods)
        export_table(traj, args.format, path)
        _say(model=args.model, eps=eps, period=period,
             max_energy_drift=traj.max_drift, rows=len(traj), out=path)
        del traj  # free this member's orbit before the next one integrates
    return _EXIT_OK


def _require_tau_max(tau_max):
    """--tau-max is 0 (the subcommand's default span) or a finite span."""
    if not 0.0 <= tau_max < math.inf:
        raise DomainError(f"--tau-max {tau_max}: require 0 (the default "
                          f"span) or 0 < duration < inf")


def cmd_analytic(args):
    import numpy as np

    from . import classical
    _require_tau_max(args.tau_max)
    _require_rows(args.samples)
    paths = _sweep_paths(args.out, "eps", args.eps)
    summaries = []
    # every energy's domain is checked before the first file is written
    for closed, path in zip([classical.toda_closed_period(eps)
                             for eps in args.eps], paths):
        tau_max = args.tau_max if args.tau_max > 0 else closed.period_ode
        taus = np.linspace(0.0, tau_max, args.samples)
        ys, zs = classical.toda_species_series(closed.eps, taus)
        export_table(column_table({"tau": taus, "T": 0.5 * (ys + zs),
                                   "y": ys, "z": zs}), args.format, path)
        # the sn argument is the parameter kappa, and the table is the
        # closed form itself
        summary = {**vars(closed), "convention": "parameter",
                   "t_source": "analytic"}
        summaries.append(summary)
        _say(out=path, **summary)
    stem, _ = os.path.splitext(args.out)
    export_table(column_table({key: [s[key] for s in summaries]
                               for key in summaries[0]}),
                 "json", stem + "_summary.json")
    return _EXIT_OK


_THERMO_COLUMNS = ("a", "beta", "z", "energy", "heat_capacity", "valid")


def cmd_thermo(args):
    from .scalar import linspace
    from .thermo import ThermalEnsembleParams, beta_star, observables
    order = args.order

    def thermo_row(a, beta):
        """One table row; beyond beta* at order h2 the row is flagged
        valid=0, any other domain failure names the row and stops the
        sweep."""
        try:
            obs = observables(ThermalEnsembleParams(beta, a, order))
        except ValidityError:
            if order == "classical":
                raise
            return a, beta, 0.0, 0.0, 0.0, 0
        except DomainError as exc:
            raise DomainError(f"row beta = {beta!r}, a = {a!r}: "
                              f"{exc}") from exc
        return (a, beta, obs.z0 if order == "classical" else obs.z_st,
                obs.energy, obs.heat_capacity, 1)

    def star_or_none(a):
        """beta*(a); None where it is out of float reach at classical
        order, whose rows do not depend on it.  At order h2 the failure
        propagates, before any file is written."""
        try:
            return beta_star(a)
        except NumericalError:
            if order == "h2":
                raise
            return None

    a_values = args.a or [1.0]
    if not 0.0 < args.beta_min < args.beta_max < math.inf:
        raise DomainError("need 0 < --beta-min < --beta-max < inf")
    _require_rows(args.steps * len(a_values))
    betas = linspace(args.beta_min, args.beta_max, args.steps)
    rows = [thermo_row(a, beta) for a in a_values for beta in betas]
    stars = [star_or_none(a) for a in a_values]
    if not any(row[-1] for row in rows):  # h2 only, so no beta* is None
        raise DomainError(
            "the whole requested beta range lies outside the validity domain; "
            + ", ".join(f"beta*(a={a}) = {star:.4f}"
                        for a, star in zip(a_values, stars)))
    export_table(column_table(dict(zip(_THERMO_COLUMNS, zip(*rows)))),
                 args.format, args.out)
    _say(order=order, rows=len(rows), out=args.out)
    for a, star in zip(a_values, stars):
        _say(**{f"beta_star_a{format(a, 'g')}":
                "unavailable" if star is None else star})
    return _EXIT_OK


def cmd_field(args):
    from .fieldgrid import GridSpec, sample_field
    spec = GridSpec(*args.bbox, args.grid, args.grid)
    # only the requested ensemble's module is loaded
    if args.ensemble == "gaussian":
        from .gaussian import GaussianEnsembleParams
        sweep = args.alpha or [1.0]
        name = "alpha"

        def make(v):
            return GaussianEnsembleParams(v, args.a)
    else:
        from .thermo import ThermalEnsembleParams
        sweep = args.beta or [1.0]
        name = "beta"

        def make(v):
            return ThermalEnsembleParams(v, args.a, args.order)

    for value, path in zip(sweep, _sweep_paths(args.out, name, sweep)):
        grid = sample_field(make(value), args.quantity, spec)
        export_table(grid, args.format, path)
        _say(ensemble=args.ensemble, **{name: value}, quantity=args.quantity,
             rows=spec.nx * spec.nk, out=path)
    return _EXIT_OK


def cmd_stagnation(args):
    import json

    import numpy as np

    from .gaussian import GaussianEnsembleParams, find_stagnation_points
    bbox = tuple(args.bbox)
    reach = max(abs(v) for v in bbox)
    # both sweep ends are built, so every member's alpha is valid
    for alpha in (args.alpha_min, args.alpha_max):
        GaussianEnsembleParams(alpha, args.a)
    _require_rows(args.alpha_steps)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    # the trust region shrinks as alpha grows: the largest member that runs
    # bounds it (one step runs --alpha-min alone)
    top = GaussianEnsembleParams(float(alphas.max()), args.a)
    if reach > top.trust_limit():
        raise DomainError(
            f"bbox reach {reach} exceeds the trust region |x|,|k| <= "
            f"{top.trust_limit():.4f} at alpha = {top.alpha}")
    if args.emit_envelope:
        if not args.envelope_threshold > 0.0:
            raise DomainError(f"--envelope-threshold "
                              f"{args.envelope_threshold}: require a "
                              f"positive speed bound, else the envelope is "
                              f"empty")
        from .fieldgrid import GridSpec, sample_field
        spec = GridSpec(*bbox, args.grid, args.grid)
        xs, ks = spec.x_nodes(), spec.k_nodes()
    records = []
    for alpha in alphas:
        params = GaussianEnsembleParams(float(alpha), args.a)
        points = find_stagnation_points(params, bbox)
        rec = {"alpha": float(alpha), "points": [p.row() for p in points]}
        if args.emit_envelope:
            wgrid = sample_field(params, "w", spec)
            mag = np.hypot(wgrid.values[..., 0], wgrid.values[..., 1])
            mask = (mag < args.envelope_threshold) & wgrid.valid
            jj, ii = np.nonzero(mask)
            rec["envelope_nodes"] = [[float(xs[i]), float(ks[j])]
                                     for j, i in zip(jj, ii)]
        records.append(rec)
        _say(alpha=float(alpha), stagnation_count=len(points))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    _say(out=args.out)
    return _EXIT_OK


def cmd_trajectory(args):
    import numpy as np

    from . import classical, gaussian
    from .model import (HamiltonianKind, PhasePoint, SeparableHamiltonian,
                        energy)
    _require_tau_max(args.tau_max)
    a_values = args.a or [1.0]
    for a, path in zip(a_values, _sweep_paths(args.out, "a", a_values)):
        params = gaussian.GaussianEnsembleParams(args.alpha, a)
        start = PhasePoint(args.x0, args.k0)
        at_equilibrium = start.x == 0.0 and start.k == 0.0
        # --tau-max, else ten exact periods, else ten time units at the
        # equilibrium, which has no period
        if args.tau_max > 0 or at_equilibrium:
            span = args.tau_max or 10.0
        else:
            model = SeparableHamiltonian(HamiltonianKind.TODA, a)
            span = 10.0 * classical.period(model,
                                           energy(model, start.x, start.k))
        q, c = gaussian.integrate_quantum_trajectory(params, start, args.dt,
                                                     span)
        table = column_table({
            "kind": np.repeat(["quantum", "classical"], [len(q), len(c)]),
            **{n: np.concatenate([getattr(q, n), getattr(c, n)])
               for n in ("tau", "x", "k", "y", "z")}})
        summary = {}
        if not at_equilibrium:
            # before the export: a member without a return writes no file
            tq, dq = classical.return_to_start(q)
            tc, dc = classical.return_to_start(c)
            summary = dict(quantum_return_time=tq, quantum_closure=dq,
                           classical_return_time=tc, classical_closure=dc,
                           dephasing=abs(tq - tc))
        export_table(table, args.format, path)
        _say(alpha=args.alpha, a=a, rows=len(table), out=path)
        _say(**summary)
        del q, c, table  # free this member's rows before the next one
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent notation
    (``--dt -1e-3``) and ``-inf``, ``-infinity`` and ``-nan`` in any case,
    as float() reads them, as values; argparse alone takes those for option
    names and only passes ``-1`` and ``-0.5``.  Subparsers inherit the
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)


def _positive_int(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _table_output(p, default):
    p.add_argument("--out", default=default, help="output table path")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")


def build_parser():
    parser = _Parser(
        prog="wignerflow",
        description="Phase-space dynamics of prey-predator Hamiltonians: "
                    "classical orbits, thermal and Gaussian Wigner flows.")
    parser.add_argument("--selftest", action="store_true",
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("orbit", formatter_class=fmt,
                       help="tabulate a classical orbit over whole periods "
                            "(Toda in closed form, LV by RK4) and print "
                            "its exact period")
    p.add_argument("--model", choices=("toda", "lv"), default="toda",
                   help="Hamiltonian family")
    p.add_argument("--a", type=float, default=1.0,
                   help="anisotropy parameter")
    p.add_argument("--eps", type=float, action="append",
                   help="orbit energy, repeatable for sweeps; "
                        "requires eps > 1 + a")
    p.add_argument("--x0", type=float, default=None,
                   help="explicit start x (overrides --eps)")
    p.add_argument("--k0", type=float, default=None,
                   help="explicit start k (overrides --eps)")
    p.add_argument("--dt", type=float, default=1e-3,
                   help="time step of the rows (the LV integration step)")
    p.add_argument("--periods", type=float, default=3.0,
                   help="duration in periods")
    _table_output(p, "orbit.csv")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("analytic", formatter_class=fmt,
                       help="closed-form isotropic Toda species solution "
                            "and period summary")
    p.add_argument("--eps", type=float, action="append", required=True,
                   # the bound is classical.ISOTROPIC_EPS_MAX
                   help="energy, 2 < eps <= 1e+150, repeatable for sweeps")
    p.add_argument("--tau-max", type=float, default=0.0,
                   help="time span; 0 means one period")
    p.add_argument("--samples", type=_positive_int, default=1000,
                   help="rows in the table")
    _table_output(p, "analytic.csv")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("thermo", formatter_class=fmt,
                       help="thermal-ensemble partition function, internal "
                            "energy, heat capacity")
    p.add_argument("--a", type=float, action="append",
                   help="anisotropy, repeatable")
    p.add_argument("--beta-min", type=float, default=0.05,
                   help="lowest inverse temperature")
    p.add_argument("--beta-max", type=float, default=4.5,
                   help="highest inverse temperature")
    p.add_argument("--steps", type=_positive_int, default=90,
                   help="rows per anisotropy value")
    p.add_argument("--order", choices=("classical", "h2"), default="classical",
                   help="expansion order (h2 = quadratic-order corrected)")
    _table_output(p, "thermo.csv")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("field", formatter_class=fmt,
                       help="sample a flow quantity on a grid")
    p.add_argument("--ensemble", choices=("gaussian", "thermal"),
                   default="gaussian", help="ensemble family")
    p.add_argument("--alpha", type=float, action="append",
                   help="Gaussian spread, repeatable")
    p.add_argument("--beta", type=float, action="append",
                   help="inverse temperature, repeatable")
    p.add_argument("--a", type=float, default=1.0, help="anisotropy")
    p.add_argument("--order", choices=("classical", "h2"), default="h2",
                   help="thermal expansion order")
    p.add_argument("--quantity", default="divj",
                   # the sorted GRID_QUANTITIES keys of gaussian and thermo
                   help="gaussian: divj|divw|g|j|jk|jx|vort|w|wk|wx; "
                        "thermal: divw|j|jk|jx|w0|w_st2")
    p.add_argument("--bbox", type=float, nargs=4,
                   default=[-2.0, 2.0, -2.0, 2.0],
                   metavar=("XLO", "XHI", "KLO", "KHI"),
                   help="sampling window")
    p.add_argument("--grid", type=int, default=101,
                   help="nodes per axis")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _table_output(p, "field.csv")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("stagnation", formatter_class=fmt,
                       help="stagnation points and circulation classes "
                            "over an alpha sweep")
    p.add_argument("--a", type=float, default=4.0, help="anisotropy")
    p.add_argument("--alpha-min", type=float, default=0.25,
                   help="lowest Gaussian spread")
    p.add_argument("--alpha-max", type=float, default=2.7,
                   help="highest Gaussian spread")
    p.add_argument("--alpha-steps", type=_positive_int, default=10,
                   help="sweep members")
    p.add_argument("--bbox", type=float, nargs=4,
                   default=[-2.0, 2.0, -2.0, 2.0],
                   metavar=("XLO", "XHI", "KLO", "KHI"),
                   help="search window; must stay inside the trust region")
    p.add_argument("--grid", type=int, default=200,
                   help="nodes per axis of the --emit-envelope grid")
    p.add_argument("--emit-envelope", action="store_true",
                   help="also list grid nodes with |w| below the threshold")
    p.add_argument("--envelope-threshold", type=float, default=0.08,
                   help="speed bound defining the envelope")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out", default="stagnation.json",
                   help="output JSON path")
    p.set_defaults(func=cmd_stagnation)

    p = sub.add_parser("trajectory", formatter_class=fmt,
                       help="semiclassical trajectory of the quantum "
                            "velocity field (RK4) plus its classical Toda "
                            "companion (closed form)")
    p.add_argument("--alpha", type=float, default=1.0, help="Gaussian spread")
    p.add_argument("--a", type=float, action="append",
                   help="anisotropy, repeatable")
    p.add_argument("--x0", type=float, default=0.6, help="start position")
    p.add_argument("--k0", type=float, default=0.0, help="start momentum")
    p.add_argument("--dt", type=float, default=2e-3,
                   help="time step of the rows (the quantum RK4 step)")
    p.add_argument("--tau-max", type=float, default=0.0,
                   help="time span; 0 means ten classical periods")
    _table_output(p, "trajectory.csv")
    p.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.  Called without argv,
    as the ``wignerflow`` script and ``python -m wignerflow.cli`` call it,
    it reads sys.argv and freezes the heap once more when the subcommand
    has returned (see the module docstring); main(argv) freezes nothing."""
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    gc.freeze()
    return code


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            from .selftest import run
            checks = run()
            for name, passed in checks.items():
                _say(**{f"selftest_{name}": "pass" if passed else "fail"})
            ok = all(checks.values())
            _say(selftest="pass" if ok else "fail")
            return _EXIT_OK if ok else _EXIT_NUMERICAL
        if not getattr(args, "func", None):
            parser.print_help()
            return _EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


# the last statement of the module body, so that everything above is frozen
# (see the module docstring)
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
