"""Uniform phase-space grids of flow quantities, zero-contour extraction,
and CSV/JSON serialization.

Every sampled quantity is a closed form built from 1-D factors f(x) g(k) of
the separable Hamiltonian, so a grid is one numpy broadcast of its kernel
over the x nodes (a row) and the k nodes (a column), with no per-row loop.
Grids are row-major with x fastest: file rows loop k in the outer loop and x
in the inner one, so byte-identical output is reproducible across runs.
Floats are written with 17 significant digits, enough to round-trip doubles
exactly.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import gaussian, thermo
from .classical import Trajectory
from .errors import UsageError
from .gaussian import GaussianEnsembleParams, StagnationPoint
from .thermo import ThermalEnsembleParams

__all__ = [
    "GridSpec",
    "FieldGrid",
    "QUANTITIES",
    "sample_field",
    "zero_contours",
    "export_table",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling window: inclusive ranges and node counts."""

    x_lo: float
    x_hi: float
    k_lo: float
    k_hi: float
    nx: int
    nk: int

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.k_lo < self.k_hi):
            raise UsageError("grid ranges must satisfy lo < hi")
        if self.nx < 2 or self.nk < 2:
            raise UsageError("grids need at least 2 nodes per axis")

    def x_nodes(self):
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def k_nodes(self):
        return np.linspace(self.k_lo, self.k_hi, self.nk)


@dataclass
class FieldGrid:
    """Sampled values on a GridSpec; vector quantities have a trailing axis
    of size 2.  ``valid`` (when present) flags nodes inside the velocity
    trust region; flagged-out nodes hold zeros, never silent garbage."""

    spec: GridSpec
    quantity: str
    values: np.ndarray
    valid: np.ndarray | None = None

    @property
    def is_vector(self):
        return self.values.ndim == 3


# quantity -> (closed form f(params, x, k), component, needs trust mask) per
# ensemble family; component None is a scalar form, 0 or 1 picks one entry
# of a vector pair, and _VECTOR keeps both
_VECTOR = "xk"
_GAUSSIAN_QUANTITIES = {
    "g": (gaussian.gaussian_w_xy, None, False),
    "jx": (gaussian.currents_closed_xy, 0, False),
    "jk": (gaussian.currents_closed_xy, 1, False),
    "j": (gaussian.currents_closed_xy, _VECTOR, False),
    "divj": (gaussian.stationarity_div_j_xy, None, False),
    "wx": (gaussian.velocity_w_xy, 0, True),
    "wk": (gaussian.velocity_w_xy, 1, True),
    "w": (gaussian.velocity_w_xy, _VECTOR, True),
    "divw": (gaussian.liouville_div_w_xy, None, True),
    "vort": (gaussian.vorticity_xy, None, True),
}
_THERMAL_QUANTITIES = {
    "w0": (thermo.w0_xy, None, False),
    "w_st2": (thermo.w_st2_xy, None, False),
    "jx": (thermo.currents_td_xy, 0, False),
    "jk": (thermo.currents_td_xy, 1, False),
    "j": (thermo.currents_td_xy, _VECTOR, False),
    "divw": (thermo.div_w_td_xy, None, False),
}

QUANTITIES = {
    "gaussian": tuple(sorted(_GAUSSIAN_QUANTITIES)),
    "thermal": tuple(sorted(_THERMAL_QUANTITIES)),
}


def _evaluate(entry, params, x, k):
    """One table entry's closed form at nodes (x, k); vectors stack last."""
    form, component, _ = entry
    out = form(params, x, k)
    if component is None:
        return out
    if component == _VECTOR:
        return np.stack(out, axis=-1)
    return out[component]


def sample_field(params, quantity, spec, threads=None):
    """Sample one quantity over the grid as one broadcast evaluation.

    ``params`` selects the ensemble family (GaussianEnsembleParams or
    ThermalEnsembleParams).  Every quantity is a closed form in 1-D factors
    f(x) g(k), so the kernels see the x nodes as a row and the k nodes as a
    column and each 1-D factor is evaluated nx + nk times.  Velocity-family
    gaussian quantities are masked to the trust region instead of
    extrapolated; the region is a box, so only its sub-grid is evaluated.
    ``threads`` is accepted for compatibility and has no effect.
    """
    if isinstance(params, GaussianEnsembleParams):
        table = _GAUSSIAN_QUANTITIES
    elif isinstance(params, ThermalEnsembleParams):
        table = _THERMAL_QUANTITIES
    else:
        raise UsageError("params must be Gaussian or Thermal ensemble parameters")
    if quantity not in table:
        raise UsageError(
            f"quantity {quantity!r} is not defined for this ensemble; "
            f"choose from {', '.join(sorted(table))}")
    entry = table[quantity]
    _, component, needs_mask = entry
    xs = spec.x_nodes()
    ks = spec.k_nodes()
    is_vector = component == _VECTOR
    shape = (spec.nk, spec.nx, 2) if is_vector else (spec.nk, spec.nx)
    values = np.zeros(shape)
    if not needs_mask:
        values[...] = _evaluate(entry, params, xs[None, :], ks[:, None])
        return FieldGrid(spec=spec, quantity=quantity, values=values)
    lim = params.trust_limit()
    in_x = np.abs(xs) <= lim
    in_k = np.abs(ks) <= lim
    values[np.ix_(in_k, in_x)] = _evaluate(entry, params, xs[in_x][None, :],
                                           ks[in_k][:, None])
    valid = in_k[:, None] & in_x[None, :]
    return FieldGrid(spec=spec, quantity=quantity, values=values, valid=valid)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

def _edge_point(xs, ks, values, edge):
    """Linear-interpolation crossing point on one grid edge.

    ``edge`` = (i, j, 'h'|'v'): horizontal edges join (i,j)-(i+1,j), vertical
    (i,j)-(i,j+1), in node indices (i along x, j along k).
    """
    i, j, kind = edge
    v0 = values[j, i]
    if kind == "h":
        v1 = values[j, i + 1]
        t = 0.5 if v1 == v0 else v0 / (v0 - v1)
        return (xs[i] + t * (xs[i + 1] - xs[i]), ks[j])
    v1 = values[j + 1, i]
    t = 0.5 if v1 == v0 else v0 / (v0 - v1)
    return (xs[i], ks[j] + t * (ks[j + 1] - ks[j]))


_SEGMENT_TABLE = {
    # cell corner order: (i,j) (i+1,j) (i+1,j+1) (i,j+1); edges B,R,T,L
    1: [("L", "B")], 2: [("B", "R")], 3: [("L", "R")], 4: [("R", "T")],
    6: [("B", "T")], 7: [("L", "T")], 8: [("T", "L")],
    9: [("T", "B")], 11: [("T", "R")], 12: [("R", "L")],
    13: [("R", "B")], 14: [("B", "L")],
}


def zero_contours(grid):
    """Marching-squares polylines of the zero level of a scalar grid.

    Nodes with value exactly zero are classed with the positive side; the
    ambiguous saddle cells are split by the cell-center average.  Polylines
    are either closed (first point repeated) or terminate on the boundary,
    and their order is deterministic.
    """
    if grid.is_vector:
        raise UsageError("zero_contours requires a scalar grid")
    values = grid.values
    xs = grid.spec.x_nodes()
    ks = grid.spec.k_nodes()
    nk, nx = values.shape
    segments = []  # pairs of edge keys
    for j in range(nk - 1):
        for i in range(nx - 1):
            c0 = values[j, i] >= 0.0
            c1 = values[j, i + 1] >= 0.0
            c2 = values[j + 1, i + 1] >= 0.0
            c3 = values[j + 1, i] >= 0.0
            idx = (c0 * 1) | (c1 * 2) | (c2 * 4) | (c3 * 8)
            if idx in (0, 15):
                continue
            local = {"B": (i, j, "h"), "T": (i, j + 1, "h"),
                     "L": (i, j, "v"), "R": (i + 1, j, "v")}
            if idx in (5, 10):
                center = 0.25 * (values[j, i] + values[j, i + 1]
                                 + values[j + 1, i + 1] + values[j + 1, i])
                if idx == 5:
                    pairs = ([("L", "T"), ("B", "R")] if center >= 0.0
                             else [("L", "B"), ("R", "T")])
                else:
                    pairs = ([("B", "L"), ("T", "R")] if center >= 0.0
                             else [("B", "R"), ("T", "L")])
            else:
                pairs = _SEGMENT_TABLE[idx]
            for e0, e1 in pairs:
                segments.append((local[e0], local[e1]))
    # stitch segments sharing edge keys into chains
    adjacency = {}
    for seg in segments:
        a, b = seg
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    unused = {tuple(sorted((a, b))) for a, b in segments}

    def take(a, b):
        unused.discard(tuple(sorted((a, b))))

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for cand in adjacency.get(current, ()):
                if tuple(sorted((current, cand))) in unused:
                    nxt = cand
                    break
            if nxt is None:
                return chain
            take(current, nxt)
            chain.append(nxt)
            current = nxt

    endpoints = sorted({k for k, nbrs in adjacency.items()
                        if len(nbrs) == 1})
    polylines = []
    for start in endpoints:
        if any(tuple(sorted((start, n))) in unused
               for n in adjacency.get(start, ())):
            chain = walk(start)
            polylines.append(chain)
    # whatever remains forms closed loops
    while unused:
        start = sorted(unused)[0][0]
        chain = walk(start)
        chain.append(chain[0])  # close the loop
        polylines.append(chain)
    out = []
    for chain in polylines:
        pts = np.array([_edge_point(xs, ks, values, e) for e in chain])
        out.append(pts)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def _grid_records(grid):
    xs = grid.spec.x_nodes()
    ks = grid.spec.k_nodes()
    has_mask = grid.valid is not None
    for j in range(grid.spec.nk):
        for i in range(grid.spec.nx):
            rec = {"x": xs[i], "k": ks[j]}
            if grid.is_vector:
                rec["vx"] = grid.values[j, i, 0]
                rec["vk"] = grid.values[j, i, 1]
            else:
                rec["value"] = grid.values[j, i]
            if has_mask:
                rec["valid"] = int(grid.valid[j, i])
            yield rec


def _trajectory_records(traj):
    has_res = traj.energy_residual is not None
    for i in range(len(traj)):
        rec = {"tau": traj.tau[i], "x": traj.x[i], "k": traj.k[i],
               "y": traj.y[i], "z": traj.z[i]}
        if has_res:
            rec["energy_residual"] = traj.energy_residual[i]
        yield rec


def _stagnation_records(points):
    for s in points:
        yield {"x": s.location.x, "k": s.location.k, "residual": s.residual,
               "circulation": s.circulation, "class": s.kind}


def as_records(obj):
    """Normalize a grid / trajectory / stagnation list / record list into a
    list of flat dictionaries."""
    if isinstance(obj, FieldGrid):
        return list(_grid_records(obj))
    if isinstance(obj, Trajectory):
        return list(_trajectory_records(obj))
    if isinstance(obj, (list, tuple)):
        if all(isinstance(s, StagnationPoint) for s in obj) and obj:
            return list(_stagnation_records(obj))
        if all(isinstance(r, dict) for r in obj):
            return list(obj)
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def export_table(obj, fmt, path):
    """Write a grid, trajectory, or record list as CSV or JSON.

    CSV carries one header row naming the columns and 17-significant-digit
    floats (exact round-trip); JSON mirrors the same records as an array of
    objects.
    """
    records = as_records(obj)
    if fmt not in ("csv", "json"):
        raise UsageError("format must be 'csv' or 'json'")
    try:
        if fmt == "csv":
            _write_csv(records, path)
        else:
            _write_json(records, path)
    except OSError as exc:
        raise IOError(f"failed writing {path}: {exc}") from exc


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt(v)


def _write_csv(records, path):
    if not records:
        raise UsageError("refusing to write an empty table")
    header = list(records[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rec in records:
            fh.write(",".join(_cell(rec[k]) for k in header) + "\n")


def _json_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _write_json(records, path):
    data = [{k: _json_value(v) for k, v in rec.items()} for rec in records]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
