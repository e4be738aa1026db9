"""Uniform phase-space grids of flow quantities, zero-contour extraction,
and CSV/JSON serialization.

Every sampled quantity is a closed form built from 1-D factors f(x) g(k) of
the separable Hamiltonian, so a grid is one numpy broadcast of its kernel
over the x nodes (a row) and the k nodes (a column), with no per-row loop.
Grids are row-major with x fastest: file rows loop k in the outer loop and x
in the inner one, so byte-identical output is reproducible across runs.
CSV floats carry 17 significant digits and JSON floats their shortest repr;
both round-trip doubles exactly.
"""

import json
from dataclasses import dataclass
from itertools import repeat

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
    "Table",
    "column_table",
    "as_table",
    "export_table",
]

# nodes one grid may hold; a larger grid is refused before any allocation
MAX_GRID_NODES = 4_000_000


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
        if self.nx * self.nk > MAX_GRID_NODES:
            raise UsageError(f"{self.nx} x {self.nk} grid nodes exceed the "
                             f"work budget of {MAX_GRID_NODES} nodes")

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
    "g": (gaussian.gaussian_w, None, False),
    "jx": (gaussian.currents_closed, 0, False),
    "jk": (gaussian.currents_closed, 1, False),
    "j": (gaussian.currents_closed, _VECTOR, False),
    "divj": (gaussian.stationarity_div_j, None, False),
    "wx": (gaussian.velocity_w, 0, True),
    "wk": (gaussian.velocity_w, 1, True),
    "w": (gaussian.velocity_w, _VECTOR, True),
    "divw": (gaussian.liouville_div_w, None, True),
    "vort": (gaussian.vorticity, None, True),
}
_THERMAL_QUANTITIES = {
    "w0": (thermo.w0, None, False),
    "w_st2": (thermo.w_st2, None, False),
    "jx": (thermo.currents_td, 0, False),
    "jk": (thermo.currents_td, 1, False),
    "j": (thermo.currents_td, _VECTOR, False),
    "divw": (thermo.div_w_td, None, False),
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

# case -> segments as pairs of cell edges (di, dj, h|v) relative to the cell
# corner (i, j); h joins (i,j)-(i+1,j) and v joins (i,j)-(i,j+1).  Corner
# bits: (i,j) 1, (i+1,j) 2, (i+1,j+1) 4, (i,j+1) 8.  A saddle cell (5, 10)
# whose centre average is negative has case + 16.
_B, _R, _T, _L = (0, 0, "h"), (1, 0, "v"), (0, 1, "h"), (0, 0, "v")
_SEGMENT_TABLE = {
    1: [(_L, _B)], 2: [(_B, _R)], 3: [(_L, _R)], 4: [(_R, _T)],
    6: [(_B, _T)], 7: [(_L, _T)], 8: [(_T, _L)],
    9: [(_T, _B)], 11: [(_T, _R)], 12: [(_R, _L)],
    13: [(_R, _B)], 14: [(_B, _L)],
    5: [(_L, _T), (_B, _R)], 21: [(_L, _B), (_R, _T)],
    10: [(_B, _L), (_T, _R)], 26: [(_B, _R), (_T, _L)],
}


def _edge_point(xs, ks, values, edge):
    """Linear-interpolation crossing point on one grid edge (i, j, h|v)."""
    i, j, kind = edge
    v0 = values[j, i]
    if kind == "h":
        v1 = values[j, i + 1]
        t = 0.5 if v1 == v0 else v0 / (v0 - v1)
        return (xs[i] + t * (xs[i + 1] - xs[i]), ks[j])
    v1 = values[j + 1, i]
    t = 0.5 if v1 == v0 else v0 / (v0 - v1)
    return (xs[i], ks[j] + t * (ks[j + 1] - ks[j]))


def zero_contours(grid):
    """Marching-squares polylines of the zero level of a scalar grid.

    Nodes with value exactly zero are classed with the positive side; the
    ambiguous saddle cells are split by the cell-center average.  All cells
    are classified at once; the crossed ones are stitched in row-major order
    (k outer, x inner).  Polylines are either closed (first point repeated)
    or terminate on the boundary, and their order is deterministic.
    """
    if grid.is_vector:
        raise UsageError("zero_contours requires a scalar grid")
    values = grid.values
    c = values >= 0.0
    cases = c[:-1, :-1] * 1 | c[:-1, 1:] * 2 | c[1:, 1:] * 4 | c[1:, :-1] * 8
    saddle = (cases == 5) | (cases == 10)
    if saddle.any():
        center = 0.25 * (values[:-1, :-1] + values[:-1, 1:] + values[1:, 1:]
                         + values[1:, :-1])
        cases[saddle & ~(center >= 0.0)] += 16
    jj, ii = np.nonzero((cases != 0) & (cases != 15))
    adjacency = {}  # edge -> edges it shares a segment with
    unused = set()
    for j, i, case in zip(jj.tolist(), ii.tolist(), cases[jj, ii].tolist()):
        for (a0, b0, ka), (a1, b1, kb) in _SEGMENT_TABLE[case]:
            a, b = (i + a0, j + b0, ka), (i + a1, j + b1, kb)
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
            unused |= {(a, b), (b, a)}  # both senses of each segment

    def walk(current):
        chain = [current]
        while True:
            for cand in adjacency[current]:
                if (current, cand) in unused:
                    break
            else:
                return chain
            unused.difference_update({(current, cand), (cand, current)})
            chain.append(cand)
            current = cand

    polylines = [walk(e) for e in sorted(adjacency) if len(adjacency[e]) == 1
                 and (e, adjacency[e][0]) in unused]
    while unused:  # whatever remains forms closed loops
        chain = walk(min(unused)[0])
        polylines.append(chain + chain[:1])
    xs, ks = grid.spec.x_nodes(), grid.spec.k_nodes()
    return [np.array([_edge_point(xs, ks, values, e) for e in chain])
            for chain in polylines]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 512
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class Table:
    """Named columns, written one block of at most ``_BLOCK_ROWS`` rows at a
    time: ``blocks(cells)`` yields per block a list of cell sequences that
    stand side by side in column order, as ``cells`` returns them for a list
    of the block's equally long 1-D numpy columns (float, integer, bool or
    str).  A plain class: a dataclass would cost every process about a
    millisecond at import."""

    def __init__(self, names, rows, blocks):
        self.names, self.rows, self.blocks = tuple(names), rows, blocks

    def __len__(self):
        return self.rows

    def records(self):
        """The rows as dicts of Python values, for nested JSON documents."""
        return [dict(zip(self.names, row))
                for cols in self.blocks(_block_values) for row in zip(*cols)]


def column_table(columns):
    """Table of a dict of equally long 1-D columns; each column's numpy
    dtype decides how its cells are written."""
    cols = [np.asarray(c) for c in columns.values()]
    rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != rows or c.dtype.kind not in "biufU"
           for c in cols):
        raise UsageError("columns must be equally long 1-D numbers or strings")

    def blocks(cells):
        for lo in range(0, rows, _BLOCK_ROWS):
            yield cells([c[lo:lo + _BLOCK_ROWS] for c in cols])

    return Table(tuple(columns), rows, blocks)


def _grid_table(grid):
    """Blocks of whole grid rows (fixed k), or of pieces of one grid row
    when it is longer than a block; each axis is formatted once."""
    spec, v = grid.spec, grid.values
    comps = [v[..., 0], v[..., 1]] if grid.is_vector else [v]
    names = ("x", "k") + (("vx", "vk") if grid.is_vector else ("value",))
    if grid.valid is not None:
        comps.append(grid.valid)
        names += ("valid",)

    def blocks(cells):
        rows = max(1, _BLOCK_ROWS // spec.nx)
        width = min(spec.nx, _BLOCK_ROWS)
        xs = spec.x_nodes()
        x_cells = cells([np.tile(xs, rows)])[0]
        k_cells = cells([spec.k_nodes()])[0]
        for j0 in range(0, spec.nk, rows):
            for i0 in range(0, spec.nx, width):
                part = (slice(j0, j0 + rows), slice(i0, i0 + width))
                k = _repeat_cells(k_cells[part[0]], len(xs[part[1]]))
                yield [x_cells[i0:i0 + len(k)], k,
                       *cells([c[part].reshape(-1) for c in comps])]

    return Table(names, spec.nx * spec.nk, blocks)


def as_table(obj):
    """The Table of a grid, trajectory, stagnation list or Table."""
    if isinstance(obj, Table):
        return obj
    if isinstance(obj, FieldGrid):
        return _grid_table(obj)
    if isinstance(obj, Trajectory):
        names = ("tau", "x", "k", "y", "z", "energy_residual")
        return column_table({n: getattr(obj, n) for n in names
                             if getattr(obj, n) is not None})
    if (isinstance(obj, (list, tuple))
            and all(isinstance(s, StagnationPoint) for s in obj)):
        return column_table({
            "x": [s.location.x for s in obj], "k": [s.location.k for s in obj],
            "residual": [s.residual for s in obj],
            "circulation": [s.circulation for s in obj],
            "class": [s.kind for s in obj]})
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def _values(col):
    return (col.astype(int) if col.dtype.kind == "b" else col).tolist()


def _block_values(cols):
    return [_values(c) for c in cols]


def _repeat_cells(cells, n):
    """Each cell n times over: rows of a slot array, or list items."""
    if isinstance(cells, np.ndarray):
        return np.repeat(cells, n, axis=0)
    return [cell for cell in cells for _ in range(n)]


# ---------------------------------------------------------------------------
# CSV cells: each cell's text in a fixed-width slot of bytes, _PAD after it
# and a separator in its last byte; the slots of a block stand side by side
# and _PAD is dropped when the block is joined.  0xFF is no byte of UTF-8
# text, so string cells keep every byte.  Floats carry 17 significant
# digits, as format(x, ".17g") writes them.
# ---------------------------------------------------------------------------

_PAD = 0xFF


def _formatted_slots(values, width=None):
    """Float slots written by format() itself, one cell at a time."""
    return _text_slots(np.array(
        list(map(format, values.tolist(), repeat(".17g")))), width)


def _text_slots(text, width=None):
    """(len(text), width) uint8 of a 1-D str array: each cell's UTF-8
    bytes, _PAD after them and a comma in the last byte; width defaults to
    the longest cell plus one."""
    text = np.ascontiguousarray(text)
    codes = text.view(np.uint32).reshape(len(text), -1)
    if codes.max(initial=0) < 128:  # ASCII: one byte per code point
        data, lengths = codes, np.char.str_len(text)
    else:
        encoded = [c.encode() for c in text.tolist()]
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        data = np.array(encoded, dtype=bytes)
        data = data.view(np.uint8).reshape(len(text), -1)
    slots = np.full((len(text), width or data.shape[1] + 1), _PAD, np.uint8)
    slots[:, :data.shape[1]] = np.where(
        np.arange(data.shape[1]) < lengths[:, None], data, _PAD)
    slots[:, -1] = ord(",")
    return slots


def _str_slots(col):
    """Slots of an integer, bool or str column, each cell as str() writes
    it (a bool as 0 or 1)."""
    if col.dtype.kind == "b":
        slots = np.full((len(col), 2), ord(","), np.uint8)
        slots[:, 0] = col.view(np.uint8) + 48
        return slots
    return _text_slots(col.astype(str, copy=False))


def _csv_cells(cols, float_slots):
    """One block's columns as slot arrays that join side by side into its
    rows; all its float cells are written by one float_slots call, and a
    block of float columns only is one array."""
    is_float = [c.dtype.kind == "f" for c in cols]
    if not any(is_float):
        return [_str_slots(c) for c in cols]
    floats = np.stack([c for c, f in zip(cols, is_float) if f], 1,
                      dtype=float).reshape(-1)
    slots = float_slots(floats)
    width = slots.shape[1]
    slots = slots.reshape(len(cols[0]), -1)
    if all(is_float):
        return [slots]
    per_column = iter(slots.reshape(len(cols[0]), -1, width)
                      .transpose(1, 0, 2))
    return [next(per_column) if f else _str_slots(c)
            for c, f in zip(cols, is_float)]


def _json_cells(col):
    """Cells as json writes them: float repr, NaN, Infinity, ints, strings."""
    if col.dtype.kind == "f":
        cells = list(map(float.__repr__, col.tolist()))
        if np.isfinite(col).all():
            return cells
        return [_JSON_NONFINITE.get(c, c) for c in cells]
    return list(map(json.dumps if col.dtype.kind == "U" else str,
                    _values(col)))


def _json_block(cols):
    return [_json_cells(c) for c in cols]


def _csv_rows(parts):
    """One block's slot arrays joined into its CSV text."""
    block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\xff").decode()


def _write_csv(fh, table):
    if table.rows > _BLOCK_ROWS:
        from .csvfloats import float_slots
    else:
        # one block: the kernel's fixed cost, about 80 us per block and, once
        # per process, 3 ms to compile its module and 0.7 MB of numpy code
        # pages, outweighs format()'s 0.7 us per cell
        float_slots = _formatted_slots
    fh.write(",".join(table.names) + "\n")
    blocks = table.blocks(lambda cols: _csv_cells(cols, float_slots))
    for text in map(_csv_rows, blocks):
        fh.write(text)


def _write_json(fh, table):
    """The layout of ``json.dump(rows, fh, indent=1)`` plus a newline."""
    if not table.rows:
        fh.write("[]\n")
        return
    row = " {\n" + ",\n".join("  " + json.dumps(n).replace("%", "%%") + ": %s"
                              for n in table.names) + "\n }"
    sep = "[\n"
    for cols in table.blocks(_json_block):
        fh.write(sep + ",\n".join(map(row.__mod__, zip(*cols))))
        sep = ",\n"
    fh.write("\n]\n")


def export_table(obj, fmt, path):
    """Write a grid, trajectory, stagnation list or Table as CSV (a header
    row, 17-significant-digit floats) or JSON (``json.dump(..., indent=1)``
    of one object per row, shortest round-trip floats), one block of rows at
    a time.  An empty table is refused as CSV and written as ``[]`` in JSON.
    """
    table = as_table(obj)
    if fmt not in ("csv", "json"):
        raise UsageError("format must be 'csv' or 'json'")
    if fmt == "csv" and not table.rows:
        raise UsageError("refusing to write an empty table")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            (_write_csv if fmt == "csv" else _write_json)(fh, table)
    except OSError as exc:
        raise IOError(f"failed writing {path}: {exc}") from exc
