"""Uniform phase-space grids of flow quantities and zero-contour
extraction.

Every sampled quantity is a closed form built from 1-D factors f(x) g(k) of
the separable Hamiltonian, so a grid is one numpy broadcast of its kernel
over the x nodes (a row) and the k nodes (a column), with no per-row loop.
Grids are row-major with x fastest: file rows loop k in the outer loop and x
in the inner one, so byte-identical output is reproducible across runs.
The table writer lives in ``tables``; its public names are re-exported
here.  Each ensemble module (``gaussian``, ``thermo``) holds the table of
its grid quantities, so a grid loads only the module of its own ensemble.
"""

import sys

import numpy as np

from .errors import DomainError, UsageError
from .tables import Table, column_table, export_table

__all__ = [
    "GridSpec",
    "FieldGrid",
    "sample_field",
    "zero_contours",
    "Table",
    "column_table",
    "export_table",
]

# nodes one grid may hold; a larger grid is refused before any allocation
MAX_GRID_NODES = 4_000_000
# nodes per block of a grid table: the CSV float kernel's fixed cost per
# call is spread over a thousand nodes, and a block's joined text stays
# small (3072 nodes cut a 151-node divj export by another 10% but raised
# its peak memory by 1.3 MB)
_GRID_BLOCK_NODES = 1024


class GridSpec:
    """Uniform sampling window: inclusive ranges and node counts."""

    def __init__(self, x_lo, x_hi, k_lo, k_hi, nx, nk):
        if not (-np.inf < x_lo < x_hi < np.inf
                and -np.inf < k_lo < k_hi < np.inf):
            raise UsageError("grid ranges must satisfy -inf < lo < hi < inf")
        if nx < 2 or nk < 2:
            raise UsageError("grids need at least 2 nodes per axis")
        if nx * nk > MAX_GRID_NODES:
            raise UsageError(f"{nx} x {nk} grid nodes exceed the work budget "
                             f"of {MAX_GRID_NODES} nodes")
        self.x_lo, self.x_hi, self.k_lo, self.k_hi = x_lo, x_hi, k_lo, k_hi
        self.nx, self.nk = nx, nk

    def x_nodes(self):
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def k_nodes(self):
        return np.linspace(self.k_lo, self.k_hi, self.nk)


class FieldGrid:
    """Sampled values on a GridSpec; vector quantities have a trailing axis
    of size 2.  ``valid`` (when present) flags nodes inside the velocity
    trust region whose value is finite; flagged-out nodes hold zeros, never
    silent garbage."""

    def __init__(self, spec, quantity, values, valid=None):
        self.spec, self.quantity, self.values = spec, quantity, values
        self.valid = valid

    @property
    def is_vector(self):
        return self.values.ndim == 3

    def table(self):
        """Columns x, k, the value or vx, vk, and valid where present, in
        blocks of whole grid rows (fixed k) with about _GRID_BLOCK_NODES
        nodes, or of pieces of one grid row when it is longer than a block;
        each axis is formatted once."""
        spec, v = self.spec, self.values
        comps = [v[..., 0], v[..., 1]] if self.is_vector else [v]
        names = ("x", "k") + (("vx", "vk") if self.is_vector else ("value",))
        if self.valid is not None:
            comps.append(self.valid)
            names += ("valid",)

        def blocks(cells):
            rows = max(1, _GRID_BLOCK_NODES // spec.nx)
            width = min(spec.nx, _GRID_BLOCK_NODES)
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


def _repeat_cells(cells, n):
    """Each cell n times over: rows of a slot array, or list items."""
    if isinstance(cells, np.ndarray):
        return np.repeat(cells, n, axis=0)
    return [cell for cell in cells for _ in range(n)]


def _evaluate(entry, params, x, k):
    """One table entry's closed form at nodes (x, k).  Component None is a
    scalar form, 0 or 1 picks one entry of a vector pair, and (0, 1) stacks
    both along a last axis."""
    form, component = entry
    out = form(params, x, k)
    if component is None:
        return out
    if isinstance(component, tuple):
        return np.stack([out[c] for c in component], axis=-1)
    return out[component]


def sample_field(params, quantity, spec, threads=None):
    """Sample one quantity over the grid as one broadcast evaluation.

    ``params`` selects the ensemble family (GaussianEnsembleParams or
    ThermalEnsembleParams).  Every quantity is a closed form in 1-D factors
    f(x) g(k), so the kernels see the x nodes as a row and the k nodes as a
    column and each 1-D factor is evaluated nx + nk times.  A @_trusted
    form (gaussian's velocity family) is masked to the trust region instead
    of extrapolated; the region is a box, so only its sub-grid is evaluated,
    by the form's ``__wrapped__``.  A node inside it whose value overflows
    is flagged out as well.  Any other grid with a value that is not finite
    is refused: DomainError.
    ``threads`` is accepted for compatibility and has no effect.
    """
    # the ensemble module that defines params' class holds its grid table
    table = getattr(sys.modules.get(type(params).__module__),
                    "GRID_QUANTITIES", None)
    if table is None:
        raise UsageError(
            "params must be Gaussian or Thermal ensemble parameters")
    if quantity not in table:
        raise UsageError(
            f"quantity {quantity!r} is not defined for this ensemble; "
            f"choose from {', '.join(sorted(table))}")
    form, component = entry = table[quantity]
    xs, ks = spec.x_nodes(), spec.k_nodes()
    is_vector = isinstance(component, tuple)
    values = np.zeros((spec.nk, spec.nx, 2) if is_vector else (spec.nk, spec.nx))
    box, valid = ..., None
    if hasattr(form, "__wrapped__"):
        # the region is masked here and overflow flagged below, so the form
        # runs without its own checks
        lim = params.trust_limit()
        in_x, in_k = np.abs(xs) <= lim, np.abs(ks) <= lim
        box, valid = np.ix_(in_k, in_x), in_k[:, None] & in_x[None, :]
        xs, ks, entry = xs[in_x], ks[in_k], (form.__wrapped__, component)
    with np.errstate(all="ignore"):
        values[box] = _evaluate(entry, params, xs[None, :], ks[:, None])
    finite = np.isfinite(values)
    if not finite.all():
        if valid is None:  # no trust region to flag nodes out of
            scale = "alpha" if hasattr(params, "alpha") else "beta"
            raise DomainError(
                f"{quantity} is not finite at {np.count_nonzero(~finite)} of "
                f"{values.size} grid values at {scale} = "
                f"{getattr(params, scale)}, a = {params.a}: its closed form "
                f"leaves the float range there")
        # sinh and cosh overflow past |chi| = 710, which the trust region
        # reaches for alpha below about 0.0085: such nodes are flagged out
        valid &= finite.all(axis=-1) if is_vector else finite
        values[~valid] = 0.0
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
