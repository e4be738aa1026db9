import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerflow import cli, csvfloats, fieldgrid, gaussian, tables, thermo
from wignerflow.classical import (OrbitSpec, integrate_orbit,
                                  toda_closed_period, toda_species_series)
from wignerflow.errors import DomainError, UsageError, ValidityError
from wignerflow.fieldgrid import (FieldGrid, GridSpec, export_table,
                                  sample_field, zero_contours)
from wignerflow.gaussian import (GaussianEnsembleParams, find_stagnation_points,
                                 integrate_quantum_trajectory)
from wignerflow.model import HamiltonianKind, PhasePoint, SeparableHamiltonian
from wignerflow.thermo import ThermalEnsembleParams

import oracles

A1 = GaussianEnsembleParams(1.0)


def stagnation_table(points):
    """The column table of the points' ``row()`` dicts."""
    rows = [p.row() for p in points]
    return tables.column_table({n: [r[n] for r in rows] for n in rows[0]})


def sample_row_by_row(params, quantity, spec):
    """Reference: evaluate the same kernel one k row at a time, masking each
    row node by node, as sample_field did before it broadcast."""
    if isinstance(params, GaussianEnsembleParams):
        entry = gaussian.GRID_QUANTITIES[quantity]
    else:
        entry = thermo.GRID_QUANTITIES[quantity]
    # the forms with their own trust checks are the masked ones
    needs_mask = hasattr(entry[0], "__wrapped__")
    xs, ks = spec.x_nodes(), spec.k_nodes()
    rows, valid = [], []
    for kj in ks:
        krow = np.full_like(xs, kj)
        if needs_mask:
            lim = params.trust_limit()
            mask = (np.abs(xs) <= lim) & (np.abs(krow) <= lim)
        else:
            mask = np.ones_like(xs, dtype=bool)
        row = np.zeros((spec.nx, 2) if quantity in ("j", "w") else spec.nx)
        if np.any(mask):
            row[mask] = fieldgrid._evaluate(entry, params, xs[mask],
                                            krow[mask])
        rows.append(row)
        valid.append(mask)
    return np.array(rows), (np.array(valid) if needs_mask else None)


class TestSampling:
    def test_center_node_is_peak(self):
        grid = sample_field(A1, "g", GridSpec(-1, 1, -1, 1, 3, 3))
        assert grid.values[1, 1] == 1.0 / math.pi

    def test_divj_vanishes_on_diagonal(self):
        spec = GridSpec(-2, 2, -2, 2, 41, 41)
        grid = sample_field(A1, "divj", spec)
        for i in range(41):
            assert grid.values[i, i] == 0.0

    def test_thread_count_is_invisible(self):
        spec = GridSpec(-2, 2, -2, 2, 41, 41)
        for quantity in ("divj", "wx", "w"):
            one = sample_field(A1, quantity, spec, threads=1)
            many = sample_field(A1, quantity, spec, threads=8)
            assert np.array_equal(one.values, many.values)
            if one.valid is not None:
                assert np.array_equal(one.valid, many.valid)

    @pytest.mark.parametrize("params", [
        A1, GaussianEnsembleParams(0.7, 4.0),
        ThermalEnsembleParams(1.0, 4.0, "h2"), ThermalEnsembleParams(0.5)])
    @pytest.mark.parametrize("window", [(-2, 2, -2, 2, 41, 37),
                                        (-8, 8, -8, 8, 41, 41),
                                        (6.5, 8, 6.5, 8, 5, 5)])
    def test_broadcast_equals_row_by_row(self, params, window):
        family = (gaussian if isinstance(params, GaussianEnsembleParams)
                  else thermo)
        spec = GridSpec(*window)
        for quantity in sorted(family.GRID_QUANTITIES):
            if quantity == "w_st2" and params.order != "h2":
                continue
            grid = sample_field(params, quantity, spec)
            values, valid = sample_row_by_row(params, quantity, spec)
            assert np.array_equal(grid.values, values), quantity
            if valid is None:
                assert grid.valid is None
            else:
                assert np.array_equal(grid.valid, valid), quantity

    def test_partition_functions_once_per_grid(self, monkeypatch):
        calls = []

        def counting(order, arg):
            calls.append((order, arg))
            return bessel_k(order, arg)

        bessel_k = thermo.bessel_k
        monkeypatch.setattr(thermo, "bessel_k", counting)
        counts = []
        for nk in (5, 41):
            # fresh parameters: they keep the Z0 that a grid evaluates
            params = ThermalEnsembleParams(1.0, 4.0, "h2")
            calls.clear()
            sample_field(params, "w_st2", GridSpec(-2, 2, -2, 2, 11, nk))
            counts.append(len(calls))
        assert counts[0] == counts[1]
        calls.clear()
        sample_field(params, "w_st2", GridSpec(-2, 2, -2, 2, 11, 5))
        assert calls == []

    def test_trust_masking_flags_not_zeroes_silently(self):
        grid = sample_field(A1, "wx", GridSpec(-8, 8, -8, 8, 21, 21))
        assert grid.valid is not None
        assert not np.all(grid.valid)
        assert np.all(grid.values[~grid.valid] == 0.0)
        assert np.any(grid.values[grid.valid] != 0.0)

    def test_thermal_quantity(self):
        grid = sample_field(ThermalEnsembleParams(1.0, 4.0), "divw",
                            GridSpec(-2, 2, -2, 2, 5, 5))
        ref = math.sinh(1.0) ** 2 * math.cosh(1.0)
        assert abs(grid.values[3, 3] - ref) < 1e-12

    def test_unknown_quantity_rejected(self):
        with pytest.raises(UsageError):
            sample_field(A1, "vorticity", GridSpec(-1, 1, -1, 1, 3, 3))
        with pytest.raises(UsageError):
            sample_field(ThermalEnsembleParams(1.0), "vort",
                         GridSpec(-1, 1, -1, 1, 3, 3))

    def test_grid_spec_validation(self):
        with pytest.raises(UsageError):
            GridSpec(1, -1, 0, 1, 5, 5)
        with pytest.raises(UsageError):
            GridSpec(-1, 1, -1, 1, 1, 5)

    @pytest.mark.parametrize("bounds", [
        (-1.0, math.inf, -1.0, 1.0), (-math.inf, 1.0, -1.0, 1.0),
        (-1.0, 1.0, -math.inf, math.inf), (math.nan, 1.0, -1.0, 1.0)])
    def test_non_finite_bound_rejected(self, bounds):
        with pytest.raises(UsageError, match="-inf < lo < hi < inf"):
            GridSpec(*bounds, 3, 3)

    @pytest.mark.parametrize("params, quantity, scale", [
        (ThermalEnsembleParams(1.0, 2.0), "divw", "beta = 1.0, a = 2.0"),
        (ThermalEnsembleParams(1.0, 2.0, "h2"), "j", "beta = 1.0, a = 2.0"),
        (A1, "divj", "alpha = 1.0, a = 1.0"),
        (A1, "j", "alpha = 1.0, a = 1.0"),
    ])
    def test_non_finite_grid_refused_without_warning(self, params, quantity,
                                                      scale):
        # sinh and cosh overflow past |x| = 710; a grid with no trust
        # region wrote nan and inf there, with numpy warnings
        spec = GridSpec(-800, 800, -800, 800, 5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=(
                    f"{quantity} is not finite at .* {scale}")):
                sample_field(params, quantity, spec)
            finite = sample_field(params, quantity,
                                  GridSpec(-8, 8, -8, 8, 5, 5))
        assert np.isfinite(finite.values).all()


def draw_params(data, family, quantity):
    """Parameters of one ensemble family, drawn for a quantity (h2 order for
    w_st2), and the quantity's entry in that family's grid table."""
    a = data.draw(st.floats(0.25, 4.0), label="a")
    if family == "gaussian":
        params = GaussianEnsembleParams(
            data.draw(st.floats(0.2, 2.7), label="alpha"), a)
        return params, gaussian.GRID_QUANTITIES[quantity]
    # beta <= 2 lies below beta*(a) for every a in [0.25, 4]
    order = data.draw(st.sampled_from(("classical", "h2")), label="order")
    params = ThermalEnsembleParams(
        data.draw(st.floats(0.05, 2.0), label="beta"), a,
        "h2" if quantity == "w_st2" else order)
    return params, thermo.GRID_QUANTITIES[quantity]


class TestScalarCallsMatchGrid:
    """Each quantity's function called with floats at one node agrees with
    that node of sample_field.  Not bit for bit: numpy's array and scalar
    transcendental paths may differ in the last bits."""

    @pytest.mark.parametrize("family, quantity", [
        (family, quantity) for family in ("gaussian", "thermal")
        for quantity in sorted({"gaussian": gaussian,
                                "thermal": thermo}[family].GRID_QUANTITIES)])
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_node_value(self, family, quantity, data):
        params, entry = draw_params(data, family, quantity)
        x_lo, k_lo = (data.draw(st.floats(-8.0, 7.0)) for _ in range(2))
        x_w, k_w = (data.draw(st.floats(0.1, 8.0)) for _ in range(2))
        nx, nk = (data.draw(st.integers(2, 9)) for _ in range(2))
        spec = GridSpec(x_lo, x_lo + x_w, k_lo, k_lo + k_w, nx, nk)
        i = data.draw(st.integers(0, nx - 1))
        j = data.draw(st.integers(0, nk - 1))
        grid = sample_field(params, quantity, spec)
        x, k = float(spec.x_nodes()[i]), float(spec.k_nodes()[j])
        if grid.valid is not None and not grid.valid[j, i]:
            with pytest.raises(DomainError):
                fieldgrid._evaluate(entry, params, x, k)
            return
        value = fieldgrid._evaluate(entry, params, x, k)
        node = grid.values[j, i]
        assert np.all(np.abs(value - node)
                      <= 1e-12 * np.maximum(1.0, np.abs(node)))


# the forms even under (x, k) -> (-x, -k); every other one is odd
EVEN = {"gaussian": {"g", "divj", "divw", "vort"},
        "thermal": {"w0", "w_st2", "divw"}}


class TestParity:
    """Every grid quantity of both ensembles is even or odd under
    (x, k) -> (-x, -k) bit for bit, up to the sign of a zero (div w is
    -0.0 at (1, 0) and 0.0 at (-1, 0)).  The forms are called on explicit
    arrays and their negations: the nodes of a GridSpec are not symmetric
    to the bit."""

    @pytest.mark.parametrize("family, quantity", [
        (family, quantity) for family in ("gaussian", "thermal")
        for quantity in sorted({"gaussian": gaussian,
                                "thermal": thermo}[family].GRID_QUANTITIES)])
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_even_or_odd_bit_for_bit(self, family, quantity, data):
        params, entry = draw_params(data, family, quantity)
        lim = 8.0 if family == "thermal" else min(8.0, params.trust_limit())
        coord = st.floats(-lim, lim)
        x, k = map(np.array, zip(*data.draw(st.lists(
            st.tuples(coord, coord), min_size=1, max_size=8), label="nodes")))
        value = fieldgrid._evaluate(entry, params, x, k)
        mirror = fieldgrid._evaluate(entry, params, -x, -k)
        if quantity not in EVEN[family]:
            mirror = -mirror
        # adding 0.0 turns -0.0 into 0.0 and leaves every other bit
        assert (value + 0.0).tobytes() == (mirror + 0.0).tobytes()


class TestZeroContours:
    def test_analytic_sinh_line(self):
        spec = GridSpec(-1, 1, -1, 1, 21, 21)
        vals = np.sinh(spec.k_nodes())[:, None] * np.ones((1, 21))
        polys = zero_contours(FieldGrid(spec, "sinh_k", vals))
        assert len(polys) == 1
        cell = 2.0 / 20.0
        assert np.max(np.abs(polys[0][:, 1])) < cell / 100.0

    def test_current_grid_contains_axis_line(self):
        spec = GridSpec(-2, 2, -2, 2, 41, 41)
        grid = sample_field(A1, "jx", spec)
        polys = zero_contours(grid)
        pts = np.vstack(polys)
        cell = 4.0 / 40.0
        for x in np.linspace(-2, 2, 17):
            d = np.min(np.hypot(pts[:, 0] - x, pts[:, 1]))
            assert d < cell

    def test_divergence_grid_contains_diagonal(self):
        spec = GridSpec(-2, 2, -2, 2, 41, 41)
        grid = sample_field(A1, "divj", spec)
        pts = np.vstack(zero_contours(grid))
        cell_diagonal = math.hypot(0.1, 0.1)
        for t in np.linspace(-2, 2, 33):
            d = np.min(np.hypot(pts[:, 0] - t, pts[:, 1] - t))
            assert d <= cell_diagonal

    def test_closed_loop_is_stitched_and_closed(self):
        spec = GridSpec(-2, 2, -2, 2, 81, 81)
        x, k = np.meshgrid(spec.x_nodes(), spec.k_nodes())
        polys = zero_contours(FieldGrid(spec, "circle", x * x + k * k - 1.0))
        assert len(polys) == 1
        loop = polys[0]
        assert np.allclose(loop[0], loop[-1])
        radii = np.hypot(loop[:, 0], loop[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 1e-3

    def test_no_sign_change_gives_empty(self):
        spec = GridSpec(-1, 1, -1, 1, 5, 5)
        polys = zero_contours(FieldGrid(spec, "one", np.ones((5, 5))))
        assert polys == []

    def test_vector_grid_rejected(self):
        grid = sample_field(A1, "w", GridSpec(-1, 1, -1, 1, 5, 5))
        with pytest.raises(UsageError):
            zero_contours(grid)


class TestExport:
    def test_two_by_two_line_count(self, tmp_path):
        grid = sample_field(A1, "g", GridSpec(0, 1, 0, 1, 2, 2))
        path = tmp_path / "grid.csv"
        export_table(grid, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0] == "x,k,value"

    def test_csv_round_trip_is_bitwise(self, tmp_path):
        grid = sample_field(A1, "divj", GridSpec(-1.3, 0.7, -0.9, 1.1, 7, 5))
        path = tmp_path / "grid.csv"
        export_table(grid, "csv", path)
        lines = path.read_text().strip().split("\n")[1:]
        parsed = np.array([float(line.split(",")[2]) for line in lines])
        assert np.array_equal(parsed, grid.values.ravel())

    def test_trajectory_schema(self, tmp_path):
        model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
        traj = integrate_orbit(OrbitSpec.from_energy(model, 2.5, step=1e-2,
                                                     duration=1.0))
        path = tmp_path / "traj.csv"
        export_table(traj, "csv", path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "tau,x,k,y,z,energy_residual"

    def test_stagnation_json_schema(self, tmp_path):
        pts = find_stagnation_points(GaussianEnsembleParams(2.0 ** 0.5),
                                     (-3.0, 3.0, -3.0, 3.0))
        path = tmp_path / "stag.json"
        export_table(stagnation_table(pts), "json", path)
        records = json.loads(path.read_text())
        assert len(records) == len(pts)
        assert set(records[0]) == {"x", "k", "residual", "circulation", "class"}

    def test_json_round_trip(self, tmp_path):
        grid = sample_field(A1, "g", GridSpec(0, 1, 0, 1, 3, 3))
        path = tmp_path / "grid.json"
        export_table(grid, "json", path)
        records = json.loads(path.read_text())
        assert records[0]["value"] == grid.values[0, 0]

    def test_vector_grid_header(self, tmp_path):
        grid = sample_field(A1, "j", GridSpec(0, 1, 0, 1, 2, 2))
        path = tmp_path / "vec.csv"
        export_table(grid, "csv", path)
        assert path.read_text().split("\n", 1)[0] == "x,k,vx,vk"

    def test_masked_grid_gains_valid_column(self, tmp_path):
        grid = sample_field(A1, "wx", GridSpec(-8, 8, -8, 8, 5, 5))
        path = tmp_path / "masked.csv"
        export_table(grid, "csv", path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "x,k,value,valid"

    def test_io_failure_raises_with_path(self, tmp_path):
        grid = sample_field(A1, "g", GridSpec(0, 1, 0, 1, 2, 2))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(IOError):
            export_table(grid, "csv", missing)

    def test_unknown_format(self, tmp_path):
        grid = sample_field(A1, "g", GridSpec(0, 1, 0, 1, 2, 2))
        with pytest.raises(UsageError):
            export_table(grid, "xml", tmp_path / "x.xml")

    def test_unknown_object(self, tmp_path):
        with pytest.raises(UsageError):
            export_table(object(), "csv", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        spec = GridSpec(-2, 2, -2, 2, 21, 21)
        blobs = []
        for name in ("a.csv", "b.csv"):
            grid = sample_field(A1, "divw", spec, threads=4)
            path = tmp_path / name
            export_table(grid, "csv", path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestZeroContoursReference:
    """The array classification reproduces the per-cell loop exactly: the
    same polylines in the same order, bit for bit."""

    @staticmethod
    def assert_same_polylines(grid):
        ref = oracles.zero_contours_per_cell(grid)
        new = zero_contours(grid)
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)
        return ref

    @pytest.mark.parametrize("n", [41, 151])
    @pytest.mark.parametrize("alpha, a", [(1.0, 1.0), (0.7, 4.0)])
    def test_divj_grids(self, n, alpha, a):
        spec = GridSpec(-2, 2, -2, 2, n, n)
        grid = sample_field(GaussianEnsembleParams(alpha, a), "divj", spec)
        assert self.assert_same_polylines(grid)

    def test_saddle_cells_of_both_centre_signs(self):
        # each 2x2 block is one saddle cell: case 5 (corners (i,j) and
        # (i+1,j+1) non-negative) or case 10, with a positive, negative or
        # zero centre average; the blocks sit apart in a negative sea
        blocks = [[[2, -1], [-1, 2]], [[1, -2], [-2, 1]],
                  [[-1, 2], [2, -1]], [[-2, 1], [1, -2]],
                  [[1, -1], [-1, 1]]]
        values = -np.ones((4, 3 * len(blocks) + 1))
        for b, block in enumerate(blocks):
            values[1:3, 3 * b + 1:3 * b + 3] = block
        spec = GridSpec(0, 1, 0, 1, values.shape[1], values.shape[0])
        polys = self.assert_same_polylines(FieldGrid(spec, "saddles", values))
        assert len(polys) >= len(blocks)

    def test_exact_zero_nodes(self):
        rng = np.random.default_rng(7)
        spec = GridSpec(-1, 1, -1, 1, 30, 25)
        for _ in range(20):
            values = rng.integers(-1, 2, (25, 30)).astype(float)
            assert np.any(values == 0.0)
            self.assert_same_polylines(FieldGrid(spec, "ternary", values))


def thermo_records(a_values, betas, order):
    """The rows cmd_thermo wrote as one dict each."""
    rows = []
    for a in a_values:
        for beta in map(float, betas):
            row = {"a": a, "beta": beta}
            try:
                obs = thermo.observables(ThermalEnsembleParams(beta, a, order))
            except ValidityError:
                row.update(z=0.0, energy=0.0, heat_capacity=0.0, valid=0)
            else:
                row.update(z=obs.z0 if order == "classical" else obs.z_st,
                           energy=obs.energy, heat_capacity=obs.heat_capacity,
                           valid=1)
            rows.append(row)
    return rows


def assert_same_files(obj, records, tmp_path, fmt):
    """export_table(obj) and the reference writer on records agree byte for
    byte."""
    export_table(obj, fmt, tmp_path / f"table.{fmt}")
    oracles.export_records(records, fmt, tmp_path / f"ref.{fmt}")
    new = (tmp_path / f"table.{fmt}").read_bytes()
    assert new == (tmp_path / f"ref.{fmt}").read_bytes()
    return new


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestExportReference:
    """The column writer against the record writer it replaces."""

    @pytest.mark.parametrize("ensemble, quantity, box", [
        (A1, "divj", (-2, 2, -2, 2)),
        (A1, "j", (-2, 2, -2, 2)),
        (GaussianEnsembleParams(1.3, 2.0), "w", (-8, 8, -8, 8)),
        (GaussianEnsembleParams(1.3, 2.0), "vort", (-8, 8, -8, 8)),
        (ThermalEnsembleParams(0.7, 2.0, "h2"), "j", (-2, 2, -2, 2)),
    ])
    def test_grids(self, tmp_path, fmt, ensemble, quantity, box):
        grid = sample_field(ensemble, quantity, GridSpec(*box, 23, 17))
        assert_same_files(grid, oracles.as_records(grid), tmp_path, fmt)

    def test_classical_trajectory(self, tmp_path, fmt):
        model = SeparableHamiltonian(HamiltonianKind.LV, 2.0)
        traj = integrate_orbit(OrbitSpec.from_energy(model, 4.5, step=1e-2,
                                                     duration=3.0))
        assert traj.energy_residual is not None
        assert_same_files(traj, oracles.as_records(traj), tmp_path, fmt)

    def test_stagnation_list(self, tmp_path, fmt):
        pts = find_stagnation_points(GaussianEnsembleParams(2.0 ** 0.5),
                                     (-3.0, 3.0, -3.0, 3.0))
        assert_same_files(stagnation_table(pts), oracles.as_records(pts),
                          tmp_path, fmt)

    def test_empty_list(self, tmp_path, fmt):
        empty = tables.column_table({})
        if fmt == "csv":
            with pytest.raises(UsageError):
                export_table(empty, fmt, tmp_path / "table.csv")
            assert not (tmp_path / "table.csv").exists()
        else:
            assert assert_same_files(empty, [], tmp_path, fmt) == b"[]\n"

    def test_point_list_is_refused(self, tmp_path, fmt):
        # a list is no table: the caller builds one from the rows
        pts = find_stagnation_points(A1, (-3.0, 3.0, -3.0, 3.0))
        with pytest.raises(UsageError, match="cannot serialize"):
            export_table(pts, fmt, tmp_path / f"table.{fmt}")
        assert not (tmp_path / f"table.{fmt}").exists()

    def test_column_types(self, tmp_path, fmt):
        # floats whose repr is shorter than 17 digits, non-finite values,
        # signed zero, subnormals, ints, bools and strings needing escapes
        floats = [0.1, 1.0 / 3.0, -0.0, math.nan, math.inf, -math.inf,
                  5e-324, 1e300, 2.0]
        columns = {"v": floats, "n": list(range(-4, 5)),
                   "flag": [i % 2 == 0 for i in range(9)],
                   "s": ["plain", 'qu"ote', "back\\slash", "\u00e9t\u00e9",
                         "50%", "tab\tstop", "", "x", "y"],
                   "odd \"key\" %s": floats[::-1]}
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        text = assert_same_files(tables.column_table(columns), records,
                                 tmp_path, fmt)
        if fmt == "csv":
            assert b"0.10000000000000001" in text
        else:
            assert b"0.1," in text and b"NaN" in text

    def test_trajectory_rows(self, tmp_path, fmt):
        args = ["--alpha", "1", "--a", "1", "--x0", "0.6", "--dt", "1e-2",
                "--tau-max", "8"]
        out = tmp_path / f"table.{fmt}"
        assert cli.main(["trajectory", *args, "--format", fmt,
                         "--out", str(out)]) == 0
        q, c = integrate_quantum_trajectory(A1, PhasePoint(0.6, 0.0), 1e-2,
                                            8.0)
        records = [{"kind": kind, "tau": t.tau[i], "x": t.x[i], "k": t.k[i],
                    "y": t.y[i], "z": t.z[i]}
                   for kind, t in (("quantum", q), ("classical", c))
                   for i in range(len(t))]
        oracles.export_records(records, fmt, tmp_path / f"ref.{fmt}")
        assert out.read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()

    def test_thermo_rows(self, tmp_path, fmt):
        # beta-min 0.1 prints as 0.10000000000000001 in CSV and 0.1 in JSON;
        # the h2 rows past beta*(4) carry valid = 0
        out = tmp_path / f"table.{fmt}"
        for order in ("classical", "h2"):
            assert cli.main(["thermo", "--a", "0.5", "--a", "4",
                             "--beta-min", "0.1", "--beta-max", "6",
                             "--steps", "7", "--order", order,
                             "--format", fmt, "--out", str(out)]) == 0
            records = thermo_records([0.5, 4.0], np.linspace(0.1, 6.0, 7),
                                     order)
            assert {r["valid"] for r in records} == (
                {1} if order == "classical" else {0, 1})
            oracles.export_records(records, fmt, tmp_path / f"ref.{fmt}")
            assert out.read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()

    def test_analytic_table_and_summary(self, tmp_path, fmt):
        out = tmp_path / f"an.{fmt}"
        assert cli.main(["analytic", "--eps", "2.5", "--eps", "4",
                         "--samples", "7", "--format", fmt,
                         "--out", str(out)]) == 0
        summaries = []
        for eps in (2.5, 4.0):
            closed = toda_closed_period(eps)
            taus = np.linspace(0.0, closed.period_ode, 7)
            ys, zs = toda_species_series(eps, taus)
            records = [{"tau": float(t), "T": 0.5 * (y + z), "y": y, "z": z}
                       for t, y, z in zip(taus, ys, zs)]
            ref = tmp_path / f"ref_{eps:g}.{fmt}"
            oracles.export_records(records, fmt, ref)
            written = tmp_path / f"an_eps{eps:g}.{fmt}"
            assert written.read_bytes() == ref.read_bytes()
            summaries.append({
                "eps": eps, "kappa": closed.kappa, "t_plus": closed.t_plus,
                "t_minus": closed.t_minus,
                "period_formula": closed.period_formula,
                "period_ode": closed.period_ode,
                "period_ratio": closed.period_ratio,
                "convention": "parameter", "t_source": "analytic"})
        oracles.export_records(summaries, "json", tmp_path / "ref_summary.json")
        assert ((tmp_path / "an_summary.json").read_bytes()
                == (tmp_path / "ref_summary.json").read_bytes())


def test_block_writer_peak_memory(tmp_path):
    """Writing blocks of at most 512 rows keeps the peak allocation of an
    export at a fraction of the record writer's, which holds every row at
    once."""
    grid = sample_field(A1, "w", GridSpec(-2, 2, -2, 2, 201, 201))
    assert grid.valid is not None
    for fmt in ("csv", "json"):
        peaks = {}
        for name, write in (("table", export_table),
                            ("records", oracles.export_records)):
            tracemalloc.start()
            try:
                write(grid, fmt, tmp_path / f"{name}.{fmt}")
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["table"] <= peaks["records"] / 4, (fmt, peaks)


# ---------------------------------------------------------------------------
# CSV float kernel against format(x, ".17g")
# ---------------------------------------------------------------------------

def kernel_text(values):
    """The kernel's cells of values, one per line, whatever their count, as
    the bytes the CSV writer writes."""
    values = np.asarray(values, dtype=float)
    return csvfloats.csv_rows([csvfloats.float_slots(values)])


def format_text(values):
    return "".join(format(float(x), ".17g") + "\n" for x in values).encode()


def constructed_ties(count, seed=0):
    """(odd n)/4 for n in [4e15, 9e15]: exact doubles whose 18th digit is a
    5 followed by zeros, so round-half-even decides their 17th."""
    n = np.random.default_rng(seed).integers(4 * 10 ** 15, 9 * 10 ** 15,
                                             count) | 1
    return n.astype(float) / 4


def power_of_ten_neighbours():
    tens = [float(f"1e{k}") for k in range(-300, 300)]
    return np.array(tens + [math.nextafter(t, d) for t in tens
                            for d in (0.0, math.inf)])


def carry_set():
    """The largest double below 10^k wherever its 17-digit rounding carries
    to 10^k, for k in [-300, 300)."""
    from fractions import Fraction
    out = []
    for k in range(-300, 300):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        if format(below, ".17g").split("e")[0].strip("0.") == "1":
            out.append(below)
    return np.array(out)


class TestCsvFloatKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        assert kernel_text(values) == format_text(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert kernel_text(values) == format_text(values)

    def test_ties_match_and_go_through_format(self):
        ties = constructed_ties(20_000)
        ties = np.concatenate([ties, -ties])
        assert kernel_text(ties) == format_text(ties)
        _, _, exact = csvfloats.float_digits(ties)
        assert not exact.any()

    def test_power_of_ten_neighbours(self):
        values = power_of_ten_neighbours()
        values = np.concatenate([values, -values])
        assert kernel_text(values) == format_text(values)

    def test_carry_set(self):
        values = carry_set()
        assert len(values) >= 10
        values = np.concatenate([values, -values])
        assert kernel_text(values) == format_text(values)

    def test_every_layout(self):
        # 1 to 17 significant digits at every decimal exponent from -30 to
        # 30: each fixed and exponent layout, both signs, trailing zeros
        rng = np.random.default_rng(3)
        values = [float(f"{rng.integers(10 ** (d - 1), 10 ** d)}e{p}")
                  for d in range(1, 18) for p in range(-30 - d, 31 - d)]
        values = np.array(values + [-v for v in values])
        assert kernel_text(values) == format_text(values)
        _, _, exact = csvfloats.float_digits(values)
        assert exact.mean() > 0.99

    def test_special_values(self):
        # zeros (every masked grid node) are the kernel's; non-finite and
        # extreme values go through format()
        zeros = np.array([0.0, -0.0])
        others = np.array([math.nan, math.inf, -math.inf, 5e-324, 1e-281,
                           1e281, -1.7976931348623157e308])
        values = np.concatenate([zeros, others, zeros])
        assert kernel_text(values) == format_text(values)
        assert csvfloats.float_digits(zeros)[2].all()
        assert not csvfloats.float_digits(others)[2].any()

    def test_one_block_tables_skip_the_kernel(self, tmp_path, monkeypatch):
        calls = []
        kernel = csvfloats.float_slots
        monkeypatch.setattr(csvfloats, "float_slots",
                            lambda v, f: calls.append((len(v), f))
                            or kernel(v, f))
        for fmt in ("csv", "json"):
            for rows in (512, 513):
                export_table(tables.column_table({"a": np.ones(rows) / 3}),
                             fmt, tmp_path / f"t.{fmt}")
        assert calls == [(512, "csv"), (1, "csv"), (512, "json"), (1, "json")]

    def test_kernel_does_not_mutate_its_input(self):
        values = np.array([0.0, 1.5, math.nan, -2.0])
        csvfloats.float_slots(values)
        assert values[1] == 1.5 and math.isnan(values[2])


# ---------------------------------------------------------------------------
# JSON float kernel against float.__repr__, through json's names of the
# non-finite values
# ---------------------------------------------------------------------------

def json_kernel_text(values):
    """The kernel's JSON cells of values, one per line."""
    values = np.asarray(values, dtype=float)
    return csvfloats.csv_rows([csvfloats.float_slots(values, "json")])


def repr_text(values):
    return "".join(json.dumps(float(x)) + "\n" for x in values).encode()


def shortest_ties(count):
    """8 + (odd i) 2^-16: exact 17-digit decimals ending in 5, where two
    16-digit candidates lie equally near and round-half-even picks one."""
    return 8.0 + (2.0 * np.arange(count) + 1.0) * 2.0 ** -16


class TestJsonFloatKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        assert json_kernel_text(values) == repr_text(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert json_kernel_text(values) == repr_text(values)

    def test_powers_of_two_go_to_repr(self):
        # the gap below 2^k is half the gap above: repr writes the power,
        # the kernel its neighbours
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        below = np.nextafter(powers, 0.0)
        above = np.nextafter(powers, np.inf)
        values = np.concatenate([powers, below, above])
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)
        normal = (powers >= 1e-280) & (powers <= 1e280)
        assert not csvfloats.shortest_digits(powers)[2].any()
        assert csvfloats.shortest_digits(above[normal])[2].mean() > 0.99

    def test_power_of_ten_neighbours(self):
        values = power_of_ten_neighbours()
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)

    def test_notation_boundaries(self):
        # fixed notation for 1e-4 <= |x| < 1e16, with ".0" after an integral
        # value; the exponent keeps two digits
        edges = [1e16, 1e-4, 1e-5, 1e15, 1e17, 1e100, 1e-100]
        values = np.array(edges + [math.nextafter(t, d) for t in edges
                                   for d in (0.0, math.inf)]
                          + [9999999999999998.0, 1234567890123456.8,
                             12345678901234568.0, 0.00012345678901234567])
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)
        assert json_kernel_text([1e16, 9999999999999998.0, 1e-5]) == (
            b"1e+16\n9999999999999998.0\n1e-05\n")

    def test_integral_values(self):
        ints = np.random.default_rng(4).integers(1, 2 ** 53, 20_000)
        values = np.concatenate([ints, np.arange(1, 2000),
                                 [2 ** 53, 2 ** 53 - 1, 10 ** 15, 10 ** 16 - 1]
                                 ]).astype(float)
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)
        assert csvfloats.shortest_digits(values)[2].mean() > 0.99

    def test_signed_zeros(self):
        values = np.array([0.0, -0.0, 0.0])
        assert json_kernel_text(values) == b"0.0\n-0.0\n0.0\n"
        assert csvfloats.shortest_digits(values)[2].all()

    def test_near_ties_go_to_repr(self):
        values = np.concatenate([constructed_ties(5000), shortest_ties(5000)])
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)
        assert not csvfloats.shortest_digits(values)[2].any()

    def test_carry_set(self):
        values = carry_set()
        values = np.concatenate([values, -values])
        assert json_kernel_text(values) == repr_text(values)
        # 1e23 is stored as 99999999999999991611392: its shortest digits
        # carry to the next decade
        assert json_kernel_text([1e23]) == b"1e+23\n"

    def test_every_layout(self):
        rng = np.random.default_rng(3)
        values = [float(f"{rng.integers(10 ** (d - 1), 10 ** d)}e{p}")
                  for d in range(1, 18) for p in range(-30 - d, 31 - d)]
        values = np.array(values + [-v for v in values])
        assert json_kernel_text(values) == repr_text(values)
        # powers of two (1, 2, 4, 8 among the 1-digit values) go to repr
        assert csvfloats.shortest_digits(values)[2].mean() > 0.98

    def test_special_values(self):
        values = np.array([math.nan, math.inf, -math.inf, 5e-324, 1e-281,
                           1e281, -1.7976931348623157e308])
        assert json_kernel_text(values) == repr_text(values)
        assert b"NaN\nInfinity\n-Infinity\n" in json_kernel_text(values)

    def test_grid_values_stay_in_the_kernel(self):
        grid = sample_field(GaussianEnsembleParams(1.1), "w",
                            GridSpec(-2, 2, -2, 2, 151, 151))
        values = grid.values.reshape(-1)
        assert json_kernel_text(values) == repr_text(values)
        exact = csvfloats.shortest_digits(values)[2]
        assert exact[values != 0.0].mean() > 0.999


def plain_columns(rows):
    """Columns of plain lists, as ``thermo`` writes them: every special
    float, a float column with integer cells (numpy makes it float),
    integers up to the int64 range, bools and strings."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2e-310,
                1 / 3, -1e300, 1e-5, 123456789.0, 2.0 ** 60]
    return {"special": [specials[i % len(specials)] for i in range(rows)],
            "mixed": [i if i % 3 else i / 7 for i in range(rows)],
            "n": [(i - rows // 2) * 3 ** 30 for i in range(rows - 2)]
            + [2 ** 63 - 1, -2 ** 63],
            "flag": [i % 3 == 0 for i in range(rows)],
            "kind": [("quantum", "été", "")[i % 3] for i in range(rows)]}


class TestListTables:
    """A column table of at most 512 rows of plain lists is written from
    the lists by format() and json.dumps, without numpy; a longer one goes
    through numpy and the slot kernel, with the same bytes per row."""

    def test_csv_at_the_limit_matches_the_slot_writer(self, tmp_path,
                                                      monkeypatch):
        calls = []
        kernel = csvfloats.float_slots
        monkeypatch.setattr(csvfloats, "float_slots",
                            lambda v, f: calls.append(len(v)) or kernel(v, f))
        columns = plain_columns(513)
        short = tables.column_table({n: c[:512]
                                        for n, c in columns.items()})
        export_table(short, "csv", tmp_path / "short.csv")
        assert calls == []
        export_table(tables.column_table(columns), "csv",
                     tmp_path / "long.csv")
        assert calls
        short = (tmp_path / "short.csv").read_bytes()
        long = (tmp_path / "long.csv").read_bytes()
        assert long.startswith(short)
        assert long.count(b"\n") == short.count(b"\n") + 1
        rows = short.decode().splitlines()
        assert [row.split(",")[0] for row in rows[1:7]] == [
            "nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324"]

    def test_json_is_json_dump(self, tmp_path):
        columns = plain_columns(512)
        export_table(tables.column_table(columns), "json",
                     tmp_path / "t.json")
        # the writer's bools are 0 and 1, and numpy makes "mixed" float
        rows = [{**row, "mixed": float(row["mixed"]), "flag": int(row["flag"])}
                for row in (dict(zip(columns, cells))
                            for cells in zip(*columns.values()))]
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        assert ((tmp_path / "t.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    def test_long_json_is_json_dump(self, tmp_path):
        # past 512 rows the slot kernel writes the cells and the keys stand
        # as constant heads: keys that need escapes, every special float
        plain = plain_columns(1300)
        columns = {'odd "key" %s': plain["special"],
                   "\u00e9t\u00e9": plain["n"], "flag": plain["flag"],
                   "kind": plain["kind"],
                   "back\\slash": [i / 7 for i in range(1300)]}
        export_table(tables.column_table(columns), "json",
                     tmp_path / "t.json")
        rows = [{**row, "flag": int(row["flag"])}
                for row in (dict(zip(columns, cells))
                            for cells in zip(*columns.values()))]
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        assert ((tmp_path / "t.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    def test_int64_overflow_is_left_to_numpy(self, tmp_path):
        # numpy makes [1, 2**63] a float column: the list path must too
        for fmt in ("csv", "json"):
            export_table(tables.column_table({"n": [1, 2 ** 63]}), fmt,
                         tmp_path / f"t.{fmt}")
        assert (tmp_path / "t.csv").read_text() == \
            "n\n1\n9.2233720368547758e+18\n"
        assert "9.223372036854776e+18" in (tmp_path / "t.json").read_text()



def short_json(rows):
    """json.dumps(rows, indent=1) and a newline, bools as 0 and 1."""
    rows = [{n: int(v) if type(v) is bool else v for n, v in row.items()}
            for row in rows]
    return (json.dumps(rows, indent=1) + "\n").encode()


class TestShortJson:
    """A table of at most 512 rows is json.dumps(rows, indent=1) and a
    newline, byte for byte, with bools as 0 and 1."""

    @staticmethod
    def columns(rows):
        cycle = lambda values: [values[i % len(values)] for i in range(rows)]
        return {"x": cycle([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                            1 / 3, -1e300, 2.0 ** 60]),
                "n": cycle([2 ** 63 - 1, -2 ** 63, 0, -7, 3 ** 39]),
                "flag": cycle([True, False, False]),
                'say "\u00e9t\u00e9"\\': cycle(
                    ['a "quoted"\\path', "tab\t", "\u00e9t\u00e9 \u2603",
                     "\x01\x7f", ""])}

    @pytest.mark.parametrize("rows", [1, 7, 512])
    @pytest.mark.parametrize("arrays", [False, True], ids=["lists", "numpy"])
    def test_column_tables(self, tmp_path, rows, arrays):
        columns = self.columns(rows)
        table = {n: np.array(c) if arrays else c for n, c in columns.items()}
        export_table(tables.column_table(table), "json", tmp_path / "t")
        expected = [dict(zip(columns, r)) for r in zip(*columns.values())]
        assert (tmp_path / "t").read_bytes() == short_json(expected)

    @pytest.mark.parametrize("params, quantity, box, nx, nk", [
        (GaussianEnsembleParams(1.3, 2.0), "w", (-8, 8, -8, 8), 9, 7),
        (GaussianEnsembleParams(1.3, 2.0), "vort", (-8, 8, -8, 8), 32, 16),
        (A1, "divj", (-2, 2, -2, 2), 2, 2),
        (ThermalEnsembleParams(0.7, 2.0, "h2"), "j", (-2, 2, -2, 2), 5, 3),
    ])
    def test_grids(self, tmp_path, params, quantity, box, nx, nk):
        grid = sample_field(params, quantity, GridSpec(*box, nx, nk))
        export_table(grid, "json", tmp_path / "g")
        xs, ks, v = grid.spec.x_nodes(), grid.spec.k_nodes(), grid.values
        expected = []
        for j, i in np.ndindex(nk, nx):
            row = {"x": float(xs[i]), "k": float(ks[j])}
            if grid.is_vector:
                row.update(vx=float(v[j, i, 0]), vk=float(v[j, i, 1]))
            else:
                row["value"] = float(v[j, i])
            if grid.valid is not None:
                row["valid"] = bool(grid.valid[j, i])
            expected.append(row)
        assert (tmp_path / "g").read_bytes() == short_json(expected)
        if grid.valid is not None:
            assert b'"valid": 0' in (tmp_path / "g").read_bytes()


def mixed_columns(rows, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 6, rows)
    floats[::7] = 0.0
    return {"kind": np.array(["quantum", "classical", "été", ""])
            [np.arange(rows) % 4],
            "tau": np.linspace(0.0, 3.0, rows), "x": floats,
            "n": np.arange(rows) - rows // 2, "flag": np.arange(rows) % 3 == 0,
            "k": constructed_ties(rows, seed), "y": -floats[::-1]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestBlockBoundaries:
    """Block boundaries against the record writer: column-table blocks hold
    512 rows, and grid blocks the whole grid rows that fit in 1024 nodes,
    or 1024 consecutive nodes where one row is longer; a table of at most
    512 rows is written by format() and json.dumps, a longer one by the
    kernel, in CSV and in JSON alike."""

    @pytest.fixture
    def kernel_formats(self, monkeypatch):
        """The formats of the float_slots calls an export makes."""
        calls = []
        kernel = csvfloats.float_slots
        monkeypatch.setattr(csvfloats, "float_slots",
                            lambda v, f: calls.append(f) or kernel(v, f))
        return calls

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1023, 1024, 1025,
                                      2049])
    def test_mixed_tables(self, tmp_path, fmt, rows, kernel_formats):
        columns = mixed_columns(rows)
        records = [dict(zip(columns, row))
                   for row in zip(*(c.tolist() for c in columns.values()))]
        assert_same_files(tables.column_table(columns), records, tmp_path,
                          fmt)
        assert set(kernel_formats) == ({fmt} if rows > 512 else set())

    @pytest.mark.parametrize("rows", [511, 512, 1025])
    def test_float_only_tables(self, tmp_path, fmt, rows, kernel_formats):
        rng = np.random.default_rng(rows)
        columns = {n: rng.standard_normal(rows) for n in ("a", "b", "c")}
        records = [dict(zip(columns, row))
                   for row in zip(*(c.tolist() for c in columns.values()))]
        assert_same_files(tables.column_table(columns), records, tmp_path,
                          fmt)
        assert set(kernel_formats) == ({fmt} if rows > 512 else set())

    @pytest.mark.parametrize("quantity, box, nx, nk", [
        ("divj", (-2, 2, -2, 2), 2, 2),
        ("vort", (-8, 8, -8, 8), 2, 2),
        ("divj", (-2, 2, -2, 2), 151, 151),
        ("w", (-8, 8, -8, 8), 151, 151),
        ("vort", (-8, 8, -8, 8), 151, 151),
        # rows longer than 1024 nodes: blocks of 1024 nodes cross row ends
        ("vort", (-8, 8, -8, 8), 1100, 3),
        ("w", (-8, 8, -8, 8), 1100, 2),
        ("vort", (-8, 8, -8, 8), 1025, 3),
        ("w", (-8, 8, -8, 8), 2049, 2),
        # one grid row per block
        ("w", (-8, 8, -8, 8), 1024, 2),
        # a short grid, its cells taken from lists, with a valid column
        ("w", (-8, 8, -8, 8), 22, 23),
    ])
    def test_grids(self, tmp_path, fmt, quantity, box, nx, nk,
                   kernel_formats):
        grid = sample_field(GaussianEnsembleParams(1.3), quantity,
                            GridSpec(*box, nx, nk))
        assert (grid.valid is not None) == (quantity != "divj")
        assert_same_files(grid, oracles.as_records(grid), tmp_path, fmt)
        assert set(kernel_formats) == ({fmt} if nx * nk > 512 else set())
