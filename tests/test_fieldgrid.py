import json
import math
import os

import numpy as np
import pytest

from wignerflow import fieldgrid, thermo
from wignerflow.classical import OrbitSpec, integrate_orbit
from wignerflow.errors import UsageError
from wignerflow.fieldgrid import (QUANTITIES, FieldGrid, GridSpec, as_records,
                                  export_table, sample_field, zero_contours)
from wignerflow.gaussian import GaussianEnsembleParams, find_stagnation_points
from wignerflow.model import HamiltonianKind, SeparableHamiltonian
from wignerflow.thermo import ThermalEnsembleParams

A1 = GaussianEnsembleParams(1.0)


def sample_row_by_row(params, quantity, spec):
    """Reference: evaluate the same kernel one k row at a time, masking each
    row node by node, as sample_field did before it broadcast."""
    if isinstance(params, GaussianEnsembleParams):
        entry = fieldgrid._GAUSSIAN_QUANTITIES[quantity]
    else:
        entry = fieldgrid._THERMAL_QUANTITIES[quantity]
    needs_mask = entry[2]
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
        family = ("gaussian" if isinstance(params, GaussianEnsembleParams)
                  else "thermal")
        spec = GridSpec(*window)
        for quantity in QUANTITIES[family]:
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
        params = ThermalEnsembleParams(1.0, 4.0, "h2")
        calls = []

        def counting(order, arg):
            calls.append((order, arg))
            return bessel_k(order, arg)

        bessel_k = thermo.bessel_k
        monkeypatch.setattr(thermo, "bessel_k", counting)
        counts = []
        for nk in (5, 41):
            calls.clear()
            sample_field(params, "w_st2", GridSpec(-2, 2, -2, 2, 11, nk))
            counts.append(len(calls))
        assert counts[0] == counts[1]

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
        export_table(pts, "json", path)
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
            as_records(object())

    def test_byte_identical_across_runs(self, tmp_path):
        spec = GridSpec(-2, 2, -2, 2, 21, 21)
        blobs = []
        for name in ("a.csv", "b.csv"):
            grid = sample_field(A1, "divw", spec, threads=4)
            path = tmp_path / name
            export_table(grid, "csv", path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
