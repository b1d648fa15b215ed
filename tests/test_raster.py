"""Raster grids and their CSV/SVG exports."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings
from collections import Counter
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from prefsense import (
    DomainError,
    ValidationError,
    bt_partial,
    bt_region_slice,
    compare_bt_pl_areas,
    export,
    pl_partials,
    pl_region,
    pl_region_area,
    quad_area_pl,
    raster_bt,
    raster_pl,
    read_csv_grid,
)
from prefsense.raster import MAX_RESOLUTION, RasterGrid

THRESHOLDS = (1.01, 2.0, 3.0, 5.0, 10.0)


def tiny_grid() -> RasterGrid:
    values = np.array([[0.5, 1.5], [2.5, 12.0]])
    thresholds = (1.0, 2.0, 10.0)
    classes = np.zeros((2, 2), dtype=np.int32)
    for t in thresholds:
        classes += values > t
    return RasterGrid(thresholds=thresholds, values=values, classes=classes, which="d_pik")


def with_inf_cells(grid: RasterGrid) -> RasterGrid:
    """The grid with a lattice of +inf cells above every threshold, as a caller may build."""
    inf = np.zeros(grid.values.shape, dtype=bool)
    inf[::7, ::5] = True
    values = np.where(inf, np.inf, grid.values)
    classes = np.where(inf, len(grid.thresholds), grid.classes).astype(grid.classes.dtype)
    return dataclasses.replace(grid, values=values, classes=classes)


def reference_csv_text(grid: RasterGrid) -> str:
    """Per-cell CSV writer, independent of the package's row templates."""
    centers = (np.arange(grid.resolution) + 0.5) / grid.resolution
    lines = ["x,y,value,class"]
    for ix in range(grid.resolution):
        cx = f"{centers[ix]:.9g}"
        for iy in range(grid.resolution):
            lines.append(f"{cx},{centers[iy]:.9g},{grid.values[ix, iy]:.9g},{grid.classes[ix, iy]}")
    return "\n".join(lines) + "\n"


# Marching-squares reference: the tuple-keyed loop tracer the SVG export
# used before integer edge ids, kept to pin the export's bytes. `seen`
# counts the saddle branches and non-finite crossings it takes.
_B, _T, _L, _R = 0, 1, 2, 3
_REF_SEGMENTS = {
    1: [(_L, _B)], 2: [(_B, _R)], 3: [(_L, _R)], 4: [(_R, _T)], 6: [(_B, _T)], 7: [(_L, _T)],
    8: [(_T, _L)], 9: [(_B, _T)], 11: [(_R, _T)], 12: [(_L, _R)], 13: [(_B, _R)], 14: [(_L, _B)],
}


def _ref_edge_key(edge, i, j):
    if edge == _B:
        return ("h", i, j)
    if edge == _T:
        return ("h", i, j + 1)
    if edge == _L:
        return ("v", i, j)
    return ("v", i + 1, j)


def reference_contour_path(values, level, resolution, seen: Counter) -> str:
    res = resolution
    pad_val = level - max(1.0, abs(level))
    v = np.full((res + 2, res + 2), pad_val)
    v[1:-1, 1:-1] = values
    inside = v > level
    case = (
        inside[:-1, :-1].astype(np.int8)
        + 2 * inside[1:, :-1]
        + 4 * inside[1:, 1:]
        + 8 * inside[:-1, 1:]
    )
    adjacency = {}
    for i, j in np.argwhere((case != 0) & (case != 15)):
        c = int(case[i, j])
        if c in (5, 10):
            center = (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1]) / 4.0
            seen["saddle above" if center > level else "saddle below"] += 1
            if c == 5:
                segs = [(_B, _R), (_T, _L)] if center > level else [(_L, _B), (_R, _T)]
            else:
                segs = [(_L, _B), (_R, _T)] if center > level else [(_B, _R), (_T, _L)]
        else:
            segs = _REF_SEGMENTS[c]
        for e0, e1 in segs:
            k0 = _ref_edge_key(e0, int(i), int(j))
            k1 = _ref_edge_key(e1, int(i), int(j))
            adjacency.setdefault(k0, []).append(k1)
            adjacency.setdefault(k1, []).append(k0)

    def point_of(key):
        axis, gi, gj = key
        if axis == "h":
            v0, v1 = v[gi, gj], v[gi + 1, gj]
        else:
            v0, v1 = v[gi, gj], v[gi, gj + 1]
        if not (np.isfinite(v0) and np.isfinite(v1)):
            seen["non-finite end"] += 1
            t = 0.5 if not np.isfinite(v0) and not np.isfinite(v1) else (
                0.0 if not np.isfinite(v0) else 1.0
            )
        else:
            t = (level - v0) / (v1 - v0)
        cx = (gi - 0.5) / res
        cy = (gj - 0.5) / res
        if axis == "h":
            cx += t / res
        else:
            cy += t / res
        x, y = min(max(cx, 0.0), 1.0), min(max(cy, 0.0), 1.0)
        return "%.2f %.2f" % (60 + x * 600, 60 + (1.0 - y) * 600)

    chunks = []
    visited = set()
    for start in adjacency:
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nbrs = adjacency[cur]
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            if nxt == start:
                break
            loop.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        chunks.append("M" + " L".join(point_of(k) for k in loop) + " Z")
    return " ".join(chunks)


def saddle_grid(seed: int, resolution: int = 16) -> RasterGrid:
    """A seeded random field with planted saddles and about 5% +inf cells.

    At level 2 a planted saddle's centre mean is 1.3 or 2.55, so both
    saddle resolutions occur.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 4.0, (resolution, resolution))
    for i, j in rng.integers(0, resolution - 1, (6, 2)):
        hi, lo = (2.5, 0.1) if rng.random() < 0.5 else (3.9, 1.2)
        values[i, j] = values[i + 1, j + 1] = hi
        values[i + 1, j] = values[i, j + 1] = lo
    values[rng.random(values.shape) < 0.05] = np.inf
    thresholds = (1.0, 2.0, 3.0)
    classes = sum((values > t).astype(np.int32) for t in thresholds)
    return RasterGrid(thresholds=thresholds, values=values, classes=classes, which="d_pik")


class TestGridConstruction:
    def test_cell_centers(self):
        grid = raster_bt("d_pik", THRESHOLDS, 64)
        centers = grid.cell_centers()
        assert centers[0] == pytest.approx(0.5 / 64)
        assert centers[-1] == pytest.approx(63.5 / 64)

    # Rasters and the scalar derivatives share one kernel, so every cell
    # must equal the scalar value exactly.
    def test_values_match_pointwise_derivative(self):
        grid = raster_bt("d_pik", THRESHOLDS, 64)
        c = grid.cell_centers()
        expect = [[bt_partial(c[ix], c[iy]) for iy in range(64)] for ix in range(64)]
        assert (grid.values == np.array(expect)).all()

    def test_mirror_field(self):
        grid = raster_bt("d_pkj", THRESHOLDS, 64)
        c = grid.cell_centers()
        expect = [[bt_partial(c[iy], c[ix]) for iy in range(64)] for ix in range(64)]
        assert (grid.values == np.array(expect)).all()

    def test_pl_values(self):
        for which, idx in (("d_uv", 0), ("d_vu", 1)):
            grid = raster_pl(which, 1.01, 0.99, THRESHOLDS, 64)
            c = grid.cell_centers()
            expect = [
                [abs(pl_partials(c[ix], c[iy], 1.01, 0.99)[idx]) for iy in range(64)] for ix in range(64)
            ]
            assert (grid.values == np.array(expect)).all()

    def test_classes_monotone_in_value(self):
        grid = raster_pl("d_uv", 1.01, 0.99, THRESHOLDS, 64)
        order = np.argsort(grid.values, axis=None)
        classes_sorted = grid.classes.flatten()[order]
        assert np.all(np.diff(classes_sorted.astype(int)) >= 0)

    def test_class_counts(self):
        grid = raster_bt("d_pik", THRESHOLDS, 64)
        assert grid.classes.min() >= 0
        assert grid.classes.max() <= len(THRESHOLDS)
        expected = sum((grid.values > t).astype(int) for t in THRESHOLDS)
        np.testing.assert_array_equal(grid.classes, expected)

    # No denominator is 0 at a cell center, whose coordinates lie in
    # [h, 1 - h] with h = 1/(2 res). The BT one, ((1-p)(1-q) + pq)^2, is
    # smallest at the corners (1-h, h) and (h, 1-h), where it is
    # (2h(1-h))^2, about (1/res)^2; the PL one, (alpha p + q)^2 with
    # alpha >= 1, is at least (p + q)^2 >= (2h)^2 = (1/res)^2.
    def test_no_singular_cells_at_centers(self):
        for resolution in (64, 97):
            for which in ("d_pik", "d_pkj"):
                assert np.isfinite(raster_bt(which, THRESHOLDS, resolution).values).all()
            for which in ("d_uv", "d_vu"):
                assert np.isfinite(raster_pl(which, 1.01, 0.99, THRESHOLDS, resolution).values).all()

    # (alpha p + q)^2 overflows to inf at every cell, where the derivative's
    # limit is 0; the overflow is no warning.
    @pytest.mark.filterwarnings("error")
    def test_pl_huge_alpha_warns_nothing(self):
        grid = raster_pl("d_uv", 1e308, 0.99, (2.0,), 64)
        assert (grid.values == 0.0).all()
        assert (grid.classes == 0).all()

    def test_example_cell_is_sensitive_at_twenty(self):
        grid = raster_bt("d_pik", (1.01, 20.0), 128)
        ix = int(0.99 * 128)
        iy = int(0.02 * 128)
        assert grid.classes[ix, iy] == 2  # exceeds both 1.01 and 20

    def test_center_cells_below_all_thresholds(self):
        # The derivative at the middle of the square is 1.0, below every
        # default threshold.
        grid = raster_bt("d_pik", THRESHOLDS, 64)
        for ix in (31, 32):
            for iy in (31, 32):
                assert grid.classes[ix, iy] == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            raster_bt("d_pik", THRESHOLDS, 32)
        with pytest.raises(DomainError):
            raster_bt("sideways", THRESHOLDS, 64)
        with pytest.raises(DomainError):
            raster_bt("d_pik", (), 64)
        with pytest.raises(DomainError):
            raster_bt("d_pik", (2.0, 2.0), 64)
        with pytest.raises(DomainError):
            raster_pl("d_uv", 0.9, 0.99, THRESHOLDS, 64)
        with pytest.raises(DomainError):
            raster_pl(which="bad")
        with pytest.raises(DomainError):
            raster_bt("d_pik", THRESHOLDS, MAX_RESOLUTION + 1)

    def test_which_array_refused(self):
        # A one-element array compares equal to its string, but is not one.
        with pytest.raises(DomainError, match=re.escape("which must be 'd_pik' or 'd_pkj', got array(['d_pik']")):
            raster_bt(np.array(["d_pik"]), THRESHOLDS, 64)

    @pytest.mark.parametrize("resolution", ["x", None, 64.9, 64.0], ids=["x", "None", "64.9", "64.0"])
    def test_non_integer_resolution(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer"):
            raster_bt(resolution=resolution)
        with pytest.raises(DomainError, match="resolution must be an integer"):
            raster_pl(resolution=resolution)

    def test_numpy_integer_resolution(self):
        grid = raster_bt(resolution=np.int64(64))
        assert type(grid.resolution) is int
        assert (grid.values == raster_bt(resolution=64).values).all()

    @pytest.mark.parametrize(
        "thresholds", [("x",), (2.0, None), (math.nan,), (2.0, math.inf), (0.0, 2.0)],
        ids=["x", "None", "nan", "inf", "zero"],
    )
    def test_bad_thresholds(self, thresholds):
        with pytest.raises(DomainError):
            raster_bt(thresholds=thresholds, resolution=64)
        with pytest.raises(DomainError):
            raster_pl(thresholds=thresholds, resolution=64)

    @pytest.mark.parametrize(
        "thresholds", [2.0, None, np.float64(2.0), np.array(2.0)], ids=["float", "None", "np.float64", "0-d"]
    )
    def test_non_iterable_thresholds(self, thresholds):
        with pytest.raises(DomainError, match="thresholds must be a sequence"):
            raster_bt(thresholds=thresholds, resolution=64)
        with pytest.raises(DomainError, match="thresholds must be a sequence"):
            raster_pl(thresholds=thresholds, resolution=64)

    # A string is iterable, but its characters are not thresholds (2.0 and 5.0 here).
    def test_string_thresholds_refused(self):
        with pytest.raises(DomainError, match="thresholds must be a sequence, got '25'"):
            raster_bt(thresholds="25", resolution=64)

    # Every entry point that takes K-tuple constants rejects the same inputs.
    @pytest.mark.parametrize(
        "alpha, beta",
        [("x", 0.99), (None, 0.99), (math.nan, 0.99), (math.inf, 0.99),
         (0.9, 0.99), (1.01, 0.0), (1.01, 1.5)],
        ids=["x", "None", "nan", "inf", "alpha0.9", "beta0", "beta1.5"],
    )
    def test_non_finite_alpha(self, alpha, beta):
        for call in (
            lambda: pl_partials(0.3, 0.6, alpha, beta),
            lambda: pl_region(2.0, alpha, beta, 0.01, "uv"),
            lambda: pl_region_area(2.0, alpha, beta),
            lambda: compare_bt_pl_areas(2.0, alpha, beta),
        ):
            with pytest.raises(DomainError):
                call()
        with pytest.raises(DomainError):
            raster_pl("d_uv", alpha, beta, THRESHOLDS, 64)
        with pytest.raises(DomainError):
            quad_area_pl(2.0, alpha, beta)

    # Recorded from the default 64x64 figures (`prefsense raster {bt,pl}
    # --resolution 64`); every export must stay byte-identical.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("bt.csv", "c024fe96555cb353eaa24cca98c675a45e79826b3f75e6b11b539e901ed9c642"),
            ("bt.svg", "f7c5a132d2c73ea7d55005dadb3503d78592da11d64ba07e054f47da8b33315e"),
            ("pl.csv", "e386096160f83cef5fc4350014f3a73808612030e789579dbbee73e28a2c88b4"),
            ("pl.svg", "9fa5c65ebc46acfb8075297cc9c52b222d157dc58942b2d56b4f9c094f0e593f"),
        ],
    )
    def test_export_digest(self, tmp_path, name, digest):
        model, fmt = name.split(".")
        grid = raster_bt(resolution=64) if model == "bt" else raster_pl(resolution=64)
        path = tmp_path / name
        export(grid, fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # The 512x512 figures (`prefsense raster {bt,pl}` at the default size).
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("bt.csv", "3fb362c65159c3c5fd37b24bae522ffacbc92dda7aaa698e05a85166a66b853f"),
            ("bt.svg", "874ade1db937706285ba523781f6d0d0c945ce00f6484c33ba810cb6684d900f"),
            ("pl.csv", "0d646b65d6c0b2d0e8a6c4e27b07007d6a64356d561fb6c445f5e5653e82eb80"),
            ("pl.svg", "d26c2c1929d5e887968024323e39995e0c4cafee0686c0c21c597d43387e9f34"),
        ],
    )
    def test_default_digest(self, tmp_path, name, digest):
        model, fmt = name.split(".")
        grid = raster_bt() if model == "bt" else raster_pl()
        path = tmp_path / name
        export(grid, fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRegionAgreement:
    def test_bt_classes_match_analytic_membership(self):
        resolution = 128
        grid = raster_bt("d_pik", THRESHOLDS, resolution)
        centers = grid.cell_centers()
        cell = 1.0 / resolution
        for level, t in enumerate(THRESHOLDS, start=1):
            exceeded = grid.classes >= level
            for iy in range(0, resolution, 7):
                region = bt_region_slice(t, centers[iy])
                if region.case == "case1":
                    analytic = centers > region.boundary
                elif region.case == "case2":
                    analytic = centers < region.boundary
                else:
                    analytic = np.zeros(resolution, dtype=bool)
                mismatch = np.nonzero(analytic != exceeded[:, iy])[0]
                assert all(abs(centers[i] - region.boundary) <= cell for i in mismatch)

    def test_pl_classes_match_analytic_membership(self):
        resolution = 128
        grid = raster_pl("d_uv", 1.01, 0.99, THRESHOLDS, resolution)
        centers = grid.cell_centers()
        cell = 1.0 / resolution
        for level, t in enumerate(THRESHOLDS, start=1):
            exceeded = grid.classes >= level
            for ix in range(0, resolution, 7):
                bounds = pl_region(t, 1.01, 0.99, centers[ix], "uv")
                if bounds.empty:
                    analytic = np.zeros(resolution, dtype=bool)
                    curve = []
                else:
                    lo, hi = bounds.interval
                    analytic = (centers > lo) & (centers < hi)
                    curve = [lo, hi]
                mismatch = np.nonzero(analytic != exceeded[ix, :])[0]
                assert all(
                    any(abs(centers[i] - c) <= cell for c in curve) for i in mismatch
                )


class TestCSVExport:
    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "tiny.csv"
        export(tiny_grid(), "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,value,class"
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize("resolution", [64, 97])
    @pytest.mark.parametrize("which", ["d_pik", "d_pkj", "d_uv", "d_vu"])
    @pytest.mark.parametrize("inf", [False, True], ids=["finite", "singular"])
    def test_matches_reference_writer(self, tmp_path, resolution, which, inf):
        make = raster_bt if which in ("d_pik", "d_pkj") else raster_pl
        grid = make(which, thresholds=(2, 5), resolution=resolution)
        if inf:
            grid = with_inf_cells(grid)
        path = tmp_path / "grid.csv"
        export(grid, "csv", path)
        assert path.read_bytes() == reference_csv_text(grid).encode("utf-8")

    # Every column reads back exactly as printed, +inf included.
    def test_round_trip(self, tmp_path):
        grid = with_inf_cells(raster_bt("d_pik", THRESHOLDS, 64))
        path = tmp_path / "grid.csv"
        export(grid, "csv", path)
        data = read_csv_grid(path)
        centers = [float(f"{c:.9g}") for c in grid.cell_centers().tolist()]
        assert data["x"].tolist() == [cx for cx in centers for _ in centers]
        assert data["y"].tolist() == centers * 64
        assert data["value"].tolist() == [float(f"{v:.9g}") for v in grid.values.ravel().tolist()]
        assert np.isinf(data["value"]).sum() == np.isinf(grid.values).sum() > 0
        assert data["class"].dtype == np.int64
        assert (data["class"] == grid.classes.ravel()).all()

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,y,value,class\n0.25,0.75,inf,3\n")
        data = read_csv_grid(path)
        assert [data[k].tolist() for k in ("x", "y", "value", "class")] == [
            [0.25], [0.75], [math.inf], [3]
        ]

    # numpy only warns on a header-only file; it must not leak.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            "x,y,val,class\n0.5,0.5,1.0,0\n",
            "x,y,value,class\n0.5,0.5,1.0,0\n0.5,0.5,abc,0\n",
            "x,y,value,class\n0.5,0.5,1.0\n",
            "x,y,value,class\n0.5,0.5,1.0,1.5\n",
            "x,y,value,class\n",
            "",
        ],
        ids=["header", "non-number", "three-columns", "fractional-class", "header-only", "empty"],
    )
    def test_malformed_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match="bad.csv"):
            read_csv_grid(path)

    # Under the default filters too: the refusal is not a converted warning.
    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,value,class\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="bad.csv"):
                read_csv_grid(path)
        assert caught == []

    def test_byte_identical_re_export(self, tmp_path):
        grid = raster_pl("d_uv", 1.01, 0.99, THRESHOLDS, 64)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export(grid, "csv", a)
        export(grid, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            export(tiny_grid(), "png", tmp_path / "no.png")

    def test_io_error_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="missing-dir"):
            export(tiny_grid(), "csv", tmp_path / "missing-dir" / "x.csv")

    # Rows are formatted as they are written, so the text never exists whole.
    def test_peak_memory_above_the_grid(self, tmp_path):
        grid = raster_bt("d_pik", THRESHOLDS, 1024)
        tracemalloc.start()
        try:
            export(grid, "csv", tmp_path / "grid.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024**2

    # Streaming opens the file before the rows are formatted, so a grid the
    # row loop cannot format is refused first and the file keeps its bytes.
    @pytest.mark.parametrize("format", ["csv", "svg"])
    @pytest.mark.parametrize(
        "field, change",
        [
            ("values", lambda a: a[:, :32]),
            ("classes", lambda a: a[:32]),
            ("values", lambda a: a[0]),
            ("values", lambda a: a.tolist()),
            ("values", lambda a: a.astype(str)),
            ("classes", lambda a: a.astype(float)),
        ],
        ids=["values-columns", "classes-rows", "values-1d", "values-list", "values-str", "classes-float"],
    )
    def test_malformed_grid_refused_before_writing(self, tmp_path, format, field, change):
        grid = raster_bt(resolution=64)
        bad = dataclasses.replace(grid, **{field: change(getattr(grid, field))})
        path = tmp_path / f"kept.{format}"
        path.write_bytes(b"kept\n")
        wording = "a square real array" if field == "values" else "an integer array of shape (64, 64)"
        with pytest.raises(ValidationError, match=re.escape(f"grid {field} must be {wording}")):
            export(bad, format, path)
        assert path.read_bytes() == b"kept\n"

    # The SVG axis names follow from which, so an unknown field is refused too.
    @pytest.mark.parametrize("format", ["csv", "svg"])
    def test_unknown_which_refused_before_writing(self, tmp_path, format):
        bad = dataclasses.replace(tiny_grid(), which="d_xy")
        path = tmp_path / f"kept.{format}"
        path.write_bytes(b"kept\n")
        with pytest.raises(DomainError, match="grid which must be 'd_pik' or 'd_pkj' or 'd_uv' or 'd_vu', got 'd_xy'"):
            export(bad, format, path)
        assert path.read_bytes() == b"kept\n"


class TestSVGExport:
    def test_well_formed_and_layered(self, tmp_path):
        grid = raster_bt("d_pik", THRESHOLDS, 64)
        path = tmp_path / "grid.svg"
        export(grid, "svg", path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        layers = [
            el
            for el in root.iter()
            if el.tag.endswith("g") and el.get("id", "").startswith("class-")
        ]
        assert len(layers) == len(THRESHOLDS) + 1

    def test_byte_identical_re_export(self, tmp_path):
        grid = raster_pl("d_vu", 1.01, 0.99, THRESHOLDS, 64)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        export(grid, "svg", a)
        export(grid, "svg", b)
        assert a.read_bytes() == b.read_bytes()

    # raster_bt and raster_pl refuse an empty threshold list, but a grid
    # built by hand may have none: the figure is then the class-0 layer.
    def test_grid_without_thresholds(self, tmp_path):
        grid = dataclasses.replace(tiny_grid(), thresholds=())
        path = tmp_path / "grid.svg"
        export(grid, "svg", path)
        ids = [el.get("id") for el in ET.fromstring(path.read_text()).iter() if el.get("id")]
        assert ids == ["class-0"]

    def test_unreachable_threshold_gives_empty_layer(self, tmp_path):
        grid = raster_pl("d_uv", 1.01, 0.99, (1.01, 2.0, 1e9), 64)
        path = tmp_path / "grid.svg"
        export(grid, "svg", path)
        text = path.read_text()
        assert '<g id="class-3"><path d=""' in text

    @pytest.mark.parametrize("which", ["d_pik", "d_pkj", "d_uv", "d_vu"])
    def test_axis_names(self, tmp_path, which):
        bt = which in ("d_pik", "d_pkj")
        path = tmp_path / "grid.svg"
        export((raster_bt if bt else raster_pl)(which, resolution=64), "svg", path)
        texts = [el.text for el in ET.fromstring(path.read_text()).iter() if el.tag.endswith("text")]
        assert texts[6:8] == (["p_ik", "p_kj"] if bt else ["p_uv", "p_vu"])  # after six tick labels

    # Saddles of both kinds and +inf cells, which the default figures lack,
    # give the reference tracer's path bytes.
    def test_matches_reference_tracer(self, tmp_path):
        seen = Counter()
        for seed in range(20):
            grid = saddle_grid(seed)
            path = tmp_path / f"{seed}.svg"
            export(grid, "svg", path)
            paths = re.findall(r'<path d="([^"]*)"', path.read_text())
            assert paths == [
                reference_contour_path(grid.values, t, grid.resolution, seen)
                for t in grid.thresholds
            ]
        assert seen["saddle above"] and seen["saddle below"] and seen["non-finite end"]

    def test_contour_tracks_boundary(self, tmp_path):
        # All path coordinates for the top threshold layer must stay in
        # the plot frame.
        grid = raster_bt("d_pik", (2.0,), 64)
        path = tmp_path / "grid.svg"
        export(grid, "svg", path)
        root = ET.fromstring(path.read_text())
        for el in root.iter():
            if el.tag.endswith("path"):
                tokens = el.get("d").replace("M", " ").replace("L", " ").replace("Z", " ")
                coords = [float(tok) for tok in tokens.split()]
                assert coords, "expected a nonempty contour at threshold 2"
                assert all(59.99 <= c <= 660.01 for c in coords)
