"""Rasterized derivative-magnitude fields and region figures.

A raster samples the derivative magnitude at cell centers over the open
unit square, classifies each cell by the largest sensitivity threshold it
exceeds, and exports either the raw field (CSV) or layered filled
contours (SVG, extracted with marching squares).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    PrefsenseError,
    require_alpha_beta,
    require_choice,
    require_finite,
    require_instance,
    require_int,
    require_items,
    text_file,
)
from .sensitivity import bt_partial_terms, pl_partial_terms

__all__ = [
    "DEFAULT_THRESHOLDS",
    "DEFAULT_RESOLUTION",
    "MAX_RESOLUTION",
    "RasterGrid",
    "raster_bt",
    "raster_pl",
    "export",
    "read_csv_grid",
]

DEFAULT_THRESHOLDS = (1.01, 2.0, 3.0, 5.0, 10.0)
DEFAULT_RESOLUTION = 512
# Memory grows as resolution^2. Measured with tracemalloc at 256^2-1024^2:
# CSV export peaks at about 91 B per cell (78 for the text and row lists plus
# the 13 the grid keeps; building a grid or reading the CSV back takes less),
# so about 1.5 GB at this cap, the same order as synth.MAX_SAMPLES. Larger
# requests are refused before anything is allocated.
MAX_RESOLUTION = 4096

_MARGIN = 60
_PLOT = 600
_SIZE = _MARGIN * 2 + _PLOT

# Light-to-dark blues; class 0 (below every threshold) is the lightest.
_PALETTE = (
    "#f7fbff",
    "#deebf7",
    "#c6dbef",
    "#9ecae1",
    "#6baed6",
    "#4292c6",
    "#2171b5",
    "#08519c",
    "#08306b",
)


@dataclass(frozen=True)
class RasterGrid:
    """Derivative magnitudes sampled at cell centers ((i+1/2)/res, (j+1/2)/res).

    values and classes are indexed [ix, iy]; classes[i, j] counts how many
    thresholds the magnitude exceeds (0 = below all). Cells where the
    derivative is undefined are flagged in `singular` and carry +inf, so
    they classify above every threshold instead of being dropped.
    """

    resolution: int
    thresholds: tuple[float, ...]
    values: np.ndarray
    classes: np.ndarray
    singular: np.ndarray
    which: str
    xlabel: str
    ylabel: str

    def cell_centers(self) -> np.ndarray:
        return _centers(self.resolution)


def _centers(resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution


def _check_thresholds(thresholds) -> tuple[float, ...]:
    ts = tuple(require_finite(t, "threshold") for t in require_items(thresholds, "thresholds"))
    if not ts:
        raise DomainError("at least one threshold is required")
    if any(t <= 0 for t in ts):
        raise DomainError(f"thresholds must be positive, got {ts}")
    st = tuple(sorted(set(ts)))
    if len(st) != len(ts):
        raise DomainError(f"thresholds must be distinct, got {ts}")
    return st


def _check_resolution(resolution: int) -> int:
    resolution = require_int(resolution, "resolution")
    if not 64 <= resolution <= MAX_RESOLUTION:
        raise DomainError(f"resolution must lie in [64, {MAX_RESOLUTION}], got {resolution}")
    return resolution


def _grid(numer, denom, thresholds, which: str, xlabel: str, ylabel: str) -> RasterGrid:
    """Divide a kernel's terms into the [ix, iy] grid and classify the magnitudes.

    Kernels get x as a column and y as a row, so only terms of both take a
    full grid. Cells with a zero denominator are singular and set to +inf.
    """
    singular = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = numer / denom
    values[singular] = np.inf
    classes = np.zeros(values.shape, dtype=np.int32)
    for t in thresholds:
        classes += values > t
    return RasterGrid(
        resolution=values.shape[0],
        thresholds=thresholds,
        values=values,
        classes=classes,
        singular=singular,
        which=which,
        xlabel=xlabel,
        ylabel=ylabel,
    )


def raster_bt(
    which: str = "d_pik",
    thresholds=DEFAULT_THRESHOLDS,
    resolution: int = DEFAULT_RESOLUTION,
) -> RasterGrid:
    """Rasterize the pairwise composition derivative over (p_ik, p_kj).

    which selects the magnitude field: "d_pik" for the derivative with
    respect to the x coordinate, "d_pkj" for the y coordinate.
    """
    require_choice(which, ("d_pik", "d_pkj"), "which")
    thresholds = _check_thresholds(thresholds)
    c = _centers(_check_resolution(resolution))
    x, y = c[:, None], c[None, :]
    numer, denom = bt_partial_terms(x, y) if which == "d_pik" else bt_partial_terms(y, x)
    return _grid(numer, denom, thresholds, which, "p_ik", "p_kj")


def raster_pl(
    which: str = "d_uv",
    alpha: float = 1.01,
    beta: float = 0.99,
    thresholds=DEFAULT_THRESHOLDS,
    resolution: int = DEFAULT_RESOLUTION,
) -> RasterGrid:
    """Rasterize the K-tuple swap-pair derivative over (p_uv, p_vu)."""
    require_choice(which, ("d_uv", "d_vu"), "which")
    alpha, beta = require_alpha_beta(alpha, beta)
    thresholds = _check_thresholds(thresholds)
    c = _centers(_check_resolution(resolution))
    x, y = c[:, None], c[None, :]
    numer, denom = pl_partial_terms(x, y, alpha, beta, "uv" if which == "d_uv" else "vu")
    return _grid(numer, denom, thresholds, which, "p_uv", "p_vu")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _csv_text(grid: RasterGrid) -> str:
    # One %-template per grid row, with the formatted y centers written in.
    centers = [f"{c:.9g}" for c in grid.cell_centers().tolist()]
    template = "".join(f"%s,{cy},%.9g,%d\n" for cy in centers)
    fields = [None] * (3 * grid.resolution)
    lines = ["x,y,value,class\n"]
    for cx, values, classes in zip(centers, grid.values.tolist(), grid.classes.tolist()):
        fields[0::3] = [cx] * grid.resolution
        fields[1::3] = values
        fields[2::3] = classes
        lines.append(template % tuple(fields))
    return "".join(lines)


def read_csv_grid(path) -> dict[str, np.ndarray]:
    """Re-parse an exported CSV into flat x/y/value/class arrays, or raise DomainError."""
    try:
        with text_file(path) as fh, warnings.catch_warnings():
            header = fh.readline().strip()
            if header != "x,y,value,class":
                raise DomainError(f"unexpected CSV header {header!r} in {path}")
            warnings.simplefilter("error", UserWarning)  # numpy only warns on an empty body
            dtype = [("x", "f8"), ("y", "f8"), ("value", "f8"), ("class", "i8")]
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except PrefsenseError:  # the header's, or text_file's for text that is not UTF-8
        raise
    except ValueError as exc:
        raise DomainError(f"malformed CSV row in {path}: {exc}") from exc
    except UserWarning as exc:
        raise DomainError(f"no data rows after the header in {path}") from exc
    return {name: data[name] for name in data.dtype.names}


# ---------------------------------------------------------------------------
# SVG export (marching squares)
# ---------------------------------------------------------------------------

# Marching-squares cases: bit k is set when corner k of cell (i, j) is above
# the level, corners 0-3 being (i, j), (i+1, j), (i+1, j+1) and (i, j+1). Each
# case lists the pairs of cell edges (bottom, left, top, right) its contour
# segments join. The saddles 5 and 10 are listed as cut when the cell-center
# mean is at or below the level.
_CASES = ("", "lb", "br", "lr", "rt", "lb rt", "bt", "lt",
          "tl", "bt", "br tl", "rt", "lr", "br", "lb", "")


def _contour_path(values: np.ndarray, level: float, resolution: int) -> str:
    """SVG path data for the closed loops of the level set {field > level}.

    The grid is padded so every region touching the domain boundary closes
    along it. Node (i, j) of the padded grid is i * side + j; the edge to
    (i+1, j) has id 2 * node and the edge to (i, j+1) has id 2 * node + 1.
    """
    side = resolution + 2
    v = np.full((side, side), level - max(1.0, abs(level)))
    v[1:-1, 1:-1] = values
    inside = v > level
    case = inside[:-1, :-1] + 2 * inside[1:, :-1] + 4 * inside[1:, 1:] + 8 * inside[:-1, 1:]
    i, j = np.nonzero((case != 0) & (case != 15))
    case = case[i, j]
    saddle = (case == 5) | (case == 10)
    si, sj = i[saddle], j[saddle]
    center = (v[si, sj] + v[si + 1, sj] + v[si, sj + 1] + v[si + 1, sj + 1]) / 4.0
    # A saddle whose center is above the level joins the corners the other
    # saddle cuts off, so it takes the other saddle's segments.
    case[saddle] = np.where(center > level, 15 - case[saddle], case[saddle])

    offset = {"b": 0, "l": 1, "t": 2, "r": 2 * side + 1}
    table = [[(offset[a], offset[b]) for a, b in segs.split()] for segs in _CASES]
    nbrs: dict[int, list[int]] = {}
    for base, c in zip((2 * (i * side + j)).tolist(), case.tolist()):
        for a, b in table[c]:
            nbrs.setdefault(base + a, []).append(base + b)
            nbrs.setdefault(base + b, []).append(base + a)

    node, vertical = np.divmod(np.fromiter(nbrs, dtype=np.int64, count=len(nbrs)), 2)
    v0, v1 = v.flat[node], v.flat[node + np.where(vertical, 1, side)]
    f0, f1 = np.isfinite(v0), np.isfinite(v1)
    with np.errstate(invalid="ignore"):
        t = (level - v0) / (v1 - v0)
    # A non-finite end pulls the crossing onto itself; two put it mid-edge.
    t = np.where(f0 & f1, t, np.where(f0, 1.0, np.where(f1, 0.0, 0.5)))
    x = (node // side - 0.5) / resolution
    y = (node % side - 0.5) / resolution
    x = np.clip(np.where(vertical, x, x + t / resolution), 0.0, 1.0)
    y = np.clip(np.where(vertical, y + t / resolution, y), 0.0, 1.0)
    px, py = _to_px(x, y)
    label = dict(zip(nbrs, map("%.2f %.2f".__mod__, zip(px.tolist(), py.tolist()))))

    chunks = []
    for start in nbrs:
        if start not in label:  # already on a traced loop
            continue
        loop = [label.pop(start)]
        prev, cur = None, start
        while True:
            ends = nbrs[cur]
            nxt = ends[0] if ends[0] != prev else ends[1]
            if nxt == start:
                break
            loop.append(label.pop(nxt))
            prev, cur = cur, nxt
        chunks.append(f"M{' L'.join(loop)} Z")
    return " ".join(chunks)


def _to_px(x: float, y: float) -> tuple[float, float]:
    return (_MARGIN + x * _PLOT, _MARGIN + (1.0 - y) * _PLOT)


def _palette_color(k: int, n_classes: int) -> str:
    if n_classes <= 1:
        return _PALETTE[0]
    idx = round(k * (len(_PALETTE) - 1) / (n_classes - 1))
    return _PALETTE[idx]


def _svg_text(grid: RasterGrid) -> str:
    n_classes = len(grid.thresholds) + 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        f'<g id="class-0"><rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" '
        f'height="{_PLOT}" fill="{_palette_color(0, n_classes)}"/></g>',
    ]
    for k, level in enumerate(grid.thresholds):
        d = _contour_path(grid.values, level, grid.resolution)
        parts.append(
            f'<g id="class-{k + 1}"><path d="{d}" fill="{_palette_color(k + 1, n_classes)}" '
            'fill-rule="evenodd" stroke="none"/></g>'
        )
    frame_style = 'fill="none" stroke="#000000" stroke-width="1"'
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" height="{_PLOT}" {frame_style}/>'
    )
    for tick in (0.0, 0.5, 1.0):
        px, py = _to_px(tick, 0.0)
        parts.append(
            f'<text x="{px:.2f}" y="{py + 20:.2f}" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{tick:g}</text>'
        )
        px, py = _to_px(0.0, tick)
        parts.append(
            f'<text x="{px - 10:.2f}" y="{py + 5:.2f}" font-size="14" '
            f'text-anchor="end" font-family="sans-serif">{tick:g}</text>'
        )
    cx = _MARGIN + _PLOT / 2
    parts.append(
        f'<text x="{cx}" y="{_SIZE - 12}" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{grid.xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN + _PLOT / 2}" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_MARGIN + _PLOT / 2})">'
        f"{grid.ylabel}</text>"
    )
    for k, level in enumerate(grid.thresholds):
        ly = _MARGIN + 14 + 18 * k
        lx = _MARGIN + _PLOT + 6
        parts.append(
            f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" '
            f'fill="{_palette_color(k + 1, n_classes)}" stroke="#000000" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{lx + 16}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">&gt; {level:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export(grid: RasterGrid, format: str, path) -> str:
    """Write a grid to disk as CSV or SVG; returns the path written.

    Output is a pure function of the grid, so re-exporting the same grid
    produces a byte-identical file.
    """
    require_instance(grid, RasterGrid, "grid")
    if require_choice(format, ("csv", "svg"), "format") == "csv":
        text = _csv_text(grid)
    else:
        text = _svg_text(grid)
    try:
        with text_file(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {format} export to {path!r}: {exc}") from exc
    return str(path)
