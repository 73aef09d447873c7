"""Finite approximations of the attractor: rectangle covers, box counts, SVG.

The stopping set at scale delta covers the attractor by cylinder rectangles of
height at most delta (and width smaller than height times one row ratio), so
counting occupied grid cells of size delta gives the covering number N_delta
up to a bounded factor.  `approx_set` and the SVG read the cover as the
`Rects` columns of the cylinder walk in `carpet`.  One grid-cell counter,
`_count_cells`, serves both counts: `count_grid_cells` hands it the rects as
one run, and `box_count`, which never builds the cover, hands it the same
walk's bounded runs piece by piece, keeping only their distinct cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carpet import (CarpetSpec, Cylinders, Rects, _budget, _digit_table, _walk, _whole,
                     enumerate_depth, enumerate_stopping)
from .errors import BudgetExceeded

# Relative snap applied to coordinate/delta before flooring, so that edges
# meant to lie on a grid line are treated as exactly on it.
GRID_SNAP = 1e-9

# Cap on total emitted (cell per rect) pairs inside one count.
MAX_GRID_CELLS = 50_000_000


@dataclass(frozen=True)
class NDeltaCurve:
    """Box-count samples (delta, count) with delta strictly decreasing."""

    samples: tuple[tuple[float, int], ...]

    @property
    def slope(self) -> float:
        """Least-squares slope of log(count) against log(1/delta)."""
        deltas = np.array([d for d, _ in self.samples])
        counts = np.array([c for _, c in self.samples])
        return float(np.polyfit(np.log(1.0 / deltas), np.log(counts), 1)[0])


def _in_unit(delta: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")


def approx_set(spec: CarpetSpec, delta: float) -> Cylinders:
    """The delta-stopping cylinders, as `enumerate_stopping`, for delta in (0, 1] only."""
    _in_unit(delta)
    return enumerate_stopping(spec, delta)


def _grid_index(vals: np.ndarray, delta: float, upper: bool = False) -> np.ndarray:
    """Cell index of each coordinate as a float64 integer (inf once vals / delta
    overflows): q = vals / delta, snapped to rint(q) when within GRID_SNAP *
    max(1, |q|) of it, then floored.  An `upper` edge snapped onto a line takes
    the cell below it (a rect's span is clamped to at least its lower cell)."""
    q = vals / delta
    on_line = np.abs(q - np.rint(q)) <= GRID_SNAP * np.maximum(np.abs(q), 1.0)
    np.floor(np.rint(q, out=q, where=on_line), out=q)
    if upper:
        np.subtract(q, 1.0, out=q, where=on_line)
    return q


def _sort_cells(u: np.ndarray, v: np.ndarray):
    """The cells (u, v) sorted by u then v, and a mask of the first of each
    distinct cell: by sorting, since a linear key u * V + v overflows int64."""
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    del order
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u, v, first


def _count_cells(runs, delta: float) -> int:
    """Distinct grid cells of size delta meeting the rects of `runs`, an
    iterable of `Rects`: the one counter behind `count_grid_cells` and
    `box_count`.

    Each rect's span of cells, from its lower-left cell (u0, v0) over `rows`
    rows, is found in float64, so a tiny delta is refused with its true cell
    count before any int64 math.  Each run's cells are expanded, sorted and
    made distinct alone, and only its distinct cells are kept until all runs
    are merged; a run is let go once its spans are found, so `runs` should
    not hold it.  The refusals come once every run is read, in this order:
    more than MAX_GRID_CELLS (cell, rect) pairs in all, then a cell index
    float64 does not hold exactly.
    """
    total, exact, us, vs = 0.0, True, [], []
    for cols in runs:
        # A fine enough grid overflows indices to inf; fmax maps inf - inf (NaN) to 0.
        with np.errstate(over="ignore", invalid="ignore"):
            u0, v0 = _grid_index(cols.x0, delta), _grid_index(cols.y0, delta)
            rows = np.fmax(_grid_index(cols.y1, delta, upper=True) - v0, 0.0) + 1.0
            spans = (np.fmax(_grid_index(cols.x1, delta, upper=True) - u0, 0.0) + 1.0) * rows
        del cols  # and its x1, y1 columns, unless the caller holds them
        total += float(spans.sum())
        exact = exact and bool((np.abs([u0, v0]) < 2.0**53).all())
        if total <= MAX_GRID_CELLS and exact:  # the only spans expanded
            spans = spans.astype(np.int64)
            # Cell k of a rect's span is (u0 + k // rows, v0 + k % rows).
            u, v = np.divmod(np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans),
                             np.repeat(rows.astype(np.int64), spans))
            u += np.repeat(u0.astype(np.int64), spans)
            v += np.repeat(v0.astype(np.int64), spans)
            del u0, v0, rows, spans
            u, v, first = _sort_cells(u, v)
            us.append(u[first])
            vs.append(v[first])
            del u, v, first
    if not total <= MAX_GRID_CELLS:
        raise BudgetExceeded(f"grid count at delta={delta} touches {total:.0f} cells")
    if not exact:
        raise ValueError(f"delta={delta} is finer than float64 resolves the rect coordinates")
    u, v = np.concatenate(us), np.concatenate(vs)
    del us, vs
    return int(np.count_nonzero(_sort_cells(u, v)[2]))


def count_grid_cells(rects, delta: float) -> int:
    """Distinct grid cells (anchored at the origin, size delta) meeting the rects.

    Cells are half-open: a point on a grid line belongs to the cell on its
    upper side, and a rect's own top/right edge sitting exactly on a grid line
    does not claim the next cell (degenerate rects claim the one cell holding
    them).  This matches the usual box-counting convention where each point
    contributes exactly one cell.  The rects are `_count_cells`' one run.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    return _count_cells(map(Rects.of, [rects]), delta)  # a map holds no columns


def box_count(spec: CarpetSpec, delta: float) -> int:
    """Occupied delta-grid cells of the delta-stopping approximation, for
    delta in (0, 1]: `count_grid_cells(approx_set(spec, delta).rects, delta)`
    with the same refusals, in that order.

    The stopping set is never built: the walk's bounded runs (`carpet._walk`)
    are `_count_cells`' runs, one piece of stopped rows at a time, so memory
    grows with one piece and the distinct cells, not with the cylinders.
    The counter reads every run before a grid refusal, so that the cylinder
    cap refuses first as it would and the refusal names the whole count.
    """
    _in_unit(delta)
    runs = _walk(*_digit_table(spec), f"stopping set at delta={delta}", delta=delta, bounded=True)
    return _count_cells((Rects(t[0], t[1], s[0], s[1]) for _, s, t in runs), delta)


def n_delta_curve(spec: CarpetSpec, delta_max: float, delta_min: float,
                  steps: int) -> NDeltaCurve:
    """box_count sampled on a geometric grid from delta_max down to delta_min."""
    if not 0.0 < delta_min < delta_max <= 1.0:
        raise ValueError(
            f"need 0 < delta_min < delta_max <= 1, got {delta_min}, {delta_max}")
    _whole(steps, 2, "steps")
    _budget(steps, f"box-count curve: {steps} steps")
    deltas = np.geomspace(delta_max, delta_min, int(steps))
    return NDeltaCurve(tuple((float(d), box_count(spec, float(d))) for d in deltas))


def render_svg(spec: CarpetSpec, depth: int | None = None,
               delta: float | None = None, size: int = 512) -> str:
    """SVG figure with one black rect per cylinder, unit square viewBox.

    Exactly one of depth/delta selects the cylinder family.  The y axis is
    flipped so row 1 (offset 0) sits at the bottom of the image.
    """
    if (depth is None) == (delta is None):
        raise ValueError("give exactly one of depth or delta")
    _whole(size, 1, "size")
    if depth is not None:
        rects = enumerate_depth(spec, depth).rects
    else:
        rects = approx_set(spec, delta).rects
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"'
        ' viewBox="0 0 1 1">',
        '<g fill="black" stroke="none" opacity="1">',
    ]
    # tolist() gives Python floats, whose repr is the shortest round trip.
    for x, y, w, h in zip(rects.x0.tolist(), (1.0 - rects.y1).tolist(),
                          rects.w.tolist(), rects.h.tolist()):
        lines.append(f'<rect x="{x!r}" y="{y!r}" width="{w!r}" height="{h!r}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
