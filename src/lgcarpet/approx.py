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


def _key_span(u_lo, u_hi, v_lo, v_hi) -> int:
    """V = v_hi - v_lo + 1 when the key (u - u_lo) * V + (v - v_lo) of every
    cell from (u_lo, v_lo) to (u_hi, v_hi) is below 2**62, else 0."""
    span = int(v_hi) - int(v_lo) + 1
    return span if (int(u_hi) - int(u_lo) + 1) * span <= 2**62 else 0


def _sort_cells(u: np.ndarray, v: np.ndarray):
    """The distinct cells among int64 columns (u, v), as columns sorted by u
    then v.  One np.sort of the key (u - u0) * V + (v - v0), with u0, v0 the
    least indices and V the v span + 1, orders them when `_key_span` admits
    it; np.lexsort does so only past that, for cells spread over more than
    about 2**31 indices on both axes.  The columns are not empty."""
    u0, v0 = u.min(), v.min()
    span = _key_span(u0, u.max(), v0, v.max())
    if span:
        key = (u - u0) * span + (v - v0)
        key.sort()
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        u, v = np.divmod(key[first], span)
        return u + u0, v + v0
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    del order
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[first], v[first]


def _count_cells(runs, delta: float) -> int:
    """Distinct grid cells of size delta meeting the rects of `runs`, an
    iterable of `Rects`: the one counter behind `count_grid_cells` and
    `box_count`.

    Each rect's span of cells, from its lower-left cell (u0, v0) over `rows`
    rows, is found in float64, so a tiny delta is refused with its true cell
    count before any int64 math.  Each run's cells are expanded and made
    distinct alone (`_sort_cells`), and only its distinct cells are kept
    until all runs are merged; a run is let go once its spans are found, so
    `runs` should not hold it.  The merge keys every kept cell as
    `_sort_cells` does, with u0, v0 and V of all runs together, and sorts
    the keys once, stably: each run's keys are already in order, so timsort
    merges them.  Only where that key would reach 2**62 (`_key_span`) are
    the runs' cells lexsorted.  The refusals come once every run is read, in
    this order: more than MAX_GRID_CELLS (cell, rect) pairs in all, then a
    cell index float64 does not hold exactly.
    """
    total, exact, cells = 0.0, True, []
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
            if len(u):
                cells.append(_sort_cells(u, v))
            del u, v
    if not total <= MAX_GRID_CELLS:
        raise BudgetExceeded(f"grid count at delta={delta} touches {total:.0f} cells")
    if not exact:
        raise ValueError(f"delta={delta} is finer than float64 resolves the rect coordinates")
    if len(cells) < 2:
        return sum(len(u) for u, _ in cells)
    # Each run's u column is sorted, so its ends are its least and greatest u.
    u0, v0 = min(int(u[0]) for u, _ in cells), min(int(v.min()) for _, v in cells)
    span = _key_span(u0, max(int(u[-1]) for u, _ in cells), v0, max(int(v.max()) for _, v in cells))
    if not span:
        us, vs = zip(*cells)
        del cells
        return len(_sort_cells(np.concatenate(us), np.concatenate(vs))[0])
    keys = []
    while cells:  # each run's keys replace its columns
        u, v = cells.pop()
        keys.append((u - u0) * span + (v - v0))
        del u, v
    keys = np.concatenate(keys)
    keys.sort(kind="stable")
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


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
    steps = _whole(steps, 2, "steps")
    _budget(steps, f"box-count curve: {steps} steps")
    deltas = np.geomspace(delta_max, delta_min, steps)
    return NDeltaCurve(tuple((float(d), box_count(spec, float(d))) for d in deltas))


def render_svg(spec: CarpetSpec, depth: int | None = None,
               delta: float | None = None, size: int = 512) -> str:
    """SVG figure with one black rect per cylinder, unit square viewBox.

    Exactly one of depth/delta selects the cylinder family.  The y axis is
    flipped so row 1 (offset 0) sits at the bottom of the image.
    """
    if (depth is None) == (delta is None):
        raise ValueError("give exactly one of depth or delta")
    size = _whole(size, 1, "size")
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
