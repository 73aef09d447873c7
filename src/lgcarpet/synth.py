"""Ready-made specs and seeded random inputs for tests, demos, and benchmarks."""

from __future__ import annotations

import numpy as np

from .carpet import CarpetSpec, Cell, Rect, RowSpec

MAX_EXTENT = 0.05  # random_rects: every side is below it
M_RANGE, N_MAX = (2, 5), 6  # random_grid_spec: m in M_RANGE, m < n <= N_MAX


def cantor_dust() -> CarpetSpec:
    """Four corner cells in the bottom and top of three rows; middle row empty.

    The attractor is a product of two Cantor-type sets (ratios 1/4 and 1/3),
    totally disconnected with an empty row, hence uniformly disconnected.
    s1 = log2/log3, box dimension = log_3 2 + 1/2.
    """
    corner_row = RowSpec(1.0 / 3.0, (Cell(0.25, 0.0), Cell(0.25, 0.75)))
    return CarpetSpec((corner_row, RowSpec(1.0 / 3.0, ()), corner_row))


def three_map_carpet() -> CarpetSpec:
    """Two half-height rows, three width-1/3 cells in a checker arrangement.

    Every row is nonempty, so the attractor is not uniformly disconnected.
    s1 = 1, box dimension = 1 + log_3(3/2).
    """
    return CarpetSpec((
        RowSpec(0.5, (Cell(1.0 / 3.0, 0.0), Cell(1.0 / 3.0, 2.0 / 3.0))),
        RowSpec(0.5, (Cell(1.0 / 3.0, 1.0 / 3.0),)),
    ))


def mixed_rows() -> CarpetSpec:
    """Heterogeneous rows: unequal heights and widths, one empty middle row."""
    return CarpetSpec((
        RowSpec(0.3, (Cell(0.2, 0.0), Cell(0.25, 0.5))),
        RowSpec(0.3, ()),
        RowSpec(0.4, (Cell(0.3, 0.1),)),
    ))


def touching_columns() -> CarpetSpec:
    """Two adjacent cells sharing an edge; totally disconnected but every
    depth's cylinder hulls touch, so the separation certificate never fires."""
    return CarpetSpec((
        RowSpec(0.5, (Cell(0.25, 0.0), Cell(0.25, 0.25))),
        RowSpec(0.5, ()),
    ))


def single_point() -> CarpetSpec:
    """One cell anchored at the origin; the attractor is the single point (0,0)."""
    return CarpetSpec((RowSpec(0.5, (Cell(0.25, 0.0),)), RowSpec(0.5, ())))


def cantor_intervals(level: int) -> list[Rect]:
    """Ternary Cantor construction at `level` as 2**level height-0 rects on y=0."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    pieces = [(0.0, 1.0)]
    for _ in range(level):
        pieces = [p for lo, hi in pieces
                  for p in ((lo / 3.0, hi / 3.0),
                            (lo / 3.0 + 2.0 / 3.0, hi / 3.0 + 2.0 / 3.0))]
    pieces.sort()
    return [Rect(lo, 0.0, hi - lo, 0.0) for lo, hi in pieces]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_rects(count: int, seed) -> list[Rect]:
    """Seeded random rects, sides below MAX_EXTENT, some sharing an edge or a point."""
    rng = _rng(seed)
    rects: list[Rect] = []
    for k in range(count):
        if rects and k % 7 == 3:
            prev = rects[-1]  # share an edge: exercises zero-distance merging
            rects.append(Rect(prev.x1, prev.y0, float(rng.uniform(0, MAX_EXTENT)),
                              prev.h))
            continue
        x, y = rng.uniform(0.0, 1.0, size=2)
        w, h = rng.uniform(0.0, MAX_EXTENT, size=2)
        if k % 11 == 5:
            w = h = 0.0  # degenerate point rects
        rects.append(Rect(float(x), float(y), float(w), float(h)))
    return rects


def random_grid_spec(seed) -> CarpetSpec:
    """Uniform-grid spec: m rows of b = 1/m, cells of a = 1/n on grid columns
    (m, n drawn as M_RANGE and N_MAX say), random presence, at least one cell."""
    rng = _rng(seed)
    m = int(rng.integers(M_RANGE[0], M_RANGE[1] + 1))
    n = int(rng.integers(m + 1, N_MAX + 1))
    pattern = rng.random((m, n)) < 0.5
    if not pattern.any():
        pattern[int(rng.integers(0, m)), int(rng.integers(0, n))] = True
    rows = []
    for i in range(m):
        cells = tuple(Cell(1.0 / n, j / n) for j in range(n) if pattern[i, j])
        rows.append(RowSpec(1.0 / m, cells))
    return CarpetSpec(tuple(rows))
