"""Vertical projection, fibers over y, and separation machinery.

The nonempty rows induce a self-similar IFS on the y axis whose attractor is
the projection F of the carpet.  Every y in F has at most two row itineraries
(codings), and the part of E above y is a fiber: a nested intersection of
finite interval unions, one refinement per coding digit.  This module works
with those interval unions at explicit finite depth.  They are `IntervalSet`s
(float64 lo/hi columns) built from one merge, one IFS step (the merged union
of offset + scale * I over a list of maps, applied right to left, so the
projection and a fiber are the same loop) and one point-distance query, and
they give the quantities that drive the uniform-disconnectedness analysis:

  * Hausdorff distances between fiber approximations and the prefix-product
    bound on them (check_hd_bound),
  * complementary gap intervals of guaranteed relative size (find_gap_interval),
  * the partition of stopping row-words into delta-connected classes
    (idelta_classes: one ordered merge of block extents, since stopping
    strips have disjoint interiors) and the worst-case cylinder aspect
    ratio (h_delta), both read off one budgeted walk of the row-words.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carpet import CarpetSpec, _budget, _nonempty, _walk, _whole, _word_matrix
from .errors import (
    CodingsNotDiverging,
    EmptyInput,
    InvalidCoding,
    NoGapFound,
    NotInProjection,
    VerificationFailed,
)

Coding = tuple[int, ...]

# Merging two interval-set distances against delta tolerates this much
# relative slack, so exact-rational block gaps equal to delta still merge.
DIST_TIE_REL = 1e-9

# Strip widths below this are indistinguishable from the rounding error of
# their own endpoints (the unit square keeps ulp near 2e-16); itinerary
# digits past that scale carry no float information.
RESOLUTION_FLOOR = 1e-14

# find_gap_interval cuts its test fiber at the first depth whose column
# choices pass this many; a cut fiber covers the whole one, so the test
# stays sound.
GAP_FIBER_CAP = 1_000_000


class IntervalSet:
    """Disjoint closed intervals, sorted by left endpoint, as float64 columns
    `lo` and `hi`; `intervals` is the same as a tuple of Python-float pairs.

    The constructor sorts `pairs` and merges intervals whose gap is <= tol
    (0 merges touching, inf gives the hull); a tol that is not >= 0, or a
    pair that is not finite with lo <= hi, raises ValueError."""

    def __init__(self, pairs=(), tol: float = 0.0):
        if not tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {tol}")
        lo, hi = np.array(list(pairs), dtype=float).reshape(-1, 2).T
        ok = np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"interval {k} needs finite lo <= hi, got ({lo[k]}, {hi[k]})")
        self.lo, self.hi = _merge(lo, hi, tol)

    @classmethod
    def _of(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalSet":
        out = cls.__new__(cls)
        out.lo, out.hi = lo, hi
        return out

    @cached_property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    def __repr__(self) -> str:
        return f"IntervalSet({self.intervals!r})"

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def total_length(self) -> float:
        return sum((self.hi - self.lo).tolist())

    @property
    def bounds(self) -> tuple[float, float]:
        if not len(self):
            raise EmptyInput("empty interval set has no bounds")
        return float(self.lo[0]), float(self.hi[-1])

    def distance_to_point(self, x: float) -> float:
        if not len(self):
            raise EmptyInput("empty interval set")
        return float(_distances(self, x))

    def intersects_open(self, lo: float, hi: float) -> bool:
        """True when some closed interval meets the open interval (lo, hi)."""
        return bool((self.hi[:np.searchsorted(self.lo, hi)] > lo).any())


def _starts(lo: np.ndarray, top: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the intervals, sorted by lo with `top` the running max of hi,
    that start a new run: lo passes the top of all before it by more than tol."""
    start = np.ones(len(lo), dtype=bool)
    start[1:] = lo[1:] - top[:-1] > tol
    return start


def _merge(lo: np.ndarray, hi: np.ndarray, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the union of the intervals [lo, hi] with gaps <= tol closed:
    sort by lo and start a new interval where lo passes the running max of hi
    by more than tol."""
    order = np.argsort(lo, kind="stable")
    lo, top = lo[order], np.maximum.accumulate(hi[order])
    start = _starts(lo, top, tol)
    last = np.ones(len(lo), dtype=bool)
    last[:-1] = start[1:]
    return lo[start], top[last]


def _ifs_cover(steps, what: str) -> IntervalSet:
    """[0, 1] through one IFS step per (scale, offset) map list of `steps`.

    A step is the merged union of offset[g] + scale[g] * I over the maps g and
    the intervals I of the cover so far.  The one budget rule: a step of more
    image intervals than `_budget` allows is refused before it is built.  The
    cap is read at the first step; a later step calls `_budget` only to refuse.

    A step whose images, in (map, interval) order, each start right of the
    end of the one before skips `_merge`, which would return the same
    columns bit for bit: its stable sort keeps that order, the running max
    of hi is hi, and every image starts a run.  Other steps are merged.
    """
    cover, cap = IntervalSet._of(np.zeros(1), np.ones(1)), 0
    for scale, offset in steps:
        images = len(cover) * len(scale)
        if images > cap:
            cap = _budget(images, f"{what}: {len(cover)} intervals x {len(scale)} maps")
        scale, offset = scale[:, None], offset[:, None]
        lo, hi = (offset + scale * cover.lo).ravel(), (offset + scale * cover.hi).ravel()
        if not (lo[1:] > hi[:-1]).all():
            lo, hi = _merge(lo, hi)
        cover = IntervalSet._of(lo, hi)
    return cover


def _distances(cover: IntervalSet, x):
    """Distance from each point x to the nonempty union `cover`."""
    after = np.searchsorted(cover.lo, x, side="right")  # first interval right of x
    below = np.where(after > 0, x - cover.hi[after - 1], np.inf)
    above = np.where(after < len(cover), cover.lo[np.minimum(after, len(cover) - 1)] - x, np.inf)
    return np.maximum(np.minimum(below, above), 0.0)


def _directed_hausdorff(a: IntervalSet, b: IntervalSet) -> float:
    """max over x in A of dist(x, B), exact for finite interval unions.

    The distance-to-B function is piecewise linear with local maxima only at
    midpoints of B's gaps, so the supremum over A is attained at an endpoint
    of A or at a gap midpoint of B that lies inside A.
    """
    mids = 0.5 * (b.hi[:-1] + b.lo[1:])
    points = np.concatenate([a.lo, a.hi, mids[_distances(a, mids) == 0.0]])
    return float(_distances(b, points).max())


def hausdorff_distance(a: IntervalSet, b: IntervalSet) -> float:
    if not len(a) or not len(b):
        raise EmptyInput("hausdorff_distance needs two nonempty interval sets")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


@dataclass(frozen=True)
class ProjectionIFS:
    """The 1-D system {y -> ratio*y + offset} over the nonempty rows."""

    rows: tuple[int, ...]
    ratios: tuple[float, ...]
    offsets: tuple[float, ...]


def project_F(spec: CarpetSpec) -> ProjectionIFS:
    rows = _nonempty(spec)
    return ProjectionIFS(
        rows=rows,
        ratios=tuple(spec.rows[i - 1].b for i in rows),
        offsets=tuple(spec.d[i - 1] for i in rows),
    )


def projection_approx(spec: CarpetSpec, depth: int) -> IntervalSet:
    """Depth-k interval cover of the projection: the union of the images of
    [0, 1] under all row words of length k, one IFS step per digit."""
    depth = _whole(depth, 0, "depth")
    proj = project_F(spec)
    maps = np.array(proj.ratios), np.array(proj.offsets)
    return _ifs_cover([maps] * depth, f"projection at depth {depth}")


def _projection_bounds(spec: CarpetSpec, depth: int) -> np.ndarray:
    """Row r holds `projection_approx(spec, r).bounds` for r = 0..depth, bit
    for bit, without building a cover.  Float rounding is monotone, so each
    step's least endpoint is the least offset + scale * lo over the maps, lo
    being the step before's least endpoint; the largest likewise."""
    proj = project_F(spec)
    scale, offset = np.array(proj.ratios), np.array(proj.offsets)
    bounds = [(0.0, 1.0)]
    for _ in range(depth):
        lo, hi = bounds[-1]
        bounds.append(((offset + scale * lo).min(), (offset + scale * hi).max()))
    return np.array(bounds)


def y_codings(spec: CarpetSpec, y: float, depth: int) -> list[Coding]:
    """Row itineraries of y to the given depth, lexicographic, at most two.

    Membership tests use closed strips widened by a few ulp, so a y on a
    shared strip boundary keeps both itineraries and a point rounded one ulp
    into a gap is not rejected; only a strip thinner than that widening can
    add a third between two, so the first and last are returned.  The rows
    tile [0, 1] (`validate` lets their heights sum to 1 within 1e-12), so a
    strip of the top row keeps its parent's top edge where its own computed
    one falls short: that shortfall grows level by level, and would otherwise
    leave y = 1 outside the projection.  Strips narrower than RESOLUTION_FLOOR
    cannot be told apart in floats (their computed boundaries carry comparable
    rounding error), so from there on each branch is extended canonically
    with the smallest row symbol instead of testing membership, in one step
    once every branch is that narrow.
    """
    depth = _whole(depth, 1, "depth")
    proj = project_F(spec)
    if not 0.0 <= y <= 1.0:
        raise NotInProjection(f"y={y} outside [0, 1]")
    # strips live in [0, 1], so absolute slack is also relative slack
    tol = 1e-15
    active: list[tuple[Coding, float, float, float]] = [((), 0.0, 1.0, 1.0)]
    for level in range(depth):
        if all(s < RESOLUTION_FLOOR for _, _, s, _ in active):
            tail = (proj.rows[0],) * (depth - level)
            active = [(digits + tail, lo, s, hi) for digits, lo, s, hi in active]
            break
        nxt = []
        for digits, lo, s, hi in active:
            if s < RESOLUTION_FLOOR:
                clo, cs = lo + s * proj.offsets[0], s * proj.ratios[0]
                nxt.append((digits + (proj.rows[0],), clo, cs, clo + cs))
                continue
            for i, ratio, off in zip(proj.rows, proj.ratios, proj.offsets):
                clo = lo + s * off
                cs = s * ratio
                chi = max(clo + cs, hi) if i == spec.m else clo + cs
                if clo - tol <= y <= chi + tol:
                    nxt.append((digits + (i,), clo, cs, chi))
        if not nxt:
            raise NotInProjection(
                f"y={y} leaves the projection at refinement level {level + 1}")
        active = nxt
    first, last = active[0][0], active[-1][0]
    return [first] if first == last else [first, last]


def _check_coding(spec: CarpetSpec, coding: Coding) -> None:
    if not coding:
        raise InvalidCoding("coding is empty")
    for i in coding:
        if not isinstance(i, (int, np.integer)):
            raise InvalidCoding(f"row {i!r} is not an integer")
        if not 1 <= i <= spec.m:
            raise InvalidCoding(f"row {i} out of range 1..{spec.m}")
        if not spec.rows[i - 1].cells:
            raise InvalidCoding(f"row {i} has no cells, fiber undefined")


def fiber_approx(spec: CarpetSpec, coding: Coding) -> IntervalSet:
    """Union over all column choices of the coding's x-cylinders, merged.

    This is the depth-len(coding) interval cover of the fiber over any y
    whose itinerary starts with the coding: one IFS step per digit with that
    row's cells, composed right to left.
    """
    coding = tuple(coding)
    _check_coding(spec, coding)
    maps = {i: (np.array([c.a for c in spec.rows[i - 1].cells]),
                np.array([c.c for c in spec.rows[i - 1].cells])) for i in set(coding)}
    return _ifs_cover([maps[i] for i in reversed(coding)], f"fiber at depth {len(coding)}")


@dataclass(frozen=True)
class HdBoundCheck:
    distance: float
    bound: float
    ok: bool
    shared_prefix: int
    slack: float


def check_hd_bound(spec: CarpetSpec, coding1: Coding, coding2: Coding) -> HdBoundCheck:
    """Hausdorff distance between two fibers against the shared-prefix bound.

    The depth is the shorter coding's length (pass prefixes for less).
    Fibers restricted to any shared-prefix x-cylinder are both nonempty, so
    their Hausdorff distance is at most the widest such cylinder: the product
    of the per-row maximal widths along the shared prefix.  Finite-depth
    approximations add 2 * a_max**depth of slack.
    """
    c1, c2 = tuple(coding1), tuple(coding2)
    _check_coding(spec, c1)
    _check_coding(spec, c2)
    depth = min(len(c1), len(c2))
    c1, c2 = c1[:depth], c2[:depth]
    shared = 0
    while shared < depth and c1[shared] == c2[shared]:
        shared += 1
    if shared == depth:
        raise CodingsNotDiverging(f"codings agree on all {depth} digits")
    bound = 1.0
    for i in c1[:shared]:
        bound *= spec.row_max_width[i - 1]
    slack = 2.0 * spec.a_max ** depth
    distance = hausdorff_distance(fiber_approx(spec, c1), fiber_approx(spec, c2))
    return HdBoundCheck(distance=distance, bound=bound,
                        ok=distance <= bound + slack,
                        shared_prefix=shared, slack=slack)


def row_gap_intervals(spec: CarpetSpec, i: int) -> list[tuple[float, float]]:
    """Maximal open intervals of [0,1] not covered by row i's closed cells."""
    cells = spec.row(i).cells
    gaps = []
    cursor = 0.0
    for cell in cells:
        if cell.c > cursor:
            gaps.append((cursor, cell.c))
        cursor = max(cursor, cell.c + cell.a)
    if cursor < 1.0:
        gaps.append((cursor, 1.0))
    return gaps


def largest_row_gap(spec: CarpetSpec, i: int) -> tuple[float, float] | None:
    """Longest complementary gap of row i (leftmost on ties), None if covered."""
    gaps = row_gap_intervals(spec, i)
    return max(gaps, key=lambda gap: gap[1] - gap[0]) if gaps else None


def gap_fraction(spec: CarpetSpec) -> float:
    """The factor lambda: find_gap_interval guarantees |J| >= lambda * |I|.

    lambda = a_min * (smallest over nonempty rows of the largest row gap) / 3;
    zero when some nonempty row's cells tile [0,1] completely.
    """
    smallest = math.inf
    for i in _nonempty(spec):
        gap = largest_row_gap(spec, i)
        if gap is None:
            return 0.0
        smallest = min(smallest, gap[1] - gap[0])
    return spec.a_min * smallest / 3.0


def find_gap_interval(spec: CarpetSpec, coding: Coding,
                      interval: tuple[float, float]) -> tuple[float, float]:
    """An open subinterval J of I with J disjoint from the fiber, |J| >= lambda|I|.

    Two-branch construction: if the fiber misses the open middle third of I,
    that middle third is J.  Otherwise descend the coding's x-cylinders to the
    largest one contained in I that still meets the middle third, and map the
    next row's largest complementary gap into it.  The coding must be deep
    enough for the descent (depth ~ log(3/|I|) / log(1/a_max) suffices).
    """
    coding = tuple(coding)
    _check_coding(spec, coding)
    ilo, ihi = float(interval[0]), float(interval[1])
    if not (0.0 <= ilo < ihi <= 1.0):
        raise ValueError(f"I=({ilo}, {ihi}) must be a nonempty open subinterval of [0,1]")
    width = ihi - ilo
    # third + third, not ihi - third: keeps thi exact for I = (0, 1)
    tlo = ilo + width / 3.0
    thi = ilo + 2.0 * (width / 3.0)
    lam = gap_fraction(spec)

    # Disjointness only needs resolution far below the guaranteed gap length,
    # and a truncated coding yields a superset of the fiber, so testing
    # against it is sound.  GAP_FIBER_CAP bounds the interval count.
    target = (lam if lam > 0.0 else spec.a_min / 3.0) * width / 100.0
    depth = max(1, math.ceil(math.log(target) / math.log(spec.a_max)))
    depth = min(depth, len(coding))
    count = 1
    for k in range(depth):
        count *= len(spec.rows[coding[k] - 1].cells)
        if count > GAP_FIBER_CAP:
            depth = k + 1
            break
    fiber = fiber_approx(spec, coding[:depth])
    resolution = float((fiber.hi - fiber.lo).max())

    if not fiber.intersects_open(tlo, thi):
        return (tlo, thi)

    # Largest x-cylinder inside open I that meets the open middle third:
    # a max-heap ordered by length pops it first, since children are shorter.
    heap = [(-1.0, 0.0, 0)]  # (-length, left endpoint, level)
    found = None
    while heap:
        neg_len, lo, level = heapq.heappop(heap)
        s = -neg_len
        hi = lo + s
        if level > 0 and lo > ilo and hi < ihi:
            found = (lo, s, level)
            break
        if level == len(coding):
            continue
        row = spec.rows[coding[level] - 1]
        for cell in row.cells:
            clo = lo + s * cell.c
            cs = s * cell.a
            if clo < thi and clo + cs > tlo:  # keep only middle-third hitters
                heapq.heappush(heap, (-cs, clo, level + 1))
    if found is None or found[2] == len(coding):  # no digit left to pick the gap row
        raise InvalidCoding(
            f"coding of length {len(coding)} too short to isolate a gap in I=({ilo},{ihi})")

    lo, s, level = found
    next_row = coding[level]  # coding[level] is the (level+1)-th digit
    gap = largest_row_gap(spec, next_row)
    if gap is None:
        raise NoGapFound(f"row {next_row} has no complementary gap")
    j_lo, j_hi = lo + s * gap[0], lo + s * gap[1]

    if j_hi - j_lo < lam * width * (1.0 - 1e-12):
        raise VerificationFailed(
            f"gap interval shorter than lambda*|I|: {j_hi - j_lo} < {lam * width}")
    # A truncated-approximation interval can straddle a true gap endpoint by
    # up to its own length, and J and the fiber are rounded along different
    # float paths, so shrink the tested interval by the realized resolution.
    slack = max(1e-13, resolution)
    if fiber.intersects_open(j_lo + slack, j_hi - slack):
        raise VerificationFailed("constructed gap interval meets the fiber approximation")
    return (j_lo, j_hi)


def _row_walk(spec: CarpetSpec, delta: float, *axes):
    """`_walk` of the stopping row-words over the `project_F` table: a scale
    axis (offset 0) per entry of `axes`, then the height y -> s*y + t."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    proj = project_F(spec)
    scale = np.array([*axes, proj.ratios])
    offset = np.array([*np.zeros_like(axes), proj.offsets])
    columns, s, t = next(_walk(scale, offset, f"row stopping set at delta={delta}", delta=delta))
    return proj.rows, columns, s, t


def _row_words(spec: CarpetSpec, delta: float):
    """Stopping row-words in lexicographic order, with s and t of y -> s*y + t."""
    rows, columns, s, t = _row_walk(spec, delta)
    words = _word_matrix(columns, np.min_scalar_type(-len(rows)))
    coded = [tuple(rows[g] for g in word if g >= 0) for word in words.tolist()]
    return coded, s[0], t[0]


def row_stopping_words(spec: CarpetSpec, delta: float) -> list[Coding]:
    """Row words over nonempty rows whose height product first drops <= delta."""
    return _row_words(spec, delta)[0]


@dataclass(frozen=True)
class DeltaClasses:
    """Partition of the stopping row-words into delta-connected block classes."""

    delta: float
    words: tuple[Coding, ...]
    classes: tuple[tuple[Coding, ...], ...]

    @property
    def l_emp(self) -> int:
        return max(len(cls) for cls in self.classes)


def idelta_classes(spec: CarpetSpec, delta: float) -> DeltaClasses:
    """Join stopping row-words whose projection blocks sit within delta.

    Word k's block is the image of the projection cover, refined two decades
    below delta, inside its strip [t_k, t_k + s_k].  The strips come in
    increasing y with disjoint interiors, so each block lies wholly above the
    blocks before it and its distance to them is the gap between its lowest
    point and their highest.  The classes are therefore the runs of one
    ordered merge of block extents, split where that gap exceeds delta; only
    the cover's bounds are needed, never the cover itself.  The comparison
    allows 1e-9 relative slack so rational gaps exactly equal to delta merge
    despite floating-point drift.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    proj = project_F(spec)
    words, scales, offsets = _row_words(spec, delta)
    b_max = max(proj.ratios)
    depth = max(1, math.ceil(math.log(delta / 100.0) / math.log(b_max)))

    # Word k's block is its image of the projection cover at the depth left below it.
    rel = [max(0, depth - len(word)) for word in words]
    base_lo, base_hi = _projection_bounds(spec, max(rel))[rel].T
    lo, hi = offsets + scales * base_lo, offsets + scales * base_hi

    start = _starts(lo, np.maximum.accumulate(hi), delta * (1.0 + DIST_TIE_REL))
    cuts = [*np.flatnonzero(start).tolist(), len(words)]
    classes = tuple(tuple(words[a:b]) for a, b in zip(cuts, cuts[1:]))
    return DeltaClasses(delta=delta, words=tuple(words), classes=classes)


def h_delta(spec: CarpetSpec, delta: float) -> float:
    """Worst width-to-height ratio over the stopping row-words at delta.

    A word's ratio is the product, in word order, of (widest cell / height)
    over its rows: one more scale axis of the row-word walk, so the budget
    refuses exactly the delta that `row_stopping_words` refuses.  Every
    factor is < 1, so the ratio tends to 0 with delta.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    widest = [spec.row_max_width[i - 1] / spec.rows[i - 1].b for i in spec.nonempty_rows]
    return float(_row_walk(spec, delta, widest)[2][0].max())
