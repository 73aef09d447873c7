"""Gap sequences of finite rectangle unions and their scaling fits.

The gap sequence of a compact set lists the thresholds where the count of
delta-connected components jumps, with multiplicities.  For a finite union of
rectangles those thresholds are exactly the positive edge weights of a minimum
spanning tree under the Euclidean set distance between rects (single-linkage
equivalence), with touching rects pre-merged.

Two independent routes compute it.  gap_sequence_mst runs Borůvka rounds
over a median-split tree of the rects, in the style of dual-tree Borůvka
(March, Ram & Gray, "Fast Euclidean Minimum Spanning Tree", KDD 2010).
Every pass over the rects is one walk of pairs of tree nodes,
`_Tree.descend`; the passes differ only in the node pairs they keep and in
what they do with the rects those pairs hand over.  First one fixed-radius
walk joins every rect pair just below `floor` (`_join_within`), so that the
rounds resolve only the weights that the entries >= floor depend on.  Each
round then finds every component's nearest other component on the quotient
by those components, and all of a round's picks merge in one vectorised
union.  component_labels is the fixed-radius walk alone, at its threshold.
`_UnionFind.union_pairs` is the library's one merge.  gap_sequence_bruteforce
is Prim's algorithm over dense rows of rect distances, with no union-find;
the tests add Kruskal over a dict union-find.  The routes pin each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .approx import approx_set
from .carpet import CarpetSpec, Rect, Rects
from .errors import EmptyInput, OracleCapExceeded, TooFewGaps

# Values within this relative tolerance aggregate into one gap entry.
TIE_REL = 1e-9

# Entries of a carpet gap sequence are kept only above this multiple of the
# approximation scale; coarser gaps are stable under further refinement.
SIGMA_STABILITY = 4.0

ORACLE_CAP = 500


@dataclass(frozen=True)
class GapSequence:
    """Descending (value, multiplicity) entries; value_error bounds the bias
    introduced by computing on a finite approximation (0 for exact inputs)."""

    entries: tuple[tuple[float, int], ...]
    value_error: float = 0.0

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def flat(self, limit: int | None = None) -> list[float]:
        """Expanded nonincreasing sequence alpha_1 >= alpha_2 >= ..."""
        out: list[float] = []
        for value, mult in self.entries:
            out.extend([value] * mult)
            if limit is not None and len(out) >= limit:
                return out[:limit]
        return out


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r2: float
    ratio_band: tuple[float, float]


def rect_distance(r1: Rect, r2: Rect) -> float:
    """Euclidean distance between two closed axis-aligned rectangles."""
    dx = max(0.0, r1.x0 - r2.x1, r2.x0 - r1.x1)
    dy = max(0.0, r1.y0 - r2.y1, r2.y0 - r1.y1)
    return math.hypot(dx, dy)


def _aggregate(weights) -> tuple[tuple[float, int], ...]:
    """Group a weight multiset into descending entries, merging near-ties.

    Groups are anchored at their largest member: a weight joins the current
    group when it is within TIE_REL (relative) of the group head.  Equal
    weights always share a group, so the walk runs over distinct values only.
    """
    values, counts = np.unique(np.asarray(weights, dtype=float), return_counts=True)
    entries: list[tuple[float, int]] = []
    for w, count in zip(values[::-1].tolist(), counts[::-1].tolist()):
        if entries and entries[-1][0] - w <= TIE_REL * entries[-1][0]:
            entries[-1] = (entries[-1][0], entries[-1][1] + count)
        else:
            entries.append((w, count))
    return tuple(entries)


class _Boxes(NamedTuple):
    """Closed boxes as float64 columns, such as a tree level's node boxes."""

    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray


def _pair_dist(r: Rects | _Boxes, i, j) -> np.ndarray:
    """Set distances between rects i[k] and j[k] of the columns of `r`."""
    dx = np.maximum(0.0, np.maximum(r.x0[i] - r.x1[j], r.x0[j] - r.x1[i]))
    dy = np.maximum(0.0, np.maximum(r.y0[i] - r.y1[j], r.y0[j] - r.y1[i]))
    return np.hypot(dx, dy)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.components = n

    def union_pairs(self, a: np.ndarray, b: np.ndarray) -> None:
        """Join every pair (a[k], b[k]) at once; the only merge.

        Each step jumps pointers until every element's parent is its root,
        then hooks every root onto the least root it is paired with (when
        that one is smaller), until no pair spans two roots.  A root only
        hooks onto a smaller index, so no cycle forms; starting from
        singletons, each component is rooted at its least member.  On return
        every element's parent is its root.
        """
        p = self.parent
        while True:
            gp = p[p]
            while not np.array_equal(gp, p):
                p, gp = gp, gp[gp]
            ra, rb = p[a], p[b]
            span = ra != rb
            if not span.any():
                break
            a, b, ra, rb = a[span], b[span], ra[span], rb[span]
            np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
        self.parent = p
        self.components = int(np.count_nonzero(p == np.arange(len(p))))


class _Tree:
    """Median-split tree over a rect list, stored level by level.

    Level L has 2**L nodes.  Node k spans perm[lo:hi] with lo = k*n >> L and
    hi = (k+1)*n >> L, so its children are nodes 2k and 2k+1 of level L+1.
    Building level L sorts each node's range along the wider spread of its
    rect centres, which makes the two children the halves of a median split.
    The centres are ranked along x and along y once, by stable sorts, so that
    each level is one sort of the distinct int64 keys node * n + rank (ties
    in a coordinate keep index order).  The last level holds single rects,
    plus empty nodes when n is not a power of two; an empty leaf stands for
    its sibling's rect, which is the one rect of their parent.  Every
    per-node value is then one `up`, a reduction from the leaves to the
    root: the node bounding boxes, and each walk's component ranges and
    bounds.  `levels` lists (lo, hi, boxes) per level.

    Walks start at level `start` = max(depth // 2, min(depth - 1, 7)), above
    the leaves unless n = 1, so its nodes are all nonempty: `start_pairs`
    holds every node pair (a, b), a <= b, of it with their box distance,
    computed once per tree, and no Borůvka round crosses the levels above.
    Each level walked costs a fixed numpy overhead, so a tree below depth 14
    starts at level 7 (8256 pairs, as the middle of a 16384-rect tree has)
    or one above its leaves: a few hundred rects take one or two levels.
    """

    def __init__(self, cols: Rects):
        n = len(cols)
        depth = (n - 1).bit_length()
        cx, cy = cols.x0 + cols.x1, cols.y0 + cols.y1
        # int32 ranks keep the build's memory low; rect sets that fit in
        # memory have n < 2**31
        rank_x, rank_y = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
        rank_x[np.argsort(cx, kind="stable")] = np.arange(n)
        rank_y[np.argsort(cy, kind="stable")] = np.arange(n)
        perm = np.arange(n)

        def spread(c):  # per node of the level being built
            c = c[perm]
            return np.maximum.reduceat(c, lo) - np.minimum.reduceat(c, lo)

        for level in range(depth):
            lo, hi = self._ranges(n, level)
            node = np.repeat(np.arange(len(lo)), hi - lo)
            wide_x = spread(cx) >= spread(cy)
            rank = np.where(wide_x[node], rank_x[perm], rank_y[perm])
            perm = perm[np.argsort(node * n + rank)]
        self.perm = perm
        # node boxes are the hulls of their rects, one `up` per column; an
        # empty leaf, odd or even, stands for its sibling's rect at lo - 1 or
        # lo, since every node above the last level holds one or two rects
        lo, hi = self._ranges(n, depth)
        self.leaf = perm[np.where(hi > lo, lo, lo - (np.arange(len(lo)) & 1))]
        hull = [self.up(np.minimum, cols.x0), self.up(np.minimum, cols.y0),
                self.up(np.maximum, cols.x1), self.up(np.maximum, cols.y1)]
        self.levels = [(*self._ranges(n, level), _Boxes(*(h[level] for h in hull)))
                       for level in range(depth + 1)]
        self.start = max(depth // 2, min(depth - 1, 7))
        a, b = np.triu_indices(2 ** self.start)
        self.start_pairs = (a, b, _pair_dist(self.levels[self.start][2], a, b))

    @staticmethod
    def _ranges(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(2 ** level + 1, dtype=np.int64)
        bounds = (k * n) >> level
        return bounds[:-1], bounds[1:]

    def descend(self, keep, act) -> None:
        """Walk pairs of nodes down the tree, one level at a time.

        The walk starts from `start_pairs`.  Each later level holds the child
        pairs of the pairs kept at the level above: three for a self pair,
        four for any other, without the empty leaves of the last level.
        `keep(level, a, b, dist)` masks the node pairs (a[k], b[k]), a <= b,
        of `level`, given the distances between their boxes, and the walk
        stops at the first level where it keeps none.  For the kept pairs,
        `act(i, j)` gets the first rects i[k], j[k] of the two nodes.  Sibling
        ranges are sorted along one axis, so in side-by-side clusters of one
        shape these two rects match and realise the box distance high up the
        tree; at the last level they are the pair itself.  A mask that drops
        the pairs whose nodes lie inside one component keeps coincident rects
        from making the walk quadratic.
        """
        a, b, dist = self.start_pairs
        for level in range(self.start, len(self.levels)):
            lo, hi, boxes = self.levels[level]
            if level > self.start:
                same = a == b
                s, a, b = 2 * a[same], 2 * a[~same], 2 * b[~same]
                a, b = (np.concatenate([s, s, s + 1, a, a, a + 1, a + 1]),
                        np.concatenate([s, s + 1, s + 1, b, b + 1, b, b + 1]))
                if level == len(self.levels) - 1:
                    full = (hi[a] > lo[a]) & (hi[b] > lo[b])
                    a, b = a[full], b[full]
                dist = _pair_dist(boxes, a, b)
            kept = keep(level, a, b, dist)
            a, b = a[kept], b[kept]
            if len(a) == 0:
                return
            act(self.perm[lo[a]], self.perm[lo[b]])

    def up(self, ufunc, values: np.ndarray) -> list[np.ndarray]:
        """`ufunc` over the `values` (one per rect) in each node, per level
        from the root down: the leaves take their rects' values, and each
        level above pairs up its children's."""
        out = [values[self.leaf]]
        while len(out[-1]) > 1:
            out.append(ufunc(out[-1][0::2], out[-1][1::2]))
        return out[::-1]


def _join_within(tree: _Tree, cols: Rects, uf: _UnionFind, t: float) -> None:
    """Join every rect pair at set distance <= t, in one walk of `tree`.

    Only a spanning forest of the pairs is merged, never the pairs themselves.
    Tree-order neighbours within t join first: they are mostly close, and a
    run of them makes a whole node one component.  The walk then keeps the
    node pairs within t whose nodes do not lie inside one component, and
    joins the rects they hand over that are within t, in one
    `uf.union_pairs` call per level, which empties most later levels.  At
    the last level the nodes are single rects, so every pair within t is
    joined there unless an ancestor pair already joined it.
    """
    def join(i, j):
        close = _pair_dist(cols, i, j) <= t
        uf.union_pairs(i[close], j[close])

    def keep(level, a, b, dist):
        cmin = tree.up(np.minimum, uf.parent)[level]
        cmax = tree.up(np.maximum, uf.parent)[level]
        return ~((cmin[a] == cmax[b]) & (cmax[a] == cmin[b])) & (dist <= t)

    join(tree.perm[:-1], tree.perm[1:])
    tree.descend(keep, join)


def _boruvka(tree: _Tree, cols: Rects, uf: _UnionFind) -> np.ndarray:
    """Borůvka rounds on the complete graph of rect set distances over `tree`.

    Starts from the components already in `uf` and returns the weights of a
    minimum spanning tree of their quotient graph; they are all positive once
    `uf` joins every touching pair, as `_join_within` at t >= 0 does.  The
    rounds run on the quotient: its k components are numbered 0..k-1 once,
    and the per-component arrays and the rounds' own union-find have length
    k, so a round's bookkeeping scales with the components left, not with
    the rects; a rect's component is one gather per round.  Each round finds,
    for every component, one rect pair of least distance to another
    component, then merges all these picks at once through `union_pairs`.
    Any least pair will do.  Every old root has exactly one pick, so a merged
    group of k roots holds k picks: a tree plus exactly one cycle.  Each pick
    is the least edge of its component, so going round the cycle the weights
    never rise: they are all equal, and equal to the group's least weight.
    Dropping one least pick of each group leaves the weight multiset of the
    minimum spanning tree, which is unique.  Rounds stop when one component
    is left.

    Each round is one walk of `tree`.  It drops a node pair when both nodes
    lie inside the same component, or when their box distance is not below
    the larger bound of the components in them: no rect pair inside can then
    beat a bound, so ties are never chased.  Bounds start from neighbouring
    rects in tree order, which give every component a finite bound; the
    neighbour pairs that cross components are found once, and each round
    keeps those that still do.  Every rect pair the walk hands over is then
    offered, which tightens the bounds level by level.  A node of one
    component reads its bound directly; only while some node holds several
    does a level take the maximum over the rects of each node, so that it
    includes the offers of the levels above.
    """
    n, k = len(cols), uf.components
    number = np.cumsum(uf.parent == np.arange(n)) - 1  # the roots numbered 0..k-1
    quotient, comp0 = _UnionFind(k), number[uf.parent]
    near_i, near_j = tree.perm[:-1], tree.perm[1:]
    weights = [np.empty(0)]
    while quotient.components > 1:
        comp = quotient.parent[comp0]  # every entry a root of `quotient`
        best = np.full(k, np.inf)  # per component root: least distance found
        edge = np.full(k, -1, dtype=np.int64)  # its component pair, as c * k + c'
        least, most = tree.up(np.minimum, comp), tree.up(np.maximum, comp)  # fixed within a round

        def offer(i, j):
            ci, cj = comp[i], comp[j]
            cross = ci != cj
            i, j, ci, cj = i[cross], j[cross], ci[cross], cj[cross]
            c, d, e = np.concatenate([ci, cj]), _pair_dist(cols, i, j), ci * k + cj
            d, e = np.concatenate([d, d]), np.concatenate([e, e])
            np.minimum.at(best, c, d)
            hit = d == best[c]
            edge[c[hit]] = e[hit]
            return i, j

        def keep(level, a, b, dist):
            cmin, cmax = least[level], most[level]
            bound = best[cmin]  # exact for one-component nodes
            multi = cmin < cmax
            if multi.any():
                bound = np.where(multi, tree.up(np.maximum, best[comp])[level], bound)
            return (~((cmin[a] == cmax[b]) & (cmax[a] == cmin[b]))
                    & (dist < np.maximum(bound[a], bound[b])))

        near_i, near_j = offer(near_i, near_j)  # only the crossing pairs stay
        tree.descend(keep, offer)

        roots = np.flatnonzero(quotient.parent == np.arange(k))  # before the union
        quotient.union_pairs(*np.divmod(edge[roots], k))
        # drop one least pick per merged group (the new root)
        group, w = quotient.parent[roots], best[roots]
        order = np.lexsort((w, group))
        group, w = group[order], w[order]
        least = np.r_[True, group[1:] != group[:-1]]
        weights.append(w[~least])
    return np.concatenate(weights)


def component_labels(rects, delta: float) -> np.ndarray:
    """Component label per rect, joining pairs at set distance <= delta (closed).

    A rect's label is the least rect index in its component.
    """
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not rects:
        raise EmptyInput("no rects")
    cols = Rects.of(rects)
    uf = _UnionFind(len(cols))
    _join_within(_Tree(cols), cols, uf, delta)
    return uf.parent.copy()


def n_delta_components(rects, delta: float) -> int:
    """Number of connected components at threshold delta."""
    labels = component_labels(rects, delta)
    return int(np.count_nonzero(labels == np.arange(len(labels))))


def gap_sequence_mst(rects, floor: float = 0.0) -> GapSequence:
    """Gap sequence of a finite rect union via a tree-based Borůvka MST.

    Touching rects merge silently; every positive edge weight of the minimum
    spanning tree is one gap.  Only the entries with value >= `floor` are
    returned, and they equal those of the full sequence: all pairs within
    t = floor * (1 - 4 * TIE_REL) join first in one `_join_within` walk, and
    Borůvka runs on what is left.  By Kruskal's order the MST weights above
    t are those of the quotient by the components within t, and an entry
    >= floor only groups weights within TIE_REL below its head, all of them
    above t.
    """
    if not 0.0 <= floor < math.inf:
        raise ValueError(f"floor must be finite and >= 0, got {floor}")
    if not rects:
        raise EmptyInput("no rects")
    cols = Rects.of(rects)
    tree, uf = _Tree(cols), _UnionFind(len(cols))
    _join_within(tree, cols, uf, floor * (1.0 - 4.0 * TIE_REL))
    entries = _aggregate(_boruvka(tree, cols, uf))
    return GapSequence(entries=tuple((v, m) for v, m in entries if v >= floor))


def gap_sequence_bruteforce(rects) -> GapSequence:
    """Oracle route: Prim's algorithm on the complete graph of rect set
    distances.  One `_pair_dist` call builds the n x n distance matrix (2 MB
    of float64 at ORACLE_CAP); each of the n - 1 steps reads the row of the
    rect just added, keeps every rect's least distance to the tree, and adds
    the nearest rect outside it; each positive step is one gap.  No pair
    list, sort or union-find: `_pair_dist` is symmetric bit for bit, so the
    MST weight multiset is the same whichever tied rect a step adds.
    Quadratic, refuses more than the constant ORACLE_CAP rects."""
    if not rects:
        raise EmptyInput("no rects")
    if len(rects) > ORACLE_CAP:
        raise OracleCapExceeded(f"{len(rects)} rects exceeds oracle cap {ORACLE_CAP}")
    cols = Rects.of(rects)
    every = np.arange(len(cols))
    dist = _pair_dist(cols, every[:, None], every)
    outside = np.ones(len(cols), dtype=bool)
    near = np.full(len(cols), np.inf)  # each rect's least distance to the tree
    steps = np.empty(len(cols) - 1)
    k = 0
    for step in range(len(steps)):
        outside[k] = False
        np.minimum(near, dist[k], out=near, where=outside)
        near[k] = np.inf
        k = int(near.argmin())
        steps[step] = near[k]
    return GapSequence(entries=_aggregate(steps[steps > 0.0]))


def gap_sequence_of_carpet(spec: CarpetSpec, delta_res: float) -> GapSequence:
    """Gap sequence of the delta_res approximation, truncated to stable entries.

    Entries below SIGMA_STABILITY * delta_res are dropped, and the MST does
    not compute them: gaps larger than that survive refinement of the cover
    (refining can move each side by at most 2 * delta_res, recorded in
    value_error).
    """
    rects = approx_set(spec, delta_res).rects
    seq = gap_sequence_mst(rects, floor=SIGMA_STABILITY * delta_res)
    return GapSequence(entries=seq.entries, value_error=2.0 * delta_res)


def scaling_fit(gapseq: GapSequence, s: float) -> ScalingFit:
    """Fit log(alpha_k) against log(k); compare against the k**(-1/s) law."""
    flat = gapseq.flat()
    if len(flat) < 10:
        raise TooFewGaps(f"need >= 10 gap values, got {len(flat)}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be finite and > 0, got {s}")
    alpha = np.array(flat)
    k = np.arange(1, len(flat) + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(k), np.log(alpha), 1)
    fitted = slope * np.log(k) + intercept
    ss_res = float(((np.log(alpha) - fitted) ** 2).sum())
    ss_tot = float(((np.log(alpha) - np.log(alpha).mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    band = alpha * k ** (1.0 / s)
    return ScalingFit(slope=float(slope), intercept=float(intercept), r2=r2,
                      ratio_band=(float(band.min()), float(band.max())))
