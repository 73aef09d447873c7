"""Gap sequences: rect distances, MST vs oracle routes, components, scaling.

The tree MST (Borůvka) is checked against independent routes: the library's
quadratic Prim oracle, Kruskal over a dict union-find (`sweep_entries`) and a
pure-python Prim.  Component labels are checked against a pure-python
union-find over all pairs.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgcarpet as lg
from lgcarpet import GapSequence, Rect, synth
from lgcarpet.errors import EmptyInput, OracleCapExceeded, TooFewGaps
from lgcarpet.carpet import Rects
from lgcarpet.gaps import ORACLE_CAP, SIGMA_STABILITY, TIE_REL, _pair_dist, _Tree, _UnionFind

coord = st.floats(0, 1, allow_nan=False, allow_infinity=False)
extent = st.floats(0, 0.5, allow_nan=False, allow_infinity=False)
rect_strategy = st.builds(Rect, coord, coord, extent, extent)

# A coarse lattice gives coincident and touching rects and exactly tied
# distances (multiples of 1/4 are exact in binary).
lattice_coord = st.integers(0, 8).map(lambda k: k / 4)
lattice_extent = st.integers(0, 2).map(lambda k: k / 4)
lattice_rect = st.builds(Rect, lattice_coord, lattice_coord,
                         lattice_extent, lattice_extent)

# Sizes on both sides of the boundaries where the tree's start level
# (one above the leaves up to depth 8) moves: depths 0 to 7.
START_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


@st.composite
def tied_rects(draw):
    """A START_SIZES count of lattice rects, some replaced by copies of others."""
    n = draw(st.sampled_from(START_SIZES))
    rects = draw(st.lists(lattice_rect, min_size=n, max_size=n))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        rects[k] = rects[draw(st.integers(0, n - 1))]
    return rects


def prim_gap_values(rects):
    """Pure-python Prim over the full rect_distance matrix, positive edges."""
    n = len(rects)
    in_tree = [False] * n
    best = [math.inf] * n
    best[0] = 0.0
    weights = []
    for _ in range(n):
        u = min((k for k in range(n) if not in_tree[k]), key=lambda k: best[k])
        in_tree[u] = True
        if best[u] > 0.0:
            weights.append(best[u])
        for v in range(n):
            if not in_tree[v]:
                d = lg.rect_distance(rects[u], rects[v])
                if d < best[v]:
                    best[v] = d
    return sorted(weights, reverse=True)


def sequential_unions(n, pairs):
    """Pure-python union-find joining the pairs one at a time: the component
    count and each element's root."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    components = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components, [find(k) for k in range(n)]


def oracle_labels(rects, delta):
    """Pure-python union-find over every pair at rect_distance <= delta."""
    pairs = [(i, j) for i, j in itertools.combinations(range(len(rects)), 2)
             if lg.rect_distance(rects[i], rects[j]) <= delta]
    return sequential_unions(len(rects), pairs)[1]


def sweep_entries(rects):
    """Per-threshold sweep: every distinct pair distance in turn, as a
    threshold, with the drop in the component count across it (counted by a
    dict union-find) as that value's multiplicity."""
    cols = Rects.of(rects)
    iu, ju = np.triu_indices(len(cols), k=1)
    d = _pair_dist(cols, iu, ju)
    order = np.lexsort((ju, iu, d))
    parent = {k: k for k in range(len(cols))}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    weights, components = [], len(cols)
    for value, pairs in itertools.groupby(zip(d[order].tolist(), iu[order].tolist(),
                                              ju[order].tolist()), key=lambda e: e[0]):
        before = components
        for _, i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                components -= 1
        if value > 0.0:
            weights += [value] * (before - components)
    return lg.gaps._aggregate(weights)


def at_least(entries, floor):
    return tuple((v, m) for v, m in entries if v >= floor)


def stacked_pairs(gaps, rise=10.0):
    """Point pairs exactly `gaps[k]` apart in x, stacked `rise` apart in y,
    so every distance is exact: gaps once each, then rise len(gaps) - 1 times."""
    return [Rect(x, rise * k, 0.0, 0.0) for k, g in enumerate(gaps) for x in (0.0, g)]


def overlapping_clusters(n, seed):
    """n rects of side 0.2..0.5 in four clusters one unit apart in x: each
    cluster is one component at 0, with nearly every pair overlapping."""
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.integers(0, 4, n) + rng.uniform(0, 0.5, n)
    y, w, h = rng.uniform(0, 0.5, n), rng.uniform(0.2, 0.5, n), rng.uniform(0.2, 0.5, n)
    return [Rect(*r) for r in zip(x.tolist(), y.tolist(), w.tolist(), h.tolist())]


def translated_copies(seed, size=25, copies=4):
    """`size` random rects in [0, 0.1]^2, copied onto a copies x copies grid
    0.25 apart: side-by-side clusters of one shape."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 0.08, size), rng.uniform(0, 0.08, size)
    w, h = rng.uniform(0, 0.02, size), rng.uniform(0, 0.02, size)
    return [Rect(float(x[k]) + 0.25 * i, float(y[k]) + 0.25 * j, float(w[k]), float(h[k]))
            for i in range(copies) for j in range(copies) for k in range(size)]


def count_pair_dist(monkeypatch):
    """Record the length of every `_pair_dist` call (rect and node-box pairs)."""
    evaluated = []
    pair_dist = lg.gaps._pair_dist

    def counting(r, i, j):
        evaluated.append(len(i))
        return pair_dist(r, i, j)

    monkeypatch.setattr(lg.gaps, "_pair_dist", counting)
    return evaluated


def partition(labels):
    """Canonical labelling: each rect gets the first index sharing its label."""
    first = {}
    return [first.setdefault(int(label), k) for k, label in enumerate(labels)]


class TestRectDistance:
    def test_separated_horizontally(self):
        assert lg.rect_distance(Rect(0, 0, 1, 1), Rect(3, 0, 1, 1)) == 2.0

    def test_separated_vertically(self):
        assert lg.rect_distance(Rect(0, 0, 1, 1), Rect(0, 5, 1, 1)) == 4.0

    def test_diagonal_is_hypot(self):
        d = lg.rect_distance(Rect(0, 0, 1, 1), Rect(4, 5, 1, 1))
        assert d == pytest.approx(math.hypot(3, 4))

    def test_touching_edges(self):
        assert lg.rect_distance(Rect(0, 0, 1, 1), Rect(1, 0, 1, 1)) == 0.0

    def test_overlapping(self):
        assert lg.rect_distance(Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)) == 0.0

    def test_degenerate_points(self):
        a, b = Rect(0, 0, 0, 0), Rect(1, 1, 0, 0)
        assert lg.rect_distance(a, b) == pytest.approx(math.sqrt(2))

    @given(rect_strategy, rect_strategy)
    def test_symmetric_nonnegative(self, r1, r2):
        d = lg.rect_distance(r1, r2)
        assert d >= 0.0
        assert d == lg.rect_distance(r2, r1)

    @given(rect_strategy, rect_strategy, coord, coord)
    def test_translation_invariant(self, r1, r2, dx, dy):
        shift = lambda r: Rect(r.x0 + dx, r.y0 + dy, r.w, r.h)
        d0 = lg.rect_distance(r1, r2)
        d1 = lg.rect_distance(shift(r1), shift(r2))
        assert d1 == pytest.approx(d0, abs=1e-12)


class TestGapSequenceShape:
    def test_flat_expands_multiplicities(self):
        seq = GapSequence(entries=((0.5, 1), (0.25, 3)))
        assert seq.flat() == [0.5, 0.25, 0.25, 0.25]
        assert seq.flat(limit=2) == [0.5, 0.25]
        assert seq.total_multiplicity == 4

    def test_single_rect_has_no_gaps(self):
        seq = lg.gap_sequence_mst([Rect(0, 0, 1, 1)])
        assert seq.entries == ()

    def test_touching_rects_merge_silently(self):
        rects = [Rect(0, 0, 1, 1), Rect(1, 0, 1, 1), Rect(2, 0, 1, 1)]
        assert lg.gap_sequence_mst(rects).entries == ()

    def test_coincident_points_collapse(self):
        rects = [Rect(0.5, 0.5, 0, 0)] * 4
        assert lg.gap_sequence_mst(rects).entries == ()

    def test_many_coincident_rects(self):
        # every pair ties at distance 0; the walk must not visit them all
        rects = [Rect(0.5, 0.5, 0.1, 0.0)] * 20000
        assert lg.gap_sequence_mst(rects).entries == ()
        assert len(set(lg.component_labels(rects, 0.0))) == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            lg.gap_sequence_mst([])
        with pytest.raises(EmptyInput):
            lg.gap_sequence_bruteforce([])

    @pytest.mark.parametrize("floor", [-0.1, -math.inf, math.inf, math.nan])
    def test_bad_floor(self, floor):
        with pytest.raises(ValueError, match="floor must be finite and >= 0"):
            lg.gap_sequence_mst([Rect(0, 0, 1, 1), Rect(2, 0, 1, 1)], floor=floor)

    def test_near_ties_anchor_at_group_head(self):
        # gaps w, w(1 - 0.6e-9), w(1 - 1.2e-9) on a line: the second is within
        # TIE_REL of the head and joins it; the third is within TIE_REL of the
        # second but not of the head, so it starts its own entry (no chaining)
        w = 0.1
        gaps = [w, w * (1 - 0.6e-9), w * (1 - 1.2e-9)]
        xs = np.cumsum([0.0, *gaps]).tolist()
        seq = lg.gap_sequence_mst([Rect(x, 0.0, 0.0, 0.0) for x in xs])
        assert [m for _, m in seq.entries] == [2, 1]
        assert seq.entries[0][0] == pytest.approx(gaps[0], rel=1e-12)
        assert seq.entries[1][0] == pytest.approx(gaps[2], rel=1e-12)

    def test_entries_descend(self):
        rects = synth.random_rects(60, seed=3)
        seq = lg.gap_sequence_mst(rects)
        values = [v for v, _ in seq.entries]
        assert values == sorted(values, reverse=True)
        assert all(v > 0.0 for v in values)
        assert all(m >= 1 for _, m in seq.entries)
        # n rects need at most n-1 tree edges
        assert seq.total_multiplicity <= len(rects) - 1


class TestMSTAgainstOracles:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce(self, seed):
        rects = synth.random_rects(40 + 5 * seed, seed=seed)
        mst = lg.gap_sequence_mst(rects)
        oracle = lg.gap_sequence_bruteforce(rects)
        assert mst.entries == oracle.entries

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_prim_on_tiny_sets(self, seed):
        rects = synth.random_rects(12, seed=100 + seed)
        got = lg.gap_sequence_mst(rects).flat()
        want = prim_gap_values(rects)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)

    @given(st.lists(lattice_rect, min_size=2, max_size=40))
    def test_lattice_ties_match_bruteforce(self, rects):
        assert lg.gap_sequence_mst(rects).entries == \
            lg.gap_sequence_bruteforce(rects).entries

    @pytest.mark.parametrize("rects, entries", [
        # four picks at distance 1 close one cycle of the unit square
        ([Rect(x, y, 0, 0) for x in (0, 1) for y in (0, 1)], ((1.0, 3),)),
        ([Rect(x, y, 0, 0) for x in range(3) for y in range(3)], ((1.0, 8),)),
    ])
    def test_equal_weight_pick_cycles(self, rects, entries):
        assert lg.gap_sequence_mst(rects).entries == entries
        assert lg.gap_sequence_bruteforce(rects).entries == entries

    @pytest.mark.parametrize("seed", range(3))
    def test_translated_clusters_match_bruteforce(self, seed):
        rects = translated_copies(seed)
        assert len(rects) <= 500
        full = lg.gap_sequence_bruteforce(rects).entries
        assert lg.gap_sequence_mst(rects).entries == full
        floor = (full[2][0] + full[3][0]) / 2
        assert lg.gap_sequence_mst(rects, floor=floor).entries == at_least(full, floor)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 4)] * 2, *[st.integers(0, 1)] * 2),
                    min_size=1, max_size=80))
    def test_integer_lattice_multiplicities(self, cells):
        # unit-spaced rects, coincident, touching and overlapping: few
        # distinct distances, each repeated many times
        rects = [Rect(*map(float, c)) for c in cells]
        entries = lg.gap_sequence_bruteforce(rects).entries
        assert entries == sweep_entries(rects)
        assert entries == lg.gap_sequence_mst(rects).entries

    @pytest.mark.parametrize("rects, entries", [
        # three clusters of 20 coincident points, 2 and 3 apart
        ([Rect(x, 0, 0, 0) for x in (0, 2, 5) for _ in range(20)], ((3.0, 1), (2.0, 1))),
        # a 5 x 5 block of touching unit squares and one point a unit away
        ([Rect(x, y, 1, 1) for x in range(5) for y in range(5)] + [Rect(6, 0, 0, 0)],
         ((1.0, 1),)),
        # a 4 x 4 lattice of points: 15 unit edges
        ([Rect(x, y, 0, 0) for x in range(4) for y in range(4)], ((1.0, 15),)),
    ])
    def test_zero_distance_clusters(self, rects, entries):
        assert lg.gap_sequence_bruteforce(rects).entries == entries
        assert sweep_entries(rects) == entries
        assert lg.gap_sequence_mst(rects).entries == entries

    @pytest.mark.parametrize("seed", range(3))
    def test_overlapping_clusters_match_sweep(self, seed):
        rects = overlapping_clusters(120, seed)
        entries = lg.gap_sequence_bruteforce(rects).entries
        assert entries == sweep_entries(rects)
        assert entries == lg.gap_sequence_mst(rects).entries
        assert sum(m for _, m in entries) == 3

    @pytest.mark.parametrize("n", [*range(2, 200, 4), ORACLE_CAP])
    def test_oracle_matches_kruskal_and_prim(self, n):
        # the benchmark's random sizes and the cap: Prim over dense rows
        # against Kruskal over a dict union-find and a pure-python Prim
        rects = synth.random_rects(n, seed=n)
        oracle = lg.gap_sequence_bruteforce(rects)
        assert oracle.entries == sweep_entries(rects)
        assert oracle.flat() == pytest.approx(prim_gap_values(rects), rel=1e-12)

    def test_oracle_builds_no_union_find(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the oracle built a _UnionFind")

        rects = synth.random_rects(60, seed=4) + [Rect(x, 0, 1, 1) for x in range(3)]
        want = sweep_entries(rects)
        monkeypatch.setattr(lg.gaps, "_UnionFind", refuse)
        assert lg.gap_sequence_bruteforce(rects).entries == want
        with pytest.raises(AssertionError, match="built a _UnionFind"):
            lg.gap_sequence_mst(rects)

    def test_oracle_computes_distances_once(self, monkeypatch):
        # one call builds the whole distance matrix; Prim's steps read its rows
        calls = []

        def counted(r, i, j):
            calls.append(np.broadcast_shapes(np.shape(i), np.shape(j)))
            return _pair_dist(r, i, j)

        monkeypatch.setattr(lg.gaps, "_pair_dist", counted)
        for n in (1, 2, 60):
            calls.clear()
            lg.gap_sequence_bruteforce(synth.random_rects(n, seed=n))
            assert calls == [(n, n)]

    def test_oracle_cap(self):
        rects = synth.random_rects(ORACLE_CAP + 1, seed=0)
        with pytest.raises(OracleCapExceeded):
            lg.gap_sequence_bruteforce(rects)


class TestBadRects:
    """A rect with a corner that is not finite or a negative side is refused
    up front, naming its index: a NaN would make the Borůvka rounds loop
    forever, and an infinite corner would give an infinite gap."""

    BAD = [Rect(math.nan, 0, 1, 1), Rect(0, math.nan, 1, 1), Rect(math.inf, 0, 1, 1),
           Rect(0, -math.inf, 1, 1), Rect(0, 0, math.inf, 1), Rect(0, 0, 1, math.nan),
           Rect(2, 0, -5, 1), Rect(2, 0, 1, -0.5), Rect(1e308, 0, 1e308, 1)]

    @pytest.mark.parametrize("entry", [
        lg.gap_sequence_mst, lg.gap_sequence_bruteforce,
        lambda rects: lg.component_labels(rects, 0.5),
    ])
    @pytest.mark.parametrize("bad", BAD)
    def test_refused(self, entry, bad):
        with pytest.raises(ValueError, match="rect 1 must have finite corners"):
            entry([Rect(0, 0, 1, 1), bad, Rect(3, 0, 1, 1)])

    def test_single_bad_rect(self):
        with pytest.raises(ValueError, match="rect 0 "):
            lg.gap_sequence_bruteforce([Rect(math.nan, 0, 1, 1)])

    def test_columns_checked_too(self):
        good = Rects.of([Rect(0, 0, 1, 1), Rect(3, 0, 1, 1)])
        assert Rects.of(good) is good
        bad = Rects(np.array([0.0, 3.0]), np.array([0.0, 0.0]),
                    np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="rect 1 "):
            lg.gap_sequence_mst(bad)

    def test_points_and_segments_stay_valid(self):
        rects = [Rect(0, 0, 0, 0), Rect(1, 0, 0, 2), Rect(3, 0, 0, 0)]
        assert lg.gap_sequence_mst(rects).entries == ((2.0, 1), (1.0, 1))


class TestTree:
    """The median-split tree's layout: ranges, splits and node boxes."""

    @staticmethod
    def check(rects):
        cols = Rects.of(rects)
        n = len(cols)
        tree = _Tree(cols)
        perm = tree.perm
        assert sorted(perm.tolist()) == list(range(n))
        cx, cy = (cols.x0 + cols.x1)[perm], (cols.y0 + cols.y1)[perm]
        depth = len(tree.levels) - 1
        assert depth == (n - 1).bit_length()
        for level, (lo, hi, boxes) in enumerate(tree.levels):
            k = np.arange(2 ** level + 1)
            assert lo.tolist() == ((k[:-1] * n) >> level).tolist()
            assert hi.tolist() == ((k[1:] * n) >> level).tolist()
            for node in np.flatnonzero(hi > lo):
                span = slice(lo[node], hi[node])
                assert boxes.x0[node] == cols.x0[perm[span]].min()
                assert boxes.y0[node] == cols.y0[perm[span]].min()
                assert boxes.x1[node] == cols.x1[perm[span]].max()
                assert boxes.y1[node] == cols.y1[perm[span]].max()
                if level == depth:
                    assert hi[node] - lo[node] == 1
                    continue
                xs, ys = cx[span], cy[span]
                c = xs if np.ptp(xs) >= np.ptp(ys) else ys
                mid = ((2 * node + 1) * n >> (level + 1)) - lo[node]
                if 0 < mid < len(c):
                    assert c[:mid].max() <= c[mid:].min()

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=70))
    def test_tie_heavy_lattices(self, cells):
        self.check([Rect(*map(float, c)) for c in cells])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100, 333])
    def test_random_rects(self, n):
        self.check(synth.random_rects(n, seed=n))

    @pytest.mark.parametrize("n", START_SIZES + [100, 198, 333])
    def test_start_pairs_list_every_pair_once(self, n):
        tree = _Tree(Rects.of(synth.random_rects(n, seed=n)))
        depth = len(tree.levels) - 1
        assert tree.start == max(depth // 2, min(depth - 1, 7))
        a, b, dist = tree.start_pairs
        m = 2 ** tree.start
        assert sorted(zip(a.tolist(), b.tolist())) == \
            [(p, q) for p in range(m) for q in range(p, m)]
        assert np.array_equal(dist, _pair_dist(tree.levels[tree.start][2], a, b))


class TestDescend:
    """The one node-pair walk alone: kept by box distance only, the rect pairs
    it hands over that lie within t are every rect pair within t."""

    @staticmethod
    def check(rects, t):
        cols = Rects.of(rects)
        handed = set()

        def act(i, j):
            close = (_pair_dist(cols, i, j) <= t) & (i != j)
            handed.update(zip(np.minimum(i, j)[close].tolist(),
                              np.maximum(i, j)[close].tolist()))

        _Tree(cols).descend(lambda level, a, b, dist: dist <= t, act)
        iu, ju = np.triu_indices(len(cols), k=1)
        within = _pair_dist(cols, iu, ju) <= t
        assert handed == set(zip(iu[within].tolist(), ju[within].tolist()))

    @pytest.mark.parametrize("t", [0.0, 0.02, 0.1])
    @pytest.mark.parametrize("n", START_SIZES)
    def test_random_rects(self, n, t):
        self.check(synth.random_rects(n, seed=n), t)

    @settings(max_examples=200, deadline=None)
    @given(tied_rects(), st.sampled_from([0.0, 0.25, 0.6]))
    def test_lattice_rects(self, rects, t):
        self.check(rects, t)


class TestStartLevel:
    """Walks that start at the tree's start level, and rounds on the quotient,
    against the oracles at sizes around every start-level boundary."""

    @settings(max_examples=200, deadline=None)
    @given(tied_rects(), st.data())
    def test_mst_matches_bruteforce_at_a_floor(self, rects, data):
        entries = lg.gap_sequence_bruteforce(rects).entries
        floor = data.draw(st.sampled_from([0.0, *(v for v, _ in entries)]))
        assert lg.gap_sequence_mst(rects, floor=floor).entries == at_least(entries, floor)

    @settings(max_examples=200, deadline=None)
    @given(tied_rects(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_labels_match_oracle(self, rects, delta):
        assert list(lg.component_labels(rects, delta)) == \
            partition(oracle_labels(rects, delta))

    def test_carpet_pair_dist_calls(self, cd, monkeypatch):
        # the start pairs' distances come once per tree, and no round walks
        # the levels above them
        evaluated = count_pair_dist(monkeypatch)
        lg.gap_sequence_of_carpet(cd, 1e-3)
        assert len(evaluated) <= 150

    def test_carpet_sequence_at_scale(self, cd):
        # 262144 rects, 8192 components after the join, 13 rounds
        seq = lg.gap_sequence_of_carpet(cd, 1e-4)
        assert seq.total_multiplicity == 8191
        assert len(seq.entries) == 13
        text = "".join(f"{v.hex()} {m}\n" for v, m in seq.entries)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "ea45d3853edb6a6302830ed7c718c78453ee2af3e8dda3ae07dc8c1230a3cd3b"


class TestFloor:
    """gap_sequence_mst(rects, floor) returns the full sequence's entries >= floor."""

    @given(st.lists(lattice_rect, min_size=2, max_size=40), st.data())
    def test_lattice_floor_matches_bruteforce(self, rects, data):
        entries = lg.gap_sequence_bruteforce(rects).entries
        value = data.draw(st.sampled_from([v for v, _ in entries] or [0.25]))
        k = data.draw(st.integers(-5, 5))
        floor = value * (1 + k * 1e-9)
        assert lg.gap_sequence_mst(rects, floor=floor).entries == at_least(entries, floor)

    def test_gaps_exactly_at_the_floor(self):
        # the floor is closed, and one ulp below it still joins the head
        c = 0.1
        rects = stacked_pairs([0.5, c, c, math.nextafter(c, 0.0), c * (1 - 3e-9)])
        assert lg.gap_sequence_mst(rects).entries == \
            ((10.0, 4), (0.5, 1), (c, 3), (c * (1 - 3e-9), 1))
        assert lg.gap_sequence_mst(rects, floor=c).entries == ((10.0, 4), (0.5, 1), (c, 3))

    def test_group_members_below_the_floor(self):
        # a head above the floor keeps a member within TIE_REL below it even
        # though that member is below the floor; the next gap starts a new,
        # dropped entry
        c = 0.1
        head, member, next_ = c * (1 + 0.5e-9), c * (1 - 0.4e-9), c * (1 - 2e-9)
        assert head - member <= TIE_REL * head < head - next_
        rects = stacked_pairs([head, member, next_])
        full = lg.gap_sequence_mst(rects).entries
        assert full == ((10.0, 2), (head, 2), (next_, 1))
        assert lg.gap_sequence_mst(rects, floor=c).entries == ((10.0, 2), (head, 2))
        assert lg.gap_sequence_bruteforce(rects).entries == full

    def test_random_sets_match_full_sequence(self):
        for seed in range(10):
            rects = synth.random_rects(150, seed=seed)
            full = lg.gap_sequence_mst(rects).entries
            for value, _ in full[::7]:
                assert lg.gap_sequence_mst(rects, floor=value).entries == \
                    at_least(full, value)

    def test_overlapping_rects_never_walk_all_pairs(self, monkeypatch):
        n = 20000
        rects = overlapping_clusters(n, seed=0)
        evaluated = count_pair_dist(monkeypatch)
        assert len(set(lg.component_labels(rects, 0.0).tolist())) == 4
        seq = lg.gap_sequence_mst(rects, floor=0.01)
        assert seq.total_multiplicity == 3
        assert all(v >= 1.0 for v, _ in seq.entries)
        # a few rect and node-box pairs per rect, against n * (n - 1) / 2 = 2e8
        assert sum(evaluated) < 40 * n

    def test_carpet_walk_budget(self, cd, monkeypatch):
        # 16384 separated rects in 512 side-by-side clusters at the floor: the
        # first rects of two nodes realise their box distance early, so the
        # rounds need well under 20 rect and node-box pairs per rect
        n = len(lg.approx_set(cd, 1e-3).rects)
        evaluated = count_pair_dist(monkeypatch)
        assert lg.gap_sequence_of_carpet(cd, 1e-3).total_multiplicity == 511
        assert sum(evaluated) < 20 * n

    @pytest.mark.parametrize("name", ["cd", "mcm"])
    def test_carpet_equals_filtered_full_sequence(self, request, name):
        spec, delta_res = request.getfixturevalue(name), 1e-3
        rects = lg.approx_set(spec, delta_res).rects
        full = lg.gap_sequence_mst(rects).entries
        seq = lg.gap_sequence_of_carpet(spec, delta_res)
        assert seq.entries == at_least(full, SIGMA_STABILITY * delta_res)
        assert seq.entries and len(seq.entries) < len(full)


class TestCantorIntervals:
    def test_negative_level(self):
        with pytest.raises(ValueError, match="level must be >= 0, got -1"):
            synth.cantor_intervals(-1)

    def test_level_8_gap_sequence(self):
        # 2^8 intervals; gap 3^-n appears 2^(n-1) times
        seq = lg.gap_sequence_mst(synth.cantor_intervals(8))
        assert len(seq.entries) == 8
        for n, (value, mult) in enumerate(seq.entries, start=1):
            assert mult == 2 ** (n - 1)
            assert value == pytest.approx(3.0 ** -n, rel=1e-12)
        assert seq.value_error == 0.0

    def test_level_8_routes_agree(self):
        rects = synth.cantor_intervals(8)
        assert lg.gap_sequence_mst(rects).entries == \
            lg.gap_sequence_bruteforce(rects).entries


class TestComponents:
    def test_thresholds_on_cantor_level_3(self):
        rects = synth.cantor_intervals(3)
        # gaps: 1/3 once, 1/9 twice, 1/27 four times
        assert lg.n_delta_components(rects, 0.02) == 8
        assert lg.n_delta_components(rects, 0.05) == 4
        assert lg.n_delta_components(rects, 0.12) == 2
        assert lg.n_delta_components(rects, 0.4) == 1

    def test_closed_threshold_joins_exact_distance(self):
        rects = [Rect(0, 0, 1, 1), Rect(2, 0, 1, 1)]
        assert lg.n_delta_components(rects, 1.0) == 1
        assert lg.n_delta_components(rects, 0.999) == 2

    def test_labels_partition(self):
        rects = [Rect(0, 0, 1, 1), Rect(1.5, 0, 1, 1), Rect(10, 0, 1, 1)]
        labels = lg.component_labels(rects, 0.6)
        assert labels[0] == labels[1] != labels[2]

    def test_single_rect(self):
        labels = lg.component_labels([Rect(0, 0, 1, 1)], 0.5)
        assert list(labels) == [0]

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            lg.component_labels([Rect(0, 0, 1, 1)], -0.1)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            lg.component_labels([], 0.1)

    @given(st.lists(lattice_rect, min_size=1, max_size=40), st.data())
    def test_lattice_labels_match_oracle(self, rects, data):
        # thresholds at an exact pair distance (closed: the pair joins) and
        # just below it (the pair stays apart)
        dists = sorted({0.0} | {lg.rect_distance(p, q)
                                for p, q in itertools.combinations(rects, 2)})
        delta = data.draw(st.sampled_from(dists))
        for d in {delta, max(0.0, math.nextafter(delta, -math.inf))}:
            want = partition(oracle_labels(rects, d))
            assert partition(lg.component_labels(rects, d)) == want
            # the label is the least index of the component
            assert list(lg.component_labels(rects, d)) == want

    def test_matches_bruteforce_count(self):
        rects = synth.random_rects(80, seed=7)
        seq = lg.gap_sequence_bruteforce(rects)
        for delta in (0.01, 0.05, 0.2):
            # components at delta = 1 + number of surviving gaps > delta
            survivors = sum(m for v, m in seq.entries if v > delta)
            assert lg.n_delta_components(rects, delta) == 1 + survivors


class TestCarpetGaps:
    def test_cantor_dust_pins(self, cd):
        # top-level x gap 1/2 (one edge), y gap 1/3 (two edges); the
        # 4 * delta_res cutoff drops everything from level 2 down
        seq = lg.gap_sequence_of_carpet(cd, 1 / 27)
        assert len(seq.entries) == 2
        (v1, m1), (v2, m2) = seq.entries
        assert (m1, m2) == (1, 2)
        assert v1 == pytest.approx(0.5, rel=1e-12)
        assert v2 == pytest.approx(1 / 3, rel=1e-12)
        assert seq.value_error == pytest.approx(2 / 27)

    def test_coarser_resolution_keeps_fewer(self, cd):
        seq = lg.gap_sequence_of_carpet(cd, 1 / 9)
        assert [m for _, m in seq.entries] == [1]

    def test_refinement_extends_prefix(self, cd):
        coarse = lg.gap_sequence_of_carpet(cd, 1 / 27)
        fine = lg.gap_sequence_of_carpet(cd, 1 / 81)
        assert len(fine.entries) > len(coarse.entries)
        for (vc, mc), (vf, mf) in zip(coarse.entries, fine.entries):
            assert mc == mf
            assert vf == pytest.approx(vc, rel=1e-12)


class TestScalingFit:
    def test_exact_power_law(self):
        s = 2.0
        seq = GapSequence(entries=tuple((k ** (-1.0 / s), 1)
                                        for k in range(1, 101)))
        fit = lg.scaling_fit(seq, s)
        assert fit.slope == pytest.approx(-1.0 / s, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0)
        lo, hi = fit.ratio_band
        assert hi / lo == pytest.approx(1.0, rel=1e-12)

    def test_band_detects_wrong_exponent(self):
        seq = GapSequence(entries=tuple((k ** -1.0, 1) for k in range(1, 101)))
        fit = lg.scaling_fit(seq, 2.0)  # true exponent is 1
        lo, hi = fit.ratio_band
        assert hi / lo > 5.0

    def test_too_few_gaps(self):
        seq = GapSequence(entries=((0.5, 9),))
        with pytest.raises(TooFewGaps):
            lg.scaling_fit(seq, 2.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_refuses_bad_dimension(self, cd, s):
        # at s = 0 the band's exponent 1/s divided by zero; -1 and NaN gave
        # a band for no dimension
        seq = lg.gap_sequence_of_carpet(cd, 3.0 ** -7)
        assert seq.total_multiplicity >= 10
        with pytest.raises(ValueError, match="s must be finite and > 0"):
            lg.scaling_fit(seq, s)

    def test_multiplicities_flatten_into_k(self):
        # one entry of multiplicity 10 is a constant sequence: slope 0
        seq = GapSequence(entries=((0.25, 10),))
        fit = lg.scaling_fit(seq, 2.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0


class TestUnionFind:
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))))
    def test_union_pairs_matches_sequential_unions(self, case):
        n, pairs = case
        components, roots = sequential_unions(n, pairs)
        vec = _UnionFind(n)
        ab = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        vec.union_pairs(ab[:, 0], ab[:, 1])
        assert vec.components == components
        # the same partition, compressed, each component rooted at its least member
        assert list(vec.parent) == partition(roots)
