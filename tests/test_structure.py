"""Projection, codings, fibers, Hausdorff bounds, gap intervals, and h_delta.

The interval-set arithmetic gets hypothesis coverage; the carpet-level
operations are pinned against hand-computed values on the canonical specs.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lgcarpet as lg
from lgcarpet import IntervalSet, synth
from lgcarpet.errors import (
    BudgetExceeded,
    CodingsNotDiverging,
    EmptyAttractor,
    EmptyInput,
    InvalidCoding,
    NoGapFound,
    NotInProjection,
    VerificationFailed,
)
from lgcarpet import structure
from lgcarpet.structure import DIST_TIE_REL, GAP_FIBER_CAP, _distances, _projection_bounds
from test_carpet import uneven_specs, walk_specs

pair = st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 0.2, allow_nan=False))
pairs_strategy = st.lists(pair.map(lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=10)
grid_specs = st.integers(0, 2 ** 32 - 1).map(synth.random_grid_spec)


def reference_classes(spec, delta):
    """All-pairs oracle for idelta_classes: each word's full interval block
    (its image of the projection cover at the depth left below it), the set
    distance between every two blocks, and a dict union-find over the pairs
    within delta * (1 + DIST_TIE_REL).  The distance between two unions of
    closed intervals is attained at an endpoint of one of them (0 when they
    meet), so the endpoints' point distances give it exactly."""
    words = lg.row_stopping_words(spec, delta)
    b_max = max(lg.project_F(spec).ratios)
    depth = max(1, math.ceil(math.log(delta / 100.0) / math.log(b_max)))
    blocks = {}
    for word in words:
        _, _, s, t = lg.word_map(spec, [(i, 1) for i in word])
        base = lg.projection_approx(spec, max(0, depth - len(word)))
        blocks[word] = IntervalSet([(t + s * lo, t + s * hi) for lo, hi in base.intervals])
    parent = {word: word for word in words}

    def find(word):
        while parent[word] != word:
            word = parent[word]
        return word

    for a, b in itertools.combinations(words, 2):
        a_ends = np.concatenate([blocks[a].lo, blocks[a].hi])
        b_ends = np.concatenate([blocks[b].lo, blocks[b].hi])
        gap = min(_distances(blocks[b], a_ends).min(), _distances(blocks[a], b_ends).min())
        if gap <= delta * (1.0 + DIST_TIE_REL):
            parent[find(a)] = find(b)
    groups = {}
    for word in words:
        groups.setdefault(find(word), []).append(word)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


# a valid spec whose middle row is thinner than y_codings' strip tolerance
THIN_ROW_SPEC = """{"rows": [{"b": "1/2", "cells": [{"a": "1/4", "c": "0"}]},
          {"b": "1e-16", "cells": [{"a": "5e-17", "c": "0"}]},
          {"b": 0.49999999999999994, "cells": [{"a": "1/4", "c": "1/2"}]}]}"""

# a valid spec whose heights sum to 1 - 2**-53 in float: the top of its
# projection's top strip falls about 2e-15 below 1 by refinement level 17
SHORT_TOP_SPEC = """{"rows": [
          {"b": 0.05271828665568369, "cells": [{"a": 0.026359143327841845, "c": 0}]},
          {"b": 0.9472817133443162, "cells": [{"a": 0.4736408566721581, "c": 0}]}]}"""


@st.composite
def cover_specs(draw):
    """Valid specs whose neighbouring cells are apart, touching, or overlapping
    within `validate`'s 1e-12 slack."""
    weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    rows = []
    for w in weights:
        b = w / sum(weights)
        cells, x = [], draw(st.sampled_from([0.0, 0.05]))
        for _ in range(draw(st.integers(0, 3))):
            a = b * draw(st.sampled_from([0.25, 1 / 3, 0.5]))
            cells.append(lg.Cell(a, x))
            x += a + draw(st.sampled_from([0.1, 0.01, 0.0, -5e-13]))
        rows.append(lg.RowSpec(b, tuple(cells)))
    spec = lg.CarpetSpec(tuple(rows))
    assume(spec.nonempty_rows and lg.validate(spec) == [])
    return spec


# `validate` flags row 1's cells, listed right to left, but the cover
# functions take any spec
RIGHT_TO_LEFT = lg.spec_from_dict({"rows": [
    {"b": 0.5, "cells": [{"a": 0.25, "c": 0.75}, {"a": 0.25, "c": 0.25}, {"a": 0.25, "c": 0}]},
    {"b": 0.5, "cells": [{"a": 0.25, "c": 0.5}]}]})

cover_cases = st.one_of(cover_specs(), st.sampled_from(
    [synth.cantor_dust(), synth.three_map_carpet(), synth.mixed_rows(),
     synth.touching_columns(), RIGHT_TO_LEFT]))


def merged_at_every_step(steps):
    """The IFS cover with every step's images sorted and merged by `_merge`:
    the reference that a step skipping the merge must match bit for bit."""
    lo, hi = np.zeros(1), np.ones(1)
    for scale, offset in steps:
        scale, offset = scale[:, None], offset[:, None]
        lo, hi = structure._merge((offset + scale * lo).ravel(), (offset + scale * hi).ravel())
    return lo, hi


def same_bits(cover, lo, hi):
    return (cover.lo.dtype == cover.hi.dtype == np.float64
            and cover.lo.tobytes() == lo.tobytes() and cover.hi.tobytes() == hi.tobytes())


def reference_h_delta(spec, delta):
    """The largest product, in word order, of (widest cell / height) over the
    rows of a stopping row-word."""
    best = 0.0
    for word in lg.row_stopping_words(spec, delta):
        ratio = 1.0
        for i in word:
            ratio *= spec.row_max_width[i - 1] / spec.rows[i - 1].b
        best = max(best, ratio)
    return best


def assert_same_cover(got, pairs):
    """`got` is the union of `pairs` up to rounding: the same intervals once
    gaps below 1e-12 are closed, with endpoints within 1e-12."""
    want = IntervalSet(pairs, tol=1e-12).intervals
    got = IntervalSet(got.intervals, tol=1e-12).intervals
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestIntervalSet:
    @given(pairs_strategy)
    def test_from_pairs_sorted_disjoint(self, raw):
        ivs = IntervalSet(raw).intervals
        for lo, hi in ivs:
            assert lo <= hi
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            assert l2 > h1  # touching intervals are merged away

    @given(pairs_strategy)
    def test_total_length_within_hull(self, raw):
        s = IntervalSet(raw)
        lo, hi = s.bounds
        assert 0.0 <= s.total_length <= (hi - lo) + 1e-12

    @given(pairs_strategy, st.floats(-0.5, 1.5, allow_nan=False))
    def test_distance_to_point_brute(self, raw, x):
        s = IntervalSet(raw)
        brute = min(max(lo - x, x - hi, 0.0) for lo, hi in s.intervals)
        assert s.distance_to_point(x) == pytest.approx(brute, abs=1e-15)

    @given(pairs_strategy, st.floats(-0.5, 1.5, allow_nan=False),
           st.floats(0.001, 0.5, allow_nan=False))
    def test_intersects_open_brute(self, raw, lo, width):
        s = IntervalSet(raw)
        hi = lo + width
        brute = any(l < hi and h > lo for l, h in s.intervals)
        assert s.intersects_open(lo, hi) == brute

    def test_merge_with_tolerance(self):
        s = IntervalSet([(0.0, 0.5), (0.500001, 1.0)], tol=1e-3)
        assert len(s) == 1
        s = IntervalSet([(3.0, 4.0), (0.0, 1.0)], tol=math.inf)
        assert s.intervals == ((0.0, 4.0),)  # the hull

    @given(pairs_strategy, st.randoms(use_true_random=False))
    def test_constructor_ignores_order(self, raw, rnd):
        shuffled = list(raw)
        rnd.shuffle(shuffled)
        assert IntervalSet(shuffled).intervals == IntervalSet(raw).intervals

    def test_constructor_sorts_and_merges(self):
        s = IntervalSet([(0.6, 1.0), (0.0, 0.1), (0.05, 0.2), (0.2, 0.3)])
        assert s.intervals == ((0.0, 0.3), (0.6, 1.0))
        assert s.bounds == (0.0, 1.0)
        assert repr(s) == "IntervalSet(((0.0, 0.3), (0.6, 1.0)))"

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_from_pairs_refuses_bad_tol(self, tol):
        # -1 would leave (0, 1) and (0.5, 2) overlapping, NaN would merge
        # (0, 1) and (3, 4) across their gap
        for pairs in ([(0.0, 1.0), (0.5, 2.0)], [(0.0, 1.0), (3.0, 4.0)]):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                IntervalSet(pairs, tol=tol)

    def test_empty_set_has_no_bounds_or_distance(self):
        empty = IntervalSet(())
        with pytest.raises(EmptyInput, match="no bounds"):
            empty.bounds
        with pytest.raises(EmptyInput):
            empty.distance_to_point(0.5)

    @pytest.mark.parametrize("pairs", [[(1.0, 0.0)], [(0.0, math.nan)], [(math.nan, 0.5)],
                                       [(0.0, 0.1), (0.2, math.inf)], [(-math.inf, 0.0)]])
    def test_constructor_refuses_bad_pairs(self, pairs):
        with pytest.raises(ValueError, match="needs finite lo <= hi"):
            IntervalSet(pairs)


class TestHausdorff:
    def test_cantor_vs_endpoints(self):
        cantor = IntervalSet([(r.x0, r.x1) for r in synth.cantor_intervals(3)])
        two = IntervalSet([(1 / 6, 1 / 6), (5 / 6, 5 / 6)])
        d = lg.hausdorff_distance(cantor, two)
        assert d == pytest.approx(1 / 6, rel=1e-12)

    def test_identical_sets(self):
        s = IntervalSet([(0.0, 0.25), (0.5, 1.0)])
        assert lg.hausdorff_distance(s, s) == 0.0

    def test_symmetry_and_shift(self):
        a = IntervalSet([(0.0, 0.1)])
        b = IntervalSet([(0.4, 0.5)])
        assert lg.hausdorff_distance(a, b) == lg.hausdorff_distance(b, a) == pytest.approx(0.4)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            lg.hausdorff_distance(IntervalSet(()), IntervalSet(((0.0, 1.0),)))

    def test_unsorted_pairs_same_set(self):
        a = IntervalSet([(0.6, 1.0), (0.0, 0.1)])
        b = IntervalSet([(0.0, 0.1), (0.6, 1.0)])
        assert lg.hausdorff_distance(a, b) == 0.0

    @given(pairs_strategy, pairs_strategy, pairs_strategy)
    def test_triangle_inequality(self, ra, rb, rc):
        a, b, c = (IntervalSet(r) for r in (ra, rb, rc))
        dab = lg.hausdorff_distance(a, b)
        assert dab <= lg.hausdorff_distance(a, c) + lg.hausdorff_distance(c, b) + 1e-9


class TestProjection:
    def test_project_f_cd(self, cd):
        proj = lg.project_F(cd)
        assert proj.rows == (1, 3)
        assert proj.ratios == (1 / 3, 1 / 3)
        assert proj.offsets == (0.0, 2 / 3)

    def test_projection_approx_cd(self, cd):
        assert lg.projection_approx(cd, 1).intervals == ((0.0, 1 / 3), (2 / 3, 1.0))
        assert len(lg.projection_approx(cd, 4)) == 16

    def test_mcm_projection_is_full_interval(self, mcm):
        # halves touch at 1/2 and merge at every depth
        assert lg.projection_approx(mcm, 5).intervals == ((0.0, 1.0),)

    def test_merged_rows_refined_per_word(self):
        # rows 1 and 2 touch and merge into [0, 2/3] at depth 1; depth 2 is
        # the union of the four row-word images, not a refinement of [0, 2/3]
        third = 1.0 / 3.0
        spec = lg.CarpetSpec((lg.RowSpec(third, (lg.Cell(0.25, 0.0),)),
                              lg.RowSpec(third, (lg.Cell(0.25, 0.0),)),
                              lg.RowSpec(third, ())))
        assert lg.projection_approx(spec, 2).intervals == ((0.0, 2 / 9), (1 / 3, 5 / 9))

    @settings(max_examples=80, deadline=None)
    @given(grid_specs, st.integers(1, 4))
    def test_union_of_row_words(self, spec, depth):
        pairs = []
        for rows in itertools.product(spec.nonempty_rows, repeat=depth):
            _, _, sy, ty = lg.word_map(spec, [(i, 1) for i in rows])
            pairs.append((ty, ty + sy))
        assert_same_cover(lg.projection_approx(spec, depth), pairs)

    def test_negative_depth(self, cd):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            lg.projection_approx(cd, -1)
        with pytest.raises(ValueError, match="^depth must be a finite whole number, got 2.5$"):
            lg.projection_approx(cd, 2.5)
        assert lg.projection_approx(cd, 3.0).intervals == lg.projection_approx(cd, 3).intervals

    def test_empty_attractor(self):
        spec = lg.CarpetSpec((lg.RowSpec(0.5, ()), lg.RowSpec(0.5, ())))
        with pytest.raises(EmptyAttractor, match="^every row is empty$"):
            lg.project_F(spec)
        with pytest.raises(EmptyAttractor, match="every row is empty"):
            lg.gap_fraction(spec)

    def test_budget(self, cd, monkeypatch):
        # 16 intervals at depth 4, each with two images at depth 5
        monkeypatch.setenv("LG_MAX_CYLINDERS", "32")
        assert len(lg.projection_approx(cd, 5)) == 32
        monkeypatch.setenv("LG_MAX_CYLINDERS", "31")
        with pytest.raises(BudgetExceeded,
                           match="^projection at depth 5: 16 intervals x 2 maps exceeds cap 31$"):
            lg.projection_approx(cd, 5)


class TestYCodings:
    def test_boundary_point_two_codings(self, mcm):
        assert lg.y_codings(mcm, 0.5, 4) == [(1, 2, 2, 2), (2, 1, 1, 1)]

    def test_endpoints(self, cd):
        assert lg.y_codings(cd, 0.0, 3) == [(1, 1, 1)]
        assert lg.y_codings(cd, 1.0, 3) == [(3, 3, 3)]

    def test_interior_generic_point(self, cd):
        codings = lg.y_codings(cd, 0.1, 5)
        assert len(codings) == 1
        assert codings[0][0] == 1

    def test_strip_thinner_than_tolerance(self, tmp_path):
        # the middle row is 1e-16 high, so y = 0.5 is within tolerance of all
        # three strips; the first and last itineraries are kept
        path = tmp_path / "thin.json"
        path.write_text(THIN_ROW_SPEC)
        spec = lg.load_spec(path)
        assert lg.validate(spec) == []
        assert lg.y_codings(spec, 0.5, 3) == [(1, 3, 3), (3, 1, 1)]
        assert lg.y_codings(spec, 0.25, 3) == [(1, 1, 3), (1, 3, 1)]

    def test_top_strip_keeps_its_parents_top(self, tmp_path):
        path = tmp_path / "short_top.json"
        path.write_text(SHORT_TOP_SPEC)
        spec = lg.load_spec(path)
        assert lg.validate(spec) == []
        assert lg.y_codings(spec, 1.0, 40) == [(2,) * 40]
        assert lg.y_codings(spec, 0.0, 40) == [(1,) * 40]

    @pytest.mark.parametrize("low", [0.05, 0.5, 0.9])
    def test_heights_short_of_one_within_validation(self, low):
        # validate lets the heights sum to 1 within 1e-12
        spec = lg.CarpetSpec((lg.RowSpec(low, (lg.Cell(low / 2, 0.0),)),
                              lg.RowSpec(1.0 - low - 9e-13, (lg.Cell(0.01, 0.5),))))
        assert lg.validate(spec) == []
        assert lg.y_codings(spec, 1.0, 12) == [(2,) * 12]

    def test_depth_domain(self, cd):
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            lg.y_codings(cd, 0.0, 0)
        with pytest.raises(ValueError, match="^depth must be a finite whole number, got 2.5$"):
            lg.y_codings(cd, 0.0, 2.5)
        assert lg.y_codings(cd, 0.1, 5.0) == lg.y_codings(cd, 0.1, 5)

    def test_deep_codings_past_the_resolution_floor(self, mcm):
        # MCM's strips pass RESOLUTION_FLOOR at level 47; from there every
        # branch only appends the smallest row
        start = time.perf_counter()
        deep = lg.y_codings(mcm, 0.3, 100000)
        assert time.perf_counter() - start < 1.0
        assert deep == [coding + (1,) * (100000 - 60) for coding in lg.y_codings(mcm, 0.3, 60)]

    def test_hole_raises(self, cd):
        with pytest.raises(NotInProjection):
            lg.y_codings(cd, 0.5, 3)  # middle row is empty
        with pytest.raises(NotInProjection):
            lg.y_codings(cd, -0.2, 3)

    def test_codings_reproduce_y(self, mixed):
        # phi-composition of the coding must come back to y
        rng = np.random.default_rng(5)
        proj = lg.project_F(mixed)
        idx = {r: k for k, r in enumerate(proj.rows)}
        for _ in range(50):
            depth = 40
            # sample a y that is definitely in the projection
            word = rng.integers(0, len(proj.rows), size=depth)
            y = 0.0
            for w in reversed(word):
                y = proj.offsets[w] + proj.ratios[w] * y
            for coding in lg.y_codings(mixed, y, depth):
                z, scale = 0.0, 1.0
                for i in coding:
                    z += scale * proj.offsets[idx[i]]
                    scale *= proj.ratios[idx[i]]
                assert abs(z - y) <= scale + 1e-12


class TestFibers:
    def test_mcm_single_cell_fiber(self, mcm):
        assert lg.fiber_approx(mcm, (2, 2, 2)).intervals == ((13 / 27, 14 / 27),)

    def test_cd_fiber(self, cd):
        assert lg.fiber_approx(cd, (1, 1)).intervals == (
            (0.0, 0.0625), (0.1875, 0.25), (0.75, 0.8125), (0.9375, 1.0))

    def test_nesting(self, mixed):
        outer = lg.fiber_approx(mixed, (1, 3))
        inner = lg.fiber_approx(mixed, (1, 3, 1, 3))
        for lo, hi in inner.intervals:
            assert any(l - 1e-12 <= lo and hi <= h + 1e-12
                       for l, h in outer.intervals)

    def test_invalid_codings(self, cd):
        for bad in [(), (0,), (4,), (2,)]:  # row 2 of CD is empty
            with pytest.raises(InvalidCoding):
                lg.fiber_approx(cd, bad)

    @pytest.mark.parametrize("call", [
        lambda cd: lg.fiber_approx(cd, [1.0, 3.0]),
        lambda cd: lg.check_hd_bound(cd, (1, 3), (3, 1.0)),
        lambda cd: lg.find_gap_interval(cd, (1, 3.0), (0.0, 1.0)),
    ], ids=["fiber_approx", "check_hd_bound", "find_gap_interval"])
    def test_float_row_digit(self, cd, call):
        # every caller of the coding check refuses a digit that is no integer
        with pytest.raises(InvalidCoding, match=r"^row [13]\.0 is not an integer$"):
            call(cd)

    def test_budget(self, cd, monkeypatch):
        monkeypatch.setenv("LG_MAX_CYLINDERS", "100")
        with pytest.raises(BudgetExceeded):
            lg.fiber_approx(cd, (1,) * 10)

    def test_budget_refuses_first_step_over_cap(self, cd, monkeypatch):
        # CD rows have two separated cells: step k builds 2**k intervals
        monkeypatch.setenv("LG_MAX_CYLINDERS", "64")
        assert len(lg.fiber_approx(cd, (1, 3) * 3)) == 64
        monkeypatch.setenv("LG_MAX_CYLINDERS", "63")
        with pytest.raises(BudgetExceeded,
                           match="^fiber at depth 10: 32 intervals x 2 maps exceeds cap 63$"):
            lg.fiber_approx(cd, (1, 3) * 5)

    def test_budget_counts_merged_intervals(self, monkeypatch):
        # row 1's cells tile [0, 1]: 3**20 column choices, but every step
        # merges its three images back into [0, 1]
        third = 1.0 / 3.0
        spec = lg.CarpetSpec((
            lg.RowSpec(0.5, (lg.Cell(third, 0.0), lg.Cell(third, third),
                             lg.Cell(third, 2 * third))),
            lg.RowSpec(0.5, (lg.Cell(0.25, 0.25),)),
        ))
        monkeypatch.setenv("LG_MAX_CYLINDERS", "3")
        assert lg.fiber_approx(spec, (1,) * 20).intervals == ((0.0, 1.0),)

    @settings(max_examples=80, deadline=None)
    @given(grid_specs, st.data())
    def test_union_of_x_cylinders(self, spec, data):
        coding = data.draw(st.lists(st.sampled_from(spec.nonempty_rows), min_size=1, max_size=4))
        pairs = []
        for cols in itertools.product(*(range(1, len(spec.row(i).cells) + 1) for i in coding)):
            sx, tx, _, _ = lg.word_map(spec, zip(coding, cols))
            pairs.append((tx, tx + sx))
        assert_same_cover(lg.fiber_approx(spec, coding), pairs)


class TestCoverSteps:
    """A step whose images are sorted and disjoint already skips `_merge`,
    and every cover keeps the bits that a merge at every step gives."""

    @settings(max_examples=150, deadline=None)
    @given(cover_cases, st.data())
    def test_fiber_bits_at_every_step(self, spec, data):
        coding = data.draw(st.lists(st.sampled_from(spec.nonempty_rows), min_size=1, max_size=7))
        maps = {i: (np.array([c.a for c in spec.row(i).cells]),
                    np.array([c.c for c in spec.row(i).cells])) for i in coding}
        # fiber_approx of a coding's suffix is the cover after that many steps
        for k in range(len(coding)):
            suffix = coding[k:]
            lo, hi = merged_at_every_step([maps[i] for i in reversed(suffix)])
            assert same_bits(lg.fiber_approx(spec, suffix), lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(cover_cases, st.integers(0, 5))
    def test_projection_bits_at_every_step(self, spec, depth):
        proj = lg.project_F(spec)
        maps = np.array(proj.ratios), np.array(proj.offsets)
        for k in range(depth + 1):
            lo, hi = merged_at_every_step([maps] * k)
            assert same_bits(lg.projection_approx(spec, k), lo, hi)

    def test_merge_only_where_images_touch(self, cd, touching, monkeypatch):
        calls = []
        merge = structure._merge

        def counting(lo, hi, tol=0.0):
            calls.append(len(lo))
            return merge(lo, hi, tol)

        monkeypatch.setattr(structure, "_merge", counting)
        # CD's two cells are a half apart: 2**12 disjoint intervals, no merge
        assert len(lg.fiber_approx(cd, (1, 3) * 6)) == 4096
        assert calls == []
        # TOUCHING's two cells share an edge, so the first step merges its
        # two images into [0, 1/2]; the images of that are apart
        assert len(lg.fiber_approx(touching, (1,) * 12)) == 2 ** 11
        assert calls == [2]


class TestHdBound:
    def test_cd_identical_rows_zero_distance(self, cd):
        chk = lg.check_hd_bound(cd, (1, 3, 1, 1, 3), (1, 3, 3, 1, 1))
        assert chk.ok
        assert chk.shared_prefix == 2
        assert chk.distance == 0.0  # rows 1 and 3 share the same cells
        assert chk.bound == pytest.approx(0.25 ** 2)

    def test_mcm_divergent_pair(self, mcm):
        chk = lg.check_hd_bound(mcm, (1, 1, 2, 1), (1, 1, 1, 2))
        assert chk.ok
        assert chk.shared_prefix == 2
        assert chk.bound == pytest.approx((1 / 3) ** 2)
        assert 0.0 < chk.distance <= chk.bound + chk.slack

    def test_diverge_at_first_symbol(self, mcm):
        chk = lg.check_hd_bound(mcm, (1, 1, 1), (2, 1, 1))
        assert chk.shared_prefix == 0
        assert chk.bound == 1.0
        assert chk.ok

    def test_identical_codings_rejected(self, mcm):
        with pytest.raises(CodingsNotDiverging):
            lg.check_hd_bound(mcm, (1, 2, 1), (1, 2, 1))

    def test_depth_truncation(self, mcm):
        chk = lg.check_hd_bound(mcm, (1, 2, 1), (1, 1, 2))
        assert chk.shared_prefix == 1
        assert chk.bound == pytest.approx(1 / 3)


class TestRowGaps:
    def test_row_gap_intervals(self, mcm):
        assert lg.row_gap_intervals(mcm, 1) == [(1 / 3, 2 / 3)]
        assert lg.row_gap_intervals(mcm, 2) == [(0.0, 1 / 3), (2 / 3, 1.0)]

    def test_largest_row_gap(self, cd, mcm):
        assert lg.largest_row_gap(cd, 1) == (0.25, 0.75)
        # in floats 1 - 2/3 > 1/3, so the right gap wins
        assert lg.largest_row_gap(mcm, 2) == (2 / 3, 1.0)

    def test_tiled_row_has_no_gap(self):
        third = 1.0 / 3.0
        spec = lg.CarpetSpec((
            lg.RowSpec(0.5, (lg.Cell(third, 0.0), lg.Cell(third, third),
                             lg.Cell(third, 2 * third))),
            lg.RowSpec(0.5, (lg.Cell(0.25, 0.0),)),
        ))
        assert lg.largest_row_gap(spec, 1) is None
        assert lg.gap_fraction(spec) == 0.0

    def test_gap_fraction(self, cd, mcm):
        assert lg.gap_fraction(mcm) == 1 / 3 * (1 / 3) / 3
        assert lg.gap_fraction(cd) == 0.25 * 0.5 / 3


class TestFindGapInterval:
    def test_middle_third_branch(self, mcm, cd):
        assert lg.find_gap_interval(mcm, (1,) * 20, (0.0, 1.0)) == (1 / 3, 2 / 3)
        assert lg.find_gap_interval(cd, (1,) * 20, (0.0, 1.0)) == (1 / 3, 2 / 3)

    def test_descent_branch(self, mcm):
        # fiber of all-2s is the single point 1/2, sitting in the middle third
        j = lg.find_gap_interval(mcm, (2,) * 20, (0.0, 1.0))
        assert j == (5 / 9, 2 / 3)

    def test_subinterval(self, mcm):
        j = lg.find_gap_interval(mcm, (1,) * 25, (0.4, 0.45))
        assert j == pytest.approx((0.41666666666666667, 0.43333333333333335))

    def test_contract_fuzz(self, mcm, cd, mixed):
        rng = np.random.default_rng(21)
        for spec in (mcm, cd, mixed):
            lam = lg.gap_fraction(spec)
            ner = spec.nonempty_rows
            for _ in range(30):
                lo = float(rng.uniform(0, 0.9))
                w = float(rng.uniform(0.01, 1.0 - lo))
                coding = tuple(int(ner[t]) for t in rng.integers(0, len(ner), size=60))
                j_lo, j_hi = lg.find_gap_interval(spec, coding, (lo, lo + w))
                assert lo <= j_lo < j_hi <= lo + w
                assert j_hi - j_lo >= lam * w * (1 - 1e-9)

    def test_fiber_cut_at_cap(self, cd, monkeypatch):
        # |I| = 1e-10 asks for 23 digits; 2**20 column choices pass the cap at 20
        depths = []
        fiber_approx = structure.fiber_approx
        monkeypatch.setattr(structure, "fiber_approx",
                            lambda spec, coding: depths.append(len(coding)) or
                            fiber_approx(spec, coding))
        assert GAP_FIBER_CAP == 1_000_000
        j = lg.find_gap_interval(cd, (1, 3) * 20, (1 / 7, 1 / 7 + 1e-10))
        assert j == (0.14285714289047619, 0.14285714292380952)
        assert depths == [20]

    def test_tiny_interval_inside_fiber_gap(self, mcm):
        # even a depth-1 coding suffices when I's middle third misses the
        # depth-1 fiber outright
        j = lg.find_gap_interval(mcm, (1,), (0.40001, 0.40002))
        assert j[0] > 0.40001 and j[1] < 0.40002

    def test_coding_too_short(self, mcm):
        # middle third meets the fiber and the one-letter descent dead-ends
        with pytest.raises(InvalidCoding):
            lg.find_gap_interval(mcm, (1,), (0.2, 0.4))

    def test_cylinder_found_at_last_digit(self, mixed):
        # the largest x-cylinder inside I sits at the coding's last digit,
        # which leaves no next row to take the gap from
        with pytest.raises(InvalidCoding):
            lg.find_gap_interval(mixed, (1,), (0.3823, 0.9173))

    def test_bad_interval(self, mcm):
        with pytest.raises(ValueError):
            lg.find_gap_interval(mcm, (1,) * 10, (0.5, 0.4))

    # unpatched, this coding and I give the gap interval (4/9, 5/9)
    GAP_CASE = ((2, 1) * 10, (0.0, 1.0))

    def test_refuses_gap_shorter_than_lambda(self, mcm, monkeypatch):
        assert lg.find_gap_interval(mcm, *self.GAP_CASE) == \
            (0.4444444444444444, 0.5555555555555556)
        monkeypatch.setattr(structure, "gap_fraction", lambda spec: 0.9)
        with pytest.raises(VerificationFailed,
                           match=r"shorter than lambda\*\|I\|: 0.11111111111111116 < 0.9$"):
            lg.find_gap_interval(mcm, *self.GAP_CASE)

    def test_refuses_gap_meeting_the_fiber(self, mcm, monkeypatch):
        monkeypatch.setattr(structure, "largest_row_gap", lambda spec, row: (0.0, 1.0))
        with pytest.raises(VerificationFailed, match="meets the fiber approximation"):
            lg.find_gap_interval(mcm, *self.GAP_CASE)

    def test_tiled_next_row(self):
        third = 1.0 / 3.0
        spec = lg.CarpetSpec((
            lg.RowSpec(0.5, (lg.Cell(third, 0.0), lg.Cell(third, third),
                             lg.Cell(third, 2 * third))),
            lg.RowSpec(0.5, (lg.Cell(0.25, 0.25),)),
        ))
        with pytest.raises(NoGapFound):
            lg.find_gap_interval(spec, (1,) * 30, (0.0, 1.0))


class TestRowStoppingWords:
    def test_mcm_quarter(self, mcm):
        assert lg.row_stopping_words(mcm, 0.25) == [
            (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_cd_third(self, cd):
        assert lg.row_stopping_words(cd, 1 / 3) == [(1,), (3,)]

    def test_measure_identity(self, cd, mixed):
        # sum of b_w^{s1} over stopping words is the self-similar measure of F
        for spec in (cd, mixed):
            s1 = lg.solve_s1(spec)
            for delta in (0.1, 0.01):
                words = lg.row_stopping_words(spec, delta)
                total = math.fsum(
                    math.prod(spec.rows[i - 1].b for i in w) ** s1
                    for w in words)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_budget(self, cd, monkeypatch):
        # CD's two nonempty rows of height 1/3: the root surely has 2**16 row
        # words at 1e-8, past the cap before the first level
        monkeypatch.setenv("LG_MAX_CYLINDERS", "50")
        with pytest.raises(BudgetExceeded,
                           match="^row stopping set at delta=1e-08 exceeds cap 50 by length 1$"):
            lg.row_stopping_words(cd, 1e-8)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    @pytest.mark.parametrize("delta", [1.0, 0.3, 0.05, 0.004])
    def test_row_parts_of_stopping_words(self, request, name, delta):
        spec = request.getfixturevalue(name)
        rows = {tuple(i for i, _ in c.word) for c in lg.enumerate_stopping(spec, delta)}
        assert lg.row_stopping_words(spec, delta) == sorted(rows)


class TestIdeltaClasses:
    def test_cd_pins(self, cd):
        dc = lg.idelta_classes(cd, 1 / 9)
        assert sorted(len(c) for c in dc.classes) == [2, 2]
        assert dc.l_emp == 2
        assert lg.idelta_classes(cd, 0.5).l_emp == 2

    def test_mcm_single_class(self, mcm):
        dc = lg.idelta_classes(mcm, 0.25)
        assert len(dc.classes) == 1
        assert dc.l_emp == 4 == len(dc.words)

    def test_classes_partition_words(self, mixed):
        dc = lg.idelta_classes(mixed, 0.05)
        seen = sorted(w for cls in dc.classes for w in cls)
        assert seen == sorted(dc.words)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3])
    def test_delta_domain(self, cd, bad):
        with pytest.raises(ValueError):
            lg.idelta_classes(cd, bad)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    @pytest.mark.parametrize("delta", [1 / 3, 1 / 9, 0.1, 1 / 27, 0.05, 1 / 81])
    def test_matches_all_pairs_oracle(self, request, name, delta):
        # CD's blocks at 1/9 and 1/27 sit exactly delta apart: ties must merge
        spec = request.getfixturevalue(name)
        assert lg.idelta_classes(spec, delta).classes == reference_classes(spec, delta)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(grid_specs, uneven_specs()),
           st.sampled_from([0.5, 0.3, 0.1, 1 / 9, 1 / 16, 0.05, 1 / 27]))
    def test_random_specs_match_all_pairs_oracle(self, spec, delta):
        assert lg.idelta_classes(spec, delta).classes == reference_classes(spec, delta)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    def test_bounds_match_projection_cover(self, request, name):
        # bit for bit, not approximately
        spec = request.getfixturevalue(name)
        bounds = _projection_bounds(spec, 10)
        for r in range(11):
            assert tuple(bounds[r].tolist()) == lg.projection_approx(spec, r).bounds

    def test_fine_delta_builds_no_cover(self):
        # at 0.002 the words need the bounds of the depth-16 projection
        # cover, whose build is refused at a step of 3^15 image intervals
        # (over the budget); the bounds need no cover
        rows = [(1 / 7, 1), (1 / 7, 1), (4 / 7, 1), (1 / 7, 0)]
        spec = lg.CarpetSpec(tuple(lg.RowSpec(b, tuple(lg.Cell(b / 4, 0.0) for _ in range(n)))
                                   for b, n in rows))
        dc = lg.idelta_classes(spec, 0.002)
        assert sorted(w for cls in dc.classes for w in cls) == sorted(dc.words)
        assert len(dc.classes) > 1


class TestHDelta:
    def test_pins(self, cd, mcm):
        assert lg.h_delta(cd, 1 / 9) == 0.5625
        assert lg.h_delta(cd, 1 / 27) == pytest.approx(27 / 64, rel=1e-12)
        assert lg.h_delta(mcm, 0.25) == pytest.approx(4 / 9, rel=1e-12)
        assert lg.h_delta(mcm, 1.0) == pytest.approx(2 / 3, rel=1e-12)

    def test_in_unit_interval(self, mixed):
        for delta in (1.0, 0.3, 0.02, 1e-4):
            assert 0.0 < lg.h_delta(mixed, delta) < 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0001, -1.0])
    def test_domain(self, cd, bad):
        with pytest.raises(ValueError):
            lg.h_delta(cd, bad)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    @pytest.mark.parametrize("delta", [1.0, 0.5, 1 / 3, 1 / 9, 0.1, 0.01, 1e-3])
    def test_matches_row_word_oracle(self, request, name, delta):
        spec = request.getfixturevalue(name)
        assert lg.h_delta(spec, delta) == reference_h_delta(spec, delta)

    @settings(max_examples=60, deadline=None)
    @given(walk_specs, st.floats(1e-3, 1.0))
    def test_random_specs_match_row_word_oracle(self, spec, delta):
        assert lg.h_delta(spec, delta) == reference_h_delta(spec, delta)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    @pytest.mark.parametrize("delta", [0.1, 0.01, 1e-3, 1e-4])
    def test_budget_as_row_stopping_words(self, request, monkeypatch, name, delta):
        spec = request.getfixturevalue(name)
        monkeypatch.setenv("LG_MAX_CYLINDERS", "1000")
        try:
            lg.row_stopping_words(spec, delta)
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as refused:
                lg.h_delta(spec, delta)
            assert str(refused.value) == str(exc)
        else:
            assert lg.h_delta(spec, delta) == reference_h_delta(spec, delta)
