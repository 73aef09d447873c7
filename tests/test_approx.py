"""Half-open box counting, approximation sets, covering curves, SVG output."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgcarpet as lg
from lgcarpet import Rect, approx, carpet, synth
from lgcarpet.approx import GRID_SNAP
from lgcarpet.errors import BudgetExceeded

finite = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=0.1, allow_nan=False)
rects_strategy = st.lists(
    st.builds(Rect, finite, finite, extent, extent), min_size=1, max_size=12)
on_lines = st.one_of(finite, st.integers(0, 9).map(lambda k: k / 10))
wide_rects = st.lists(st.builds(Rect, on_lines, on_lines, st.sampled_from([0.0, 0.1, 0.2]) | extent,
                                st.sampled_from([0.0, 0.1, 0.3]) | extent), max_size=12)


def cell_index(value, delta, lower=None):
    """One coordinate's cell by the documented rule, in plain Python floats:
    q = value / delta is snapped to round(q) when |q - round(q)| <= GRID_SNAP *
    max(1, |q|), then floored; an upper edge snapped onto a line above its
    lower edge takes the cell below."""
    q = value / delta
    r = round(q)
    on_line = abs(q - r) <= GRID_SNAP * max(1.0, abs(q))
    cell = math.floor(r if on_line else q)
    return cell - 1 if on_line and lower is not None and value > lower else cell


def set_count(rects, delta):
    """The grid count one cell at a time into a Python set, as an oracle."""
    cells = set()
    for r in rects:
        u0, v0 = cell_index(r.x0, delta), cell_index(r.y0, delta)
        u1, v1 = cell_index(r.x1, delta, r.x0), cell_index(r.y1, delta, r.y0)
        cells.update(itertools.product(range(u0, max(u0, u1) + 1), range(v0, max(v0, v1) + 1)))
    return len(cells)


class TestCountGridCells:
    def test_cd_level_one(self, cd):
        rects = [c.rect for c in lg.enumerate_depth(cd, 1)]
        assert lg.count_grid_cells(rects, 1 / 3) == 4

    def test_single_point(self):
        assert lg.count_grid_cells([Rect(0.4, 0.7, 0.0, 0.0)], 1 / 3) == 1

    @pytest.mark.parametrize("bad", [Rect(math.nan, 0, 1, 1), Rect(math.inf, 0, 1, 1),
                                     Rect(2, 0, -5, 1), Rect(0, 0, 1, math.nan)])
    def test_bad_rect(self, bad):
        with pytest.raises(ValueError, match="rect 1 must have finite corners"):
            lg.count_grid_cells([Rect(0, 0, 1, 1), bad, Rect(3, 0, 1, 1)], 0.5)

    def test_point_on_grid_line(self):
        # degenerate rects are not pulled off the line they sit on
        assert lg.count_grid_cells([Rect(1 / 3, 1 / 3, 0.0, 0.0)], 1 / 3) == 1

    def test_unit_square(self):
        sq = [Rect(0.0, 0.0, 1.0, 1.0)]
        assert lg.count_grid_cells(sq, 0.5) == 4
        assert lg.count_grid_cells(sq, 1 / 3) == 9
        assert lg.count_grid_cells(sq, 1.0) == 1

    def test_shared_edge_not_double_counted(self):
        rects = [Rect(0.0, 0.0, 1 / 3, 1.0), Rect(1 / 3, 0.0, 1 / 3, 1.0)]
        assert lg.count_grid_cells(rects, 1 / 3) == 6

    def test_snap_to_grid_line(self):
        # within relative 1e-9 of a line counts as on it
        r = Rect(0.0, 0.0, 1 / 3 - 1e-12, 1 / 3 - 1e-12)
        assert lg.count_grid_cells([r], 1 / 3) == 1

    def test_snap_is_relative(self):
        # 700.0000001 cells wide is within 1e-9 * 700 of the line at 700
        r = Rect(0.0, 0.0, 0.7 + 1e-10, 0.0)
        assert lg.count_grid_cells([r], 1e-3) == set_count([r], 1e-3) == 700

    def test_past_grid_line(self):
        r = Rect(0.0, 0.0, 1 / 3 + 1e-3, 0.05)
        assert lg.count_grid_cells([r], 1 / 3) == 2

    @given(rects_strategy, rects_strategy,
           st.sampled_from([0.1, 0.25, 1 / 3]))
    def test_union_subadditive(self, r1, r2, delta):
        joint = lg.count_grid_cells(r1 + r2, delta)
        c1, c2 = lg.count_grid_cells(r1, delta), lg.count_grid_cells(r2, delta)
        assert max(c1, c2) <= joint <= c1 + c2

    @settings(max_examples=200, deadline=None)
    @given(wide_rects, st.sampled_from([0.1, 1 / 3, 0.05, 0.02, 1e-3]))
    def test_matches_set_oracle(self, rects, delta):
        assert lg.count_grid_cells(rects, delta) == set_count(rects, delta)

    def test_fine_grid(self):
        # cell indices near 2**40 on both axes: the key (u - u0) * V + (v - v0) of
        # one run would reach 2**62, so its cells are lexsorted
        points = [Rect(x, y, 0.0, 0.0) for x, y in ((0.25, 0.5), (0.75, 0.125), (0.5, 0.25))]
        assert lg.count_grid_cells(points * 2, 2.0 ** -40) == 3

    @pytest.mark.parametrize("far", [False, True])
    def test_merge_of_far_apart_runs(self, monkeypatch, far):
        # each run's own key fits; with the run near cell (2**40, 2**40) the
        # merged key would reach 2**62, and only then is the merge lexsorted
        runs = [[Rect(0.5, 0.25, 3.0, 2.0), Rect(2.0, 1.0, 0.0, 4.5)],
                [Rect(-7.5, -3.25, 9.0, 4.0), Rect(1.0, 0.0, 1.0, 1.0), Rect(-2.0, -9.0, 0.5, 0.0)]]
        if far:
            runs.insert(1, [Rect(2.0**40 + 0.5, 2.0**40, 2.0, 3.0), Rect(2.0**40 - 2, 2.0**40 + 1, 0, 0)])
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys[0])) or lexsort(keys))
        got = approx._count_cells(map(carpet.Rects.of, runs), 1.0)
        assert got == set_count([r for run in runs for r in run], 1.0)
        kept = sum(set_count(run, 1.0) for run in runs)
        assert got < kept  # some cells lie in two runs
        assert calls == ([kept] if far else [])

    @pytest.mark.parametrize("delta", [1e-12, 1e-15, 1e-19, 1e-20, 1e-30])
    def test_tiny_delta_refused_with_true_count(self, delta):
        # ~1e22 cells at 1e-12: past int64, so the budget must count in floats
        rects = synth.random_rects(20, 1)
        want = sum((r.w / delta + 1.0) * (r.h / delta + 1.0) for r in rects)
        with pytest.raises(BudgetExceeded) as info:
            lg.count_grid_cells(rects, delta)
        got = float(re.search(r"touches (\d+) cells", str(info.value)).group(1))
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_delta_not_finite(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            lg.count_grid_cells(synth.random_rects(20, 1), bad)

    def test_grid_finer_than_coordinates(self):
        # three points fit the budget, but 0.5 / 1e-20 is no int64 cell index
        points = [Rect(x, 0.5, 0.0, 0.0) for x in (0.25, 0.5, 0.75)]
        with pytest.raises(ValueError, match="finer than float64"):
            lg.count_grid_cells(points, 1e-20)


class TestBoxCount:
    def test_cd_spec_examples(self, cd):
        assert lg.box_count(cd, 1 / 3) == 4
        assert lg.box_count(cd, 1 / 9) == 24

    def test_nondecreasing_in_resolution(self, mcm):
        counts = [lg.box_count(mcm, 2.0 ** -k) for k in range(1, 7)]
        assert counts == sorted(counts)

    def test_budget(self, cd, monkeypatch):
        monkeypatch.setenv("LG_MAX_CYLINDERS", "100")
        with pytest.raises(BudgetExceeded):
            lg.box_count(cd, 1e-9)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_edges(self, request, monkeypatch, block):
        # blocks this small cut through every level; each count is still the
        # grid count of the whole stopping set
        ladders = [("cd", 3, 5), ("mcm", 2, 7), ("mixed", 2, 8), ("touching", 2, 8)]
        cases = [(request.getfixturevalue(name), float(base) ** -k)
                 for name, base, top in ladders for k in range(1, top + 1)]
        cases += [(synth.random_grid_spec(seed), delta)
                  for seed in range(0, 60, 3) for delta in (1.0, 0.3, 0.05)]
        monkeypatch.setattr(carpet, "BLOCK_ROWS", block)
        for spec, delta in cases:
            want = lg.count_grid_cells(lg.approx_set(spec, delta).rects, delta)
            assert lg.box_count(spec, delta) == want, (spec, delta)

    @pytest.mark.parametrize("block, deltas", [(3, (0.3, 0.1)), (2**14, (0.3, 0.05, 0.02))])
    def test_refusal_parity(self, monkeypatch, block, deltas):
        # the block walk refuses exactly the stopping sets the level walk refuses
        monkeypatch.setattr(carpet, "BLOCK_ROWS", block)
        for seed in range(0, 60, 3):
            spec = synth.random_grid_spec(seed)
            for delta in deltas:
                monkeypatch.delenv("LG_MAX_CYLINDERS", raising=False)
                size = len(lg.enumerate_stopping(spec, delta))
                count = lg.box_count(spec, delta)
                monkeypatch.setenv("LG_MAX_CYLINDERS", str(size))
                assert lg.box_count(spec, delta) == count
                if size == 1:
                    continue
                monkeypatch.setenv("LG_MAX_CYLINDERS", str(size - 1))
                text = f"^stopping set at delta={delta} exceeds cap {size - 1} by length "
                for call in (lg.enumerate_stopping, lg.box_count):
                    with pytest.raises(BudgetExceeded, match=text):
                        call(spec, delta)

    @pytest.mark.parametrize("cap", [20000, 300000])
    def test_refusal_names_block_length(self, mcm, monkeypatch, cap):
        # both walks hold the cap against the words each pending row surely
        # has; at 1e-300 the root alone surely has 3**64, so both refuse at
        # length 1, before a level is built
        monkeypatch.setenv("LG_MAX_CYLINDERS", str(cap))
        text = f"^stopping set at delta=1e-300 exceeds cap {cap} by length 1$"
        for call in (lg.enumerate_stopping, lg.box_count):
            with pytest.raises(BudgetExceeded, match=text):
                call(mcm, 1e-300)

    def test_refusal_steps_few_rows(self, mcm, monkeypatch):
        # MCM at 1e-5 has 3**17 words, over the default cap; the root surely
        # has 3**16 of them, so the walk refuses before it steps a row
        stepped, step = [], carpet._step

        def counted(s, *rest):
            stepped.append(s.shape[1])
            step(s, *rest)

        monkeypatch.setattr(carpet, "_step", counted)
        with pytest.raises(BudgetExceeded,
                           match="^stopping set at delta=1e-05 exceeds cap 10000000 by length 1$"):
            lg.box_count(mcm, 1e-5)
        assert stepped == []

    def test_grid_refusals(self, cd, monkeypatch):
        # the grid cap counts the whole set, not one block; past it, the walk
        # goes on, so the refusal names the count over every block
        monkeypatch.setattr(approx, "MAX_GRID_CELLS", 1000)
        rects = lg.approx_set(cd, 3.0 ** -6).rects
        with pytest.raises(BudgetExceeded) as want:
            lg.count_grid_cells(rects, 3.0 ** -6)
        monkeypatch.setattr(carpet, "BLOCK_ROWS", 64)
        with pytest.raises(BudgetExceeded) as got:
            lg.box_count(cd, 3.0 ** -6)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "grid count at delta=0.0013717421124828531 touches 4992 cells"
        # a point carpet at the top of the square: at 1e-17 one cylinder, but
        # no exact float64 cell index
        top = lg.spec_from_dict({"rows": [{"b": 0.5, "cells": []},
                                          {"b": 0.5, "cells": [{"a": 0.25, "c": 0.75}]}]})
        with pytest.raises(ValueError, match="finer than float64"):
            lg.box_count(top, 1e-17)

    def test_empty_attractor(self):
        spec = lg.spec_from_dict({"rows": [{"b": 0.5, "cells": []}, {"b": 0.5, "cells": []}]})
        with pytest.raises(lg.errors.EmptyAttractor):
            lg.box_count(spec, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_delta_domain(self, cd, bad):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            lg.box_count(cd, bad)

    def test_memory_is_one_block_and_the_cells(self, cd):
        # 262144 cylinders, 147456 distinct cells: the whole stopping set and
        # its grid count peaked at 29.9 MB; a block and the cells stay near 4 MB
        tracemalloc.start()
        try:
            lg.box_count(cd, 3.0 ** -9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    @pytest.mark.parametrize("name, delta", [("cd", 3.0 ** -8), ("mcm", 2.0 ** -10)], ids=["cd", "mcm"])
    def test_bytes_per_cylinder(self, request, name, delta):
        # the walk and the grid count hold no gathered copies or np.where
        # temporaries: peak traced allocation stays under 140 B per cylinder
        spec = request.getfixturevalue(name)
        cylinders = len(lg.approx_set(spec, delta))
        tracemalloc.start()
        try:
            lg.box_count(spec, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cylinders <= 140


class TestApproxSet:
    def test_fields(self, cd):
        approx = lg.approx_set(cd, 1 / 9)
        assert list(approx) == list(lg.enumerate_stopping(cd, 1 / 9))
        assert len(approx.rects) == 16
        assert all(r.h <= 1 / 9 + 1e-15 for r in approx.rects)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_delta_domain(self, cd, bad):
        with pytest.raises(ValueError):
            lg.approx_set(cd, bad)


class TestCurve:
    def test_curve_shape(self, cd):
        curve = lg.n_delta_curve(cd, 1 / 3, 1 / 81, 5)
        deltas = [d for d, _ in curve.samples]
        counts = [c for _, c in curve.samples]
        assert len(curve.samples) == 5
        assert deltas == sorted(deltas, reverse=True)
        assert counts == sorted(counts)

    def test_cd_slope_tracks_dimension(self, cd):
        curve = lg.n_delta_curve(cd, 3.0 ** -2, 3.0 ** -6, 5)
        s = lg.solve_bdim(cd).s
        assert curve.slope == pytest.approx(s, rel=0.05)

    @pytest.mark.parametrize("delta_max, delta_min, steps, message", [
        (1 / 27, 1 / 3, 5, "need 0 < delta_min < delta_max <= 1"),
        (1 / 9, 1 / 9, 5, "need 0 < delta_min < delta_max <= 1"),
        (1 / 3, 1 / 27, 1, "steps must be >= 2, got 1"),
        (1 / 3, 1 / 27, math.nan, "steps must be >= 2, got nan"),
        (1 / 3, 1 / 27, 2.5, "steps must be a finite whole number, got 2.5"),
        (1 / 3, 1 / 27, math.inf, "steps must be a finite whole number, got inf"),
    ])
    def test_domain(self, cd, delta_max, delta_min, steps, message):
        with pytest.raises(ValueError, match=message):
            lg.n_delta_curve(cd, delta_max, delta_min, steps)

    def test_integral_float_steps(self, cd):
        assert lg.n_delta_curve(cd, 1 / 3, 1 / 27, 3.0) == lg.n_delta_curve(cd, 1 / 3, 1 / 27, 3)

    def test_steps_budget(self, cd, monkeypatch):
        # the finest sample, 1/27, has 64 stopping cylinders
        monkeypatch.setenv("LG_MAX_CYLINDERS", "64")
        assert len(lg.n_delta_curve(cd, 1 / 3, 1 / 27, 64).samples) == 64
        with pytest.raises(BudgetExceeded, match="^box-count curve: 65 steps exceeds cap 64$"):
            lg.n_delta_curve(cd, 1 / 3, 1 / 27, 65)


class TestRenderSvg:
    def test_depth_render(self, mcm):
        svg = lg.render_svg(mcm, depth=2)
        assert svg.startswith("<svg")
        assert svg.endswith("\n")
        assert 'viewBox="0 0 1 1"' in svg
        assert svg.count("<rect") == 9

    def test_delta_render(self, cd):
        svg = lg.render_svg(cd, delta=1 / 9, size=256)
        assert svg.count("<rect") == 16
        assert 'width="256"' in svg

    def test_y_axis_flip(self, mcm):
        # the top-row cylinder must land at svg y = 0
        svg = lg.render_svg(mcm, depth=1)
        assert 'y="0.0"' in svg

    def test_coordinates_are_plain_floats(self, cd):
        for svg in (lg.render_svg(cd, depth=3), lg.render_svg(cd, delta=1 / 81)):
            assert "float64" not in svg
            assert '<rect x="0.0" ' in svg

    def test_exactly_one_selector(self, mcm):
        with pytest.raises(ValueError):
            lg.render_svg(mcm)
        with pytest.raises(ValueError):
            lg.render_svg(mcm, depth=1, delta=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"size": -5}, "size must be >= 1, got -5"),
        ({"size": 0}, "size must be >= 1, got 0"),
        ({"size": 2.5}, "size must be a finite whole number, got 2.5"),
        ({"depth": math.nan}, "depth must be >= 0, got nan"),
        ({"depth": 2.5}, "depth must be a finite whole number, got 2.5"),
        # a boolean compares as 1 but would be written as width="True"
        ({"depth": 0, "size": True}, "size must be a whole number, got a boolean"),
        ({"depth": True}, "depth must be a whole number, got a boolean"),
    ], ids=["size=-5", "size=0", "size=2.5", "depth=nan", "depth=2.5", "size=True", "depth=True"])
    def test_bad_size_or_depth(self, cd, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lg.render_svg(cd, **{"depth": 1, **kwargs})
