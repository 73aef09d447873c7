"""Spec parsing, validation, affine words, and cylinder enumeration."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lgcarpet as lg
from lgcarpet import carpet, synth
from lgcarpet.carpet import _real
from lgcarpet.errors import BudgetExceeded, InvalidDigit, InvalidSetting, SchemaError


def rows_dict(rows):
    return {"rows": [
        {"b": b, "cells": [{"a": a, "c": c} for a, c in cells]}
        for b, cells in rows
    ]}


def reference_cylinders(spec, stops):
    """Depth-first reference: every word's rect from its own word_map call."""
    out = []

    def visit(word):
        sx, tx, sy, ty = lg.word_map(spec, word)
        if stops(word, sy):
            out.append(lg.Cylinder(word, lg.Rect(tx, ty, sx, sy)))
            return
        for digit in spec.digits:
            visit(word + (digit,))

    visit(())
    return out


@st.composite
def uneven_specs(draw):
    """Rows of unequal heights, so stopping words have several lengths."""
    weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    rows = []
    for w in weights:
        b = w / sum(weights)
        n = draw(st.integers(0, 3))
        rows.append(lg.RowSpec(b, tuple(lg.Cell(b / 4, k / 3) for k in range(n))))
    assume(any(row.cells for row in rows))
    return lg.CarpetSpec(tuple(rows))


walk_specs = st.one_of(st.integers(0, 2**32 - 1).map(synth.random_grid_spec),
                       uneven_specs())


def fraction_float(text):
    """The float a numeric string names, read exactly; inf past the float range."""
    try:
        return float(Fraction(text))
    except OverflowError:
        return math.inf


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def violations_of(rows):
    return {v.constraint for v in lg.validate(lg.spec_from_dict(rows_dict(rows)))}


class TestParsing:
    def test_rational_strings(self):
        spec = lg.spec_from_dict(rows_dict([
            ("1/3", [("1/4", "0"), ("1/4", "3/4")]),
            ("1/3", []),
            ("1/3", [("1/4", "0"), ("1/4", "3/4")]),
        ]))
        assert spec.rows[0].b == 1.0 / 3.0
        assert spec.rows[0].cells[1].c == 0.75

    def test_decimal_strings_and_numbers(self):
        spec = lg.spec_from_dict(rows_dict([
            (0.5, [("0.25", 0.0)]),
            ("0.5", []),
        ]))
        assert spec.rows[0].b == 0.5
        assert spec.rows[0].cells[0].a == 0.25

    @pytest.mark.parametrize("bad", [
        {},                                    # no rows
        {"rows": "nope"},
        {"rows": [{"cells": []}]},             # row without b
        {"rows": [{"b": 0.5, "cells": [{"a": 0.1}]}] * 2},  # cell without c
        {"rows": [{"b": "x/y", "cells": []}] * 2},
        {"rows": [{"b": None, "cells": []}] * 2},
        [1, 2, 3],
        {"rows": [[0.5, []], {"b": 0.5, "cells": []}]},  # row not an object
        {"rows": [{"b": 0.5}] * 2},                       # row without cells
        {"rows": [{"b": 0.5, "cells": {}}] * 2},          # cells not a list
        {"rows": [{"b": True, "cells": []}] * 2},         # a boolean for a number
    ])
    def test_schema_errors(self, bad):
        with pytest.raises(SchemaError):
            lg.spec_from_dict(bad)

    def test_parse_spec_bad_json(self):
        with pytest.raises(json.JSONDecodeError):
            lg.parse_spec("{not json")

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,  # nested deeper than the JSON decoder recurses
        '{"rows": [{"b": %s, "cells": []}]}' % ("1" * 5000),  # past int's digit limit
    ], ids=["too-deep", "big-int"])
    def test_parse_spec_unreadable_json(self, text):
        with pytest.raises(SchemaError, match="unreadable spec"):
            lg.parse_spec(text)

    @pytest.mark.parametrize("value, want", [
        ("1e-999999999", 0.0), ("-1e-999999999", -0.0), ("1e999999999", math.inf),
        ("-1E+999999999", math.inf), ("0e999999999", 0.0),
    ])
    def test_huge_exponent_is_clamped(self, value, want):
        start = time.perf_counter()
        got = _real(value)
        assert time.perf_counter() - start < 1.0
        assert same_float(got, want)

    def test_exponent_past_int_digit_limit_refused(self):
        with pytest.raises(ValueError):  # as Fraction refuses it
            _real("1e" + "1" * 5000)

    def test_huge_exponent_spec_values(self):
        text = '{"rows": [{"b": "%s", "cells": []}, {"b": 0.5, "cells": []}]}'
        start = time.perf_counter()
        assert lg.parse_spec(text % "1e-999999999").rows[0].b == 0.0
        with pytest.raises(SchemaError, match="finite"):
            lg.parse_spec(text % "1e999999999")
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.from_regex(r"\A[-+]?([0-9]{1,30}\.?[0-9]{0,30}|\.[0-9]{1,30})\Z"),
        st.builds("{}{}{:+d}".format,
                  st.from_regex(r"\A[-+]?([0-9]{1,20}\.?[0-9]{0,20}|\.[0-9]{1,20})\Z"),
                  st.sampled_from("eE"), st.integers(-400, 400)),
        st.builds("{}/{}".format, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    ))
    def test_numeric_strings_read_as_fraction(self, text):
        assert same_float(_real(text), fraction_float(text))

    @settings(max_examples=300, deadline=None)
    @given(st.text("0123456789.eE+-/_ nafi", max_size=10))
    @example("nan")
    @example("-Infinity")
    @example("1e1_0")
    def test_refused_as_fraction_refuses(self, text):
        assume(not re.search(r"[eE][-+]?[0-9_]{4}", text))  # keep 10**exponent cheap
        try:
            want = fraction_float(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                _real(text)
        else:
            assert same_float(_real(text), want)

    def test_load_spec_matches_synth(self, cd):
        loaded = lg.load_spec("specs/CD.json")
        assert loaded == cd
        assert loaded.spec_hash == cd.spec_hash

    def test_dict_round_trip(self, mixed):
        again = lg.spec_from_dict(lg.spec_to_dict(mixed))
        assert again == mixed
        assert again.spec_hash == mixed.spec_hash

    def test_hashes_distinguish_specs(self, cd, mcm, touching):
        hashes = {cd.spec_hash, mcm.spec_hash, touching.spec_hash}
        assert len(hashes) == 3
        assert all(len(h) == 16 for h in hashes)


class TestValidation:
    def test_canonical_specs_are_valid(self, cd, mcm, mixed, touching):
        for spec in (cd, mcm, mixed, touching):
            assert lg.validate(spec) == []

    def test_single_row_rejected(self):
        assert "m_rows" in violations_of([(1.0, [(0.5, 0.0)])])

    def test_heights_must_sum_to_one(self):
        assert "b_sum" in violations_of([(0.5, []), (0.4, [(0.2, 0.0)])])

    def test_b_range_strict(self):
        # b = 1 is not allowed even though the sum works out
        v = violations_of([(1.0, [(0.5, 0.0)]), (0.0, [])])
        assert "b_range" in v

    def test_cell_at_least_as_wide_as_row_rejected(self):
        # a == b violates the strict width inequality
        assert "a_lt_b" in violations_of([(0.5, [(0.5, 0.0)]), (0.5, [])])

    def test_overlapping_cells(self):
        assert "c_gap" in violations_of(
            [(0.5, [(0.3, 0.0), (0.3, 0.2)]), (0.5, [])])

    def test_touching_cells_allowed(self):
        assert violations_of([(0.5, [(0.25, 0.0), (0.25, 0.25)]), (0.5, [])]) == set()

    def test_cell_out_of_unit_interval(self):
        assert "c_high" in violations_of([(0.5, [(0.3, 0.8)]), (0.5, [])])
        assert "c_low" in violations_of([(0.5, [(0.3, -0.1)]), (0.5, [])])

    def test_widths_exceeding_one(self):
        v = violations_of([(0.6, [(0.5, 0.0), (0.55, 0.5)]), (0.4, [])])
        assert "a_sum" in v

    def test_widths_summing_to_one_allowed(self):
        v = violations_of([(0.5, [(1 / 3, 0.0), (1 / 3, 1 / 3), (1 / 3, 2 / 3)]),
                           (0.5, [])])
        assert v == set()

    def test_negative_b(self):
        assert "b_range" in violations_of([(-0.5, []), (1.5, [(0.3, 0.0)])])

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("field", ["b", "a", "c"])
    def test_non_finite_rejected(self, field, value):
        # Python's json reads NaN/Infinity literals; the spec must not pass
        numbers = {"b": "0.5", "a": "0.25", "c": "0"}
        numbers[field] = value
        text = ('{"rows": [{"b": %(b)s, "cells": [{"a": %(a)s, "c": %(c)s}]},'
                ' {"b": 0.5, "cells": []}]}' % numbers)
        with pytest.raises(SchemaError, match="finite"):
            lg.parse_spec(text)

    @pytest.mark.parametrize("field", ["b", "a", "c"])
    def test_nan_fails_validation(self, field):
        # specs built in code skip the parser; validate itself fails closed
        b, a, c = (math.nan if f == field else v
                   for f, v in (("b", 0.5), ("a", 0.25), ("c", 0.0)))
        spec = lg.CarpetSpec((lg.RowSpec(b, (lg.Cell(a, c),)), lg.RowSpec(0.5, ())))
        assert lg.validate(spec)


class TestDerived:
    def test_digits_and_rows(self, cd):
        assert cd.m == 3
        assert cd.digits == ((1, 1), (1, 2), (3, 1), (3, 2))
        assert cd.nonempty_rows == (1, 3)
        assert cd.d == (0.0, 1 / 3, 2 / 3)
        assert cd.a_min == cd.a_max == 0.25

    def test_row_cell_accessors(self, mcm):
        assert mcm.row(2).b == 0.5
        assert mcm.cell(1, 2).c == 2 / 3
        with pytest.raises(InvalidDigit):
            mcm.row(3)
        with pytest.raises(InvalidDigit):
            mcm.cell(2, 2)
        with pytest.raises(InvalidDigit):
            mcm.cell(0, 1)


class TestWords:
    def test_single_digit_on_point(self, mcm):
        # the image of (1, 1) is (sx + tx, sy + ty)
        sx, tx, sy, ty = lg.word_map(mcm, [(2, 1)])
        assert (sx * 1.0 + tx, sy * 1.0 + ty) == (2 / 3, 1.0)

    def test_two_letter_word_rect(self, cd):
        # the image of the unit square is the rect at (tx, ty) of size sx by sy
        sx, tx, sy, ty = lg.word_map(cd, [(1, 2), (3, 1)])
        assert tx == pytest.approx(0.75, abs=1e-15)
        assert ty == pytest.approx(2 / 9, abs=1e-15)
        assert sx == pytest.approx(1 / 16, abs=1e-15)
        assert sy == pytest.approx(1 / 9, abs=1e-15)

    def test_empty_word_is_identity(self, mcm):
        assert lg.word_map(mcm, []) == (1.0, 0.0, 1.0, 0.0)

    @given(st.data())
    def test_word_map_composes(self, data):
        # a prefix's map as `start` takes the same float operations as the
        # whole word, so the two agree bit for bit
        mcm = synth.three_map_carpet()
        digits = st.sampled_from(mcm.digits)
        w1 = tuple(data.draw(st.lists(digits, max_size=6)))
        w2 = tuple(data.draw(st.lists(digits, max_size=6)))
        assert lg.word_map(mcm, w2, lg.word_map(mcm, w1)) == lg.word_map(mcm, w1 + w2)

    def test_word_with_bad_digit(self, mcm):
        with pytest.raises(InvalidDigit):
            lg.word_map(mcm, [(2, 99)])


class TestEnumeration:
    def test_depth_counts(self, cd, mcm):
        assert len(lg.enumerate_depth(cd, 1)) == 4
        assert len(lg.enumerate_depth(cd, 3)) == 64
        assert len(lg.enumerate_depth(mcm, 5)) == 3 ** 5

    def test_depth_zero(self, mcm):
        cyls = lg.enumerate_depth(mcm, 0)
        assert len(cyls) == 1
        assert cyls[0].rect == lg.Rect(0.0, 0.0, 1.0, 1.0)

    def test_stopping_heights(self, mixed):
        delta = 0.1
        cyls = lg.enumerate_stopping(mixed, delta)
        assert cyls
        for cyl in cyls:
            assert cyl.rect.h <= delta
            # parent must still be above delta
            parent_b = cyl.rect.h / mixed.rows[cyl.word[-1][0] - 1].b
            assert parent_b > delta

    def test_cylinder_is_word_and_rect(self, cd):
        assert [f.name for f in dataclasses.fields(lg.Cylinder)] == ["word", "rect"]
        cyl = lg.enumerate_stopping(cd, 1 / 3)[1]
        assert cyl == lg.Cylinder(((1, 2),), lg.Rect(0.75, 0.0, 0.25, 1 / 3))

    def test_negative_depth(self, mcm):
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            lg.enumerate_depth(mcm, -1)
        # refused before the walk: no level equals such a depth, so it would run to the cap
        for depth, message in [(2.5, "a finite whole number, got 2.5"),
                               (math.inf, "a finite whole number, got inf"),
                               (math.nan, ">= 0, got nan"),
                               (True, "a whole number, got a boolean"),
                               (np.False_, "a whole number, got a boolean")]:
            with pytest.raises(ValueError, match=f"^depth must be {message}$"):
                lg.enumerate_depth(mcm, depth)
        assert len(lg.enumerate_depth(mcm, 3.0)) == 27

    def test_stopping_cd_one_third(self, cd):
        cyls = lg.enumerate_stopping(cd, 1 / 3)
        assert sorted(c.word for c in cyls) == [
            ((1, 1),), ((1, 2),), ((3, 1),), ((3, 2),)]

    def test_stopping_uniform_depth(self, mcm):
        # equal row heights: every stopping word has the same depth
        cyls = lg.enumerate_stopping(mcm, 0.2)
        assert len(cyls) == 27
        assert all(c.rect.h == 0.125 and len(c.word) == 3 for c in cyls)

    def test_budget_param(self, mcm, monkeypatch):
        monkeypatch.setenv("LG_MAX_CYLINDERS", "100")
        with pytest.raises(BudgetExceeded):
            lg.enumerate_depth(mcm, 6)
        with pytest.raises(BudgetExceeded):
            lg.enumerate_stopping(mcm, 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(walk_specs, st.floats(0.08, 1.5))
    def test_stopping_matches_reference(self, spec, delta):
        # no word is longer than the least length whose tallest product is <= delta
        b_max = max(spec.rows[i - 1].b for i, _ in spec.digits)
        assume(len(spec.digits) ** math.ceil(math.log(delta) / math.log(b_max)) <= 4000)
        cyls = lg.enumerate_stopping(spec, delta)
        want = reference_cylinders(spec, lambda word, h: bool(word) and h <= delta)
        assert list(cyls) == want
        assert all(type(v) is float for c in cyls for v in (c.rect.x0, c.rect.w))

    @settings(max_examples=60, deadline=None)
    @given(walk_specs, st.integers(0, 3))
    def test_depth_matches_reference(self, spec, depth):
        assume(len(spec.digits) ** depth <= 4000)
        want = reference_cylinders(spec, lambda word, h: len(word) == depth)
        assert list(lg.enumerate_depth(spec, depth)) == want

    @pytest.mark.parametrize("block", [1, 3, 64, 2**14])
    def test_stopping_blocks_are_the_stopping_set(self, cd, mcm, mixed, touching,
                                                  monkeypatch, block):
        # the bounded runs, one after another, are the stopping rows bit for
        # bit and in word order, wherever the pieces are cut
        monkeypatch.setattr(carpet, "BLOCK_ROWS", block)
        cases = [(cd, 3.0 ** -4), (mcm, 2.0 ** -6), (mixed, 0.01), (touching, 2.0 ** -6)]
        cases += [(synth.random_grid_spec(seed), delta)
                  for seed in range(0, 30, 3) for delta in (1.0, 0.3, 0.05)]
        for spec, delta in cases:
            rects = lg.enumerate_stopping(spec, delta).rects
            want = np.stack([rects.x0, rects.y0, rects.w, rects.h])
            runs = carpet._walk(*carpet._digit_table(spec), "stopping set", delta=delta,
                                bounded=True)
            got = np.concatenate([np.concatenate([t, s]) for _, s, t in runs], axis=1)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_height_ratio_outside_unit_refused(self):
        # one row of height 1: no word ever drops below delta, and one live
        # row never passes the cap; a subprocess keeps a walk that never
        # ends from hanging the suite
        src = str(Path(lg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        check = "\n".join([
            "import lgcarpet as lg",
            "spec = lg.spec_from_dict({'rows': [{'b': 1, 'cells': [{'a': 0.5, 'c': 0}]}]})",
            "for call in (lg.enumerate_stopping, lg.box_count, lg.row_stopping_words, lg.h_delta):",
            "    try:",
            "        call(spec, 0.5)",
            "    except lg.errors.CarpetError as exc:",
            "        print(f'{type(exc).__name__}: {exc}')"])
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "InvalidRatio: stopping set at delta=0.5: height ratio 1.0 is not in (0, 1)",
            "InvalidRatio: stopping set at delta=0.5: height ratio 1.0 is not in (0, 1)",
            "InvalidRatio: row stopping set at delta=0.5: height ratio 1.0 is not in (0, 1)",
            "InvalidRatio: row stopping set at delta=0.5: height ratio 1.0 is not in (0, 1)"]
        # a ratio of 0 or above 1 is refused as well, while a depth walk ends
        for b in (0.0, 1.5):
            spec = lg.spec_from_dict(rows_dict([(b, [(0.5, 0.0)])]))
            with pytest.raises(lg.errors.InvalidRatio, match=f"height ratio {b} is not in"):
                lg.enumerate_stopping(spec, 0.5)
            assert len(lg.enumerate_depth(spec, 2)) == 1

    def test_over_cap_walks_refused_in_little_memory(self):
        # MCM at 1e-5 has 3**17 words and at depth 16 3**16, over the default
        # cap; the root alone surely has more than the cap, so each walk is
        # refused before it builds a level, in a child whose peak RSS stays
        # near the interpreter's (a level-by-level refusal reached 285 MB);
        # the peak is VmHWM, as ru_maxrss keeps the spawner's across exec
        if not os.path.exists("/proc/self/status"):
            pytest.skip("VmHWM is read from /proc/self/status")
        src = str(Path(lg.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        env.pop("LG_MAX_CYLINDERS", None)
        check = "\n".join([
            "import time",
            "import lgcarpet as lg",
            "mcm = lg.synth.three_map_carpet()",
            "calls = [(lg.enumerate_stopping, 1e-5), (lg.gap_sequence_of_carpet, 1e-5),",
            "         (lg.enumerate_depth, 16)]",
            "for call, arg in calls:",
            "    start = time.perf_counter()",
            "    try:",
            "        call(mcm, arg)",
            "    except lg.errors.BudgetExceeded as exc:",
            "        print(f'{time.perf_counter() - start:.6f} {exc}')",
            "with open('/proc/self/status') as status:",
            "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))"])
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *refusals, peak_kb = proc.stdout.splitlines()
        assert [line.split(" ", 1)[1] for line in refusals] == [
            "stopping set at delta=1e-05 exceeds cap 10000000 by length 1",
            "stopping set at delta=1e-05 exceeds cap 10000000 by length 1",
            "depth 16 exceeds cap 10000000 by length 1"]
        assert all(float(line.split(" ", 1)[0]) < 0.25 for line in refusals), refusals
        assert int(peak_kb) < 100 * 1024

    def test_budget_is_exact(self, mcm, mixed, monkeypatch):
        for spec, delta in ((mcm, 0.2), (mixed, 0.01)):
            monkeypatch.delenv("LG_MAX_CYLINDERS", raising=False)
            count = len(lg.enumerate_stopping(spec, delta))
            monkeypatch.setenv("LG_MAX_CYLINDERS", str(count))
            assert len(lg.enumerate_stopping(spec, delta)) == count
            monkeypatch.setenv("LG_MAX_CYLINDERS", str(count - 1))
            with pytest.raises(BudgetExceeded):
                lg.enumerate_stopping(spec, delta)
        monkeypatch.setenv("LG_MAX_CYLINDERS", "81")
        assert len(lg.enumerate_depth(mcm, 4)) == 81
        monkeypatch.setenv("LG_MAX_CYLINDERS", "80")
        # the root surely has all 3**4 words, so the walk refuses at length 1
        with pytest.raises(BudgetExceeded, match="^depth 4 exceeds cap 80 by length 1$"):
            lg.enumerate_depth(mcm, 4)

    def test_budget_refused_at_overflowing_level(self, mcm, monkeypatch):
        # the set would have 3**997 words; the root surely has 3**64 of them
        # (the count's clamp), far past the cap before the first level
        monkeypatch.setenv("LG_MAX_CYLINDERS", "100")
        with pytest.raises(BudgetExceeded,
                           match="^stopping set at delta=1e-300 exceeds cap 100 by length 1$"):
            lg.enumerate_stopping(mcm, 1e-300)

    @settings(max_examples=100, deadline=None)
    @given(walk_specs, st.floats(0.02, 1.0), st.integers(0, 5), st.sampled_from([1, 3, 2**14]))
    def test_refusal_sets_are_exact(self, spec, delta, depth, block):
        # every walk counts only words it surely has, never more than it
        # yields, so it accepts at its size and refuses one below it, in one
        # run or in pieces (whose refusals may name other lengths)
        b_max, g = max(spec.rows[i - 1].b for i, _ in spec.digits), len(spec.digits)
        assume(g ** math.ceil(math.log(delta) / math.log(b_max)) <= 1000 and g ** depth <= 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("LG_MAX_CYLINDERS", raising=False)
            mp.setattr(carpet, "BLOCK_ROWS", block)
            size, count = len(lg.enumerate_stopping(spec, delta)), lg.box_count(spec, delta)
            stopping = (lambda: len(lg.enumerate_stopping(spec, delta)),
                        lambda: len(lg.approx_set(spec, delta)), lambda: lg.box_count(spec, delta))
            for cap in {size, size - 1, g ** depth, g ** depth - 1} - {0}:
                mp.setenv("LG_MAX_CYLINDERS", str(cap))
                text = f"^stopping set at delta={re.escape(str(delta))} exceeds cap {cap} by length "
                if size <= cap:
                    assert [call() for call in stopping] == [size, size, count]
                else:
                    for call in stopping:
                        with pytest.raises(BudgetExceeded, match=text + r"\d+$"):
                            call()
                if g ** depth <= cap:
                    assert len(lg.enumerate_depth(spec, depth)) == g ** depth
                else:
                    with pytest.raises(BudgetExceeded,
                                       match=f"^depth {depth} exceeds cap {cap} by length 1$"):
                        lg.enumerate_depth(spec, depth)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_bad_delta(self, mcm, delta):
        with pytest.raises(ValueError):
            lg.enumerate_stopping(mcm, delta)
        with pytest.raises(ValueError):
            lg.row_stopping_words(mcm, delta)

    @pytest.mark.parametrize("name", ["cd", "mcm", "mixed", "touching"])
    def test_words_are_int8(self, request, name):
        spec = request.getfixturevalue(name)
        assert lg.enumerate_depth(spec, 3).words.dtype == np.int8
        assert lg.enumerate_stopping(spec, 0.01).words.dtype == np.int8

    def test_budget_env(self, mcm, monkeypatch):
        monkeypatch.setenv("LG_MAX_CYLINDERS", "10")
        with pytest.raises(BudgetExceeded):
            lg.enumerate_depth(mcm, 4)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
    def test_bad_budget_setting_refused_by_every_gate(self, mcm, monkeypatch, value):
        monkeypatch.setenv("LG_MAX_CYLINDERS", value)
        calls = [
            lambda: lg.enumerate_depth(mcm, 0),  # the cylinder walk
            lambda: lg.row_stopping_words(mcm, 0.5),  # the row walk
            lambda: lg.projection_approx(mcm, 1),  # the interval cover
            lambda: lg.fiber_approx(mcm, (1,)),
            lambda: lg.build_epsilon_chain(mcm, 0.5),  # the chain's points
            lambda: lg.n_delta_curve(mcm, 0.5, 0.25, 2),  # the curve's steps
            lambda: lg.box_count(mcm, 0.5),  # the bounded walk
        ]
        for call in calls:
            with pytest.raises(InvalidSetting,
                               match=f"^LG_MAX_CYLINDERS must be an integer >= 1, got '{value}'$"):
                call()
        # a cover of no steps builds nothing, so it consults no budget
        assert lg.projection_approx(mcm, 0).intervals == ((0.0, 1.0),)

    def test_empty_attractor(self):
        spec = lg.spec_from_dict(rows_dict([(0.5, []), (0.5, [])]))
        with pytest.raises(lg.errors.EmptyAttractor):
            lg.enumerate_stopping(spec, 0.5)


ALL_EMPTY = {"rows": [{"b": 0.5, "cells": []}, {"b": 0.5, "cells": []}]}


def outcome(call, *args):
    """What `call(*args)` gives: its result, or its refusal's type and text."""
    try:
        return "result", call(*args)
    except (BudgetExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestGates:
    """Each precondition has one gate, so every entry point behind it answers
    alike: an integral float is the int it equals, and a spec with no cell
    is one refusal."""

    # (call of one whole-number argument, k, a cap that refuses it or, for
    # certify's sweep, cuts it short at k; y_codings has no budget)
    WHOLE = {
        "enumerate_depth": (lambda n: list(lg.enumerate_depth(synth.three_map_carpet(), n)), 3, 10),
        "render_svg": (lambda n: lg.render_svg(synth.three_map_carpet(), depth=n, size=64 * n), 3, 10),
        "n_delta_curve": (lambda n: lg.n_delta_curve(synth.cantor_dust(), 0.5, 0.1, n), 3, 2),
        "projection_approx": (lambda n: lg.projection_approx(synth.cantor_dust(), n).intervals, 4, 10),
        "y_codings": (lambda n: lg.y_codings(synth.three_map_carpet(), 0.5, n), 4, 1),
        "certify_totally_disconnected":
            (lambda n: lg.certify_totally_disconnected(synth.three_map_carpet(), n), 3, 10),
    }

    @pytest.mark.parametrize("name", sorted(WHOLE))
    def test_integral_float_is_its_int(self, monkeypatch, name):
        call, k, cap = self.WHOLE[name]
        assert outcome(call, float(k)) == outcome(call, k)
        assert outcome(call, k)[0] == "result"
        monkeypatch.setenv("LG_MAX_CYLINDERS", str(cap))
        assert outcome(call, float(k)) == outcome(call, k)

    def test_svg_size_is_written_whole(self, cd):
        svg = lg.render_svg(cd, depth=1, size=512.0)
        assert '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512"' in svg
        assert svg == lg.render_svg(cd, depth=1, size=512)

    NEEDS_ATTRACTOR = {
        "enumerate_depth": lambda spec: lg.enumerate_depth(spec, 1),
        "enumerate_stopping": lambda spec: lg.enumerate_stopping(spec, 0.5),
        "box_count": lambda spec: lg.box_count(spec, 0.5),
        "render_svg": lambda spec: lg.render_svg(spec, depth=1),
        "solve_s1": lg.solve_s1,
        "solve_bdim": lg.solve_bdim,
        "project_F": lg.project_F,
        "projection_approx": lambda spec: lg.projection_approx(spec, 1),
        "y_codings": lambda spec: lg.y_codings(spec, 0.5, 1),
        "row_stopping_words": lambda spec: lg.row_stopping_words(spec, 0.5),
        "idelta_classes": lambda spec: lg.idelta_classes(spec, 0.1),
        "h_delta": lambda spec: lg.h_delta(spec, 0.5),
        "gap_fraction": lg.gap_fraction,
        "gap_sequence_of_carpet": lambda spec: lg.gap_sequence_of_carpet(spec, 0.1),
        "check_uniform_disconnectedness": lg.check_uniform_disconnectedness,
        "a_min": lambda spec: spec.a_min,
        "a_max": lambda spec: spec.a_max,
    }

    @pytest.mark.parametrize("name", sorted(NEEDS_ATTRACTOR))
    def test_all_empty_spec_is_one_refusal(self, name):
        spec = lg.spec_from_dict(ALL_EMPTY)
        assert lg.validate(spec) == []
        with pytest.raises(lg.errors.EmptyAttractor, match="^every row is empty$"):
            self.NEEDS_ATTRACTOR[name](spec)
