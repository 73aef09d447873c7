"""Separation certificates, epsilon chains, and the combined UD verdict."""

import math
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lgcarpet as lg
from lgcarpet import synth
from lgcarpet.carpet import CarpetSpec, Cell, Rect, Rects, RowSpec
from lgcarpet.disconnect import DEFAULT_DEPTH_PAD, _touching_diameter
from lgcarpet.errors import BudgetExceeded, ChainUnavailable, EmptyAttractor, VerificationFailed
from test_structure import SHORT_TOP_SPEC


SPECS = Path(__file__).resolve().parent.parent / "specs"

# asdict of each spec's verdict at the default max_depth
PINNED_VERDICTS = {
    "CD": {"kind": "CertifiedUD", "evidence": {"empty_rows": [2], "td_depth": 1},
           "depth_used": 1, "diameter_bound": 0.0, "quasisymmetric_to_cantor": True},
    "MCM": {"kind": "CertifiedNotUD",
            "evidence": {"reason": "every row is nonempty; epsilon chains connect points of E",
                         "chain": {"epsilon0": 0.1, "n": 21, "ell": 8, "points": 22,
                                   "max_step_ratio": 0.048071441147942456}},
            "depth_used": 8, "diameter_bound": 0.007825869370755485,
            "quasisymmetric_to_cantor": False},
    "MIXED": {"kind": "CertifiedUD", "evidence": {"empty_rows": [2], "td_depth": 1},
              "depth_used": 1, "diameter_bound": 0.0, "quasisymmetric_to_cantor": True},
    "TOUCHING": {"kind": "Undetermined",
                 "evidence": {"empty_rows": [2],
                              "bounds_by_depth": [0.7071067811865476, 0.2795084971874737,
                                                  0.1288470508005519, 0.06298638865858242,
                                                  0.031310975667737106, 0.01563262753279504,
                                                  0.007813453616115849, 0.003906369207470617],
                              "note": "diameter bound still shrinking; "
                                      "separation certificate not reached"},
                 "depth_used": 8, "diameter_bound": 0.003906369207470617,
                 "quasisymmetric_to_cantor": False},
}


def assert_same_values(got, want):
    """Types, key order, ints and strings exact; floats to 1e-12 relative."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_values(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_values(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert got == want


def all_empty_spec():
    return CarpetSpec(rows=(RowSpec(b=0.5, cells=()), RowSpec(b=0.5, cells=())))


def two_row_spec(top_width):
    """Half-height rows, a quarter-width cell below and one of `top_width` above."""
    return CarpetSpec((RowSpec(0.5, (Cell(0.25, 0.0),)),
                       RowSpec(0.5, (Cell(top_width, 0.5),))))


@st.composite
def full_row_specs(draw):
    """Valid specs with every row nonempty: random heights, widths up to
    0.999 of their row's height, random gaps between cells."""
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4))
    rows = []
    for w in weights:
        b = w / sum(weights)
        widths = [b * r for r in draw(st.lists(st.floats(0.01, 0.999), min_size=1, max_size=3))]
        assume(sum(widths) <= 1.0)
        gaps = draw(st.lists(st.floats(0.0, 1.0), min_size=len(widths), max_size=len(widths)))
        gaps = [(1.0 - sum(widths)) * g / max(1.0, sum(gaps)) for g in gaps]
        cells, c = [], 0.0
        for a, gap in zip(widths, gaps):
            cells.append(Cell(a, c + gap))
            c += gap + a
        rows.append(RowSpec(b, tuple(cells)))
    spec = CarpetSpec(tuple(rows))
    assume(lg.validate(spec) == [])
    return spec


class TestEmptyRows:
    def test_canonical_specs(self, cd, mcm, mixed, touching):
        assert lg.empty_rows(cd) == [2]
        assert lg.empty_rows(mcm) == []
        assert lg.empty_rows(mixed) == [2]
        assert lg.empty_rows(touching) == [2]


class TestSeparationCertificate:
    def test_cantor_dust_certified_at_depth_1(self, cd):
        cert = lg.certify_totally_disconnected(cd)
        assert cert.status == "certified"
        assert cert.depth == 1
        assert cert.diameter_bound == 0.0
        assert cert.bounds_by_depth == ()

    def test_certified_separation_persists_one_level_deeper(self, cd):
        # independent check of what the certificate promises
        cert = lg.certify_totally_disconnected(cd)
        rects = [c.rect for c in lg.enumerate_depth(cd, cert.depth + 1)]
        labels = lg.component_labels(rects, 0.0)
        assert len(np.unique(labels)) == len(rects)

    def test_touching_columns_never_certified(self, touching):
        cert = lg.certify_totally_disconnected(touching, max_depth=6)
        assert cert.status == "diameter_bound"
        assert cert.depth == 6
        assert len(cert.bounds_by_depth) == 6
        bounds = cert.bounds_by_depth
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert cert.diameter_bound == bounds[-1]

    def test_touching_bound_value(self, touching):
        # depth 1: two touching quarter-width columns of height 1/2
        cert = lg.certify_totally_disconnected(touching, max_depth=1)
        assert cert.bounds_by_depth[0] == pytest.approx(math.hypot(0.5, 0.5))

    def test_bad_max_depth(self, cd):
        with pytest.raises(ValueError):
            lg.certify_totally_disconnected(cd, max_depth=0)
        for max_depth, message in [(2.5, "a finite whole number, got 2.5"),
                                   (math.inf, "a finite whole number, got inf"),
                                   (math.nan, ">= 1, got nan")]:
            for check in (lg.certify_totally_disconnected, lg.check_uniform_disconnectedness):
                with pytest.raises(ValueError, match=f"^max_depth must be {message}$"):
                    check(cd, max_depth=max_depth)
        assert (lg.check_uniform_disconnectedness(cd, max_depth=3.0)
                == lg.check_uniform_disconnectedness(cd, max_depth=3))

    @pytest.mark.parametrize("cap, want", [
        # depth 1 (two cylinders) is already over the cap
        ("1", lg.TDCertificate("undetermined", 0, math.sqrt(2.0), ())),
        # depth 1 fits, depth 2 (four cylinders) does not
        ("2", lg.TDCertificate("diameter_bound", 1, 0.7071067811865476,
                               (0.7071067811865476,))),
    ])
    def test_budget_ends_the_sweep(self, touching, monkeypatch, cap, want):
        monkeypatch.setenv("LG_MAX_CYLINDERS", cap)
        assert lg.certify_totally_disconnected(touching) == want
        assert lg.check_uniform_disconnectedness(touching).kind == "Undetermined"

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.builds(Rect, *[st.floats(0.0, 1.0)] * 4), st.integers(0, 5)),
                    min_size=1, max_size=40))
    def test_touching_diameter_per_label(self, labelled):
        best = 0.0
        for lab in {lab for _, lab in labelled}:
            group = [r for r, k in labelled if k == lab]
            best = max(best, math.hypot(max(r.x1 for r in group) - min(r.x0 for r in group),
                                        max(r.y1 for r in group) - min(r.y0 for r in group)))
        rects = Rects.of([r for r, _ in labelled])
        assert _touching_diameter(rects, np.array([k for _, k in labelled])) == best

    def test_empty_attractor(self):
        with pytest.raises(EmptyAttractor):
            lg.certify_totally_disconnected(all_empty_spec())


class TestEpsilonChain:
    @pytest.mark.parametrize("eps0", [0.5, 0.2, 0.1])
    def test_chain_invariants(self, mcm, eps0):
        ch = lg.build_epsilon_chain(mcm, eps0)
        assert ch.epsilon0 == eps0
        assert ch.n > 2.0 / eps0
        assert len(ch.points) == ch.n + 1
        assert ch.points[0] == ch.xi
        assert ch.points[-1] == ch.xi_prime
        assert ch.xi != ch.xi_prime
        assert ch.max_step_ratio <= eps0 + 1e-6
        for x, y in ch.points:
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        # the word T really compresses width below eps0/2 relative to height
        ratio = max(max(c.a for c in row.cells) / row.b for row in mcm.rows)
        assert ratio ** ch.ell <= eps0 / 2.0

    def test_points_budget(self, mcm, monkeypatch):
        # epsilon0 = 0.1 gives n = 21, so 22 points
        monkeypatch.setenv("LG_MAX_CYLINDERS", "22")
        assert len(lg.build_epsilon_chain(mcm, 0.1).points) == 22
        monkeypatch.setenv("LG_MAX_CYLINDERS", "21")
        with pytest.raises(BudgetExceeded, match="^epsilon chain: 22 points exceeds cap 21$"):
            lg.build_epsilon_chain(mcm, 0.1)

    @pytest.mark.parametrize("eps0", [1e-310, 5e-324])
    def test_tiny_epsilon_refused_by_the_cap(self, mcm, monkeypatch, eps0):
        # 2 / eps0 is inf: refused as inf points, before an int or a log of
        # eps0 / 2 (0.0 at 5e-324) is taken
        monkeypatch.delenv("LG_MAX_CYLINDERS", raising=False)
        with pytest.raises(BudgetExceeded,
                           match="^epsilon chain: inf points exceeds cap 10000000$"):
            lg.build_epsilon_chain(mcm, eps0)

    def test_pinned_shapes(self, mcm):
        ch = lg.build_epsilon_chain(mcm, 0.5)
        assert (ch.n, ch.ell, len(ch.points)) == (5, 4, 6)
        ch = lg.build_epsilon_chain(mcm, 0.1)
        assert (ch.n, ch.ell, len(ch.points)) == (21, 8, 22)

    @pytest.mark.parametrize("a, eps0, n, ell", [
        (0.375, 0.84375, 4, 3),  # ratio**3 == eps0/2 exactly; the log estimate gives 4
        (0.05, 0.002, 1001, 4),  # ratio**3 a little above eps0/2; the estimate gives 3
    ])
    def test_word_length_settled_from_estimate(self, a, eps0, n, ell):
        spec = CarpetSpec((RowSpec(0.5, (Cell(a, 0.0),)), RowSpec(0.5, (Cell(a, 1.0 - a),))))
        ratio = a / 0.5
        estimate = math.ceil(math.log(eps0 / 2.0) / math.log(ratio))
        assert estimate != ell
        ch = lg.build_epsilon_chain(spec, eps0)
        assert (ch.n, ch.ell) == (n, ell)
        assert ratio ** ell <= eps0 / 2.0 < ratio ** (ell - 1)

    def test_truncation_radius_is_small(self, mcm):
        ch = lg.build_epsilon_chain(mcm, 0.5)
        assert 0.0 < ch.truncation_radius < 1e-10
        assert ch.step_slack == pytest.approx(4.0 * ch.truncation_radius)

    def test_steps_shrink_with_eps0(self, mcm):
        r1 = lg.build_epsilon_chain(mcm, 0.5).max_step_ratio
        r2 = lg.build_epsilon_chain(mcm, 0.1).max_step_ratio
        assert r2 < r1

    def test_tall_word_budget(self, monkeypatch):
        # ratio 0.96 gives a word T of 74 digits at epsilon0 = 0.1
        spec = two_row_spec(0.48)
        monkeypatch.setenv("LG_MAX_CYLINDERS", "73")
        with pytest.raises(BudgetExceeded, match="^epsilon chain: word T longer than cap 73$"):
            lg.build_epsilon_chain(spec, 0.1)
        monkeypatch.setenv("LG_MAX_CYLINDERS", "74")
        with pytest.raises(VerificationFailed, match=r"word T \(length 74\)"):
            lg.build_epsilon_chain(spec, 0.1)

    def test_tall_word_refused_before_it_is_built(self):
        # ratio 1 - 2e-10 would need a word T of about 1.5e10 digits
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="word T longer than cap"):
            lg.build_epsilon_chain(two_row_spec(0.4999999999), 0.1)
        assert time.perf_counter() - start < 1.0

    def test_endpoints_below_float_resolution(self):
        # T scales by about 0.5**74, below the ulp of its offset, so every
        # chain point rounds to one float point
        with pytest.raises(VerificationFailed, match="endpoints coincide"):
            lg.build_epsilon_chain(two_row_spec(0.48), 0.1)

    def test_steps_below_float_resolution(self):
        # ratio 0.94 gives a word T of 49 digits: the endpoints stay a few
        # ulps apart, and one rounded step is a whole ulp of the offset
        with pytest.raises(VerificationFailed,
                           match=r"chain step 2.220446049250313e-16 exceeds eps0\*span"):
            lg.build_epsilon_chain(two_row_spec(0.47), 0.1)

    @settings(max_examples=150, deadline=None)
    @given(full_row_specs(), st.sampled_from([0.5, 0.2, 0.1]))
    def test_random_full_row_specs(self, spec, eps0):
        # a chain, or a domain error; a chain's points are the maps of whole
        # words T + tail, composed digit by digit
        try:
            ch = lg.build_epsilon_chain(spec, eps0)
        except (BudgetExceeded, VerificationFailed):
            return
        row = 1 + max(range(spec.m), key=lambda i: spec.row_max_width[i] / spec.rows[i].b)
        widths = [c.a for c in spec.rows[row - 1].cells]
        t_word = ((row, 1 + widths.index(max(widths))),) * ch.ell
        for k, point in enumerate(ch.points):
            coding = lg.y_codings(spec, k / ch.n, DEFAULT_DEPTH_PAD)[0]
            _, tx, _, ty = lg.word_map(spec, t_word + tuple((i, 1) for i in coding))
            assert point == (tx, ty)

    def test_heights_summing_short_of_one(self, tmp_path):
        # y = 1 keeps the top itinerary although the top strip's computed
        # edge falls below 1
        path = tmp_path / "short_top.json"
        path.write_text(SHORT_TOP_SPEC)
        spec = lg.load_spec(path)
        chain = lg.build_epsilon_chain(spec, 0.5)
        t_word = ((1, 1),) * chain.ell  # both rows' cells are half as wide as high
        _, tx, _, ty = lg.word_map(spec, t_word + ((2, 1),) * DEFAULT_DEPTH_PAD)
        assert chain.xi_prime == (tx, ty)
        assert lg.check_uniform_disconnectedness(spec).kind == "CertifiedNotUD"

    def test_unavailable_with_empty_row(self, cd):
        with pytest.raises(ChainUnavailable):
            lg.build_epsilon_chain(cd, 0.5)

    @pytest.mark.parametrize("eps0", [0.0, 1.0, -0.3, 2.0])
    def test_epsilon_domain(self, mcm, eps0):
        with pytest.raises(ValueError):
            lg.build_epsilon_chain(mcm, eps0)


class TestVerdicts:
    def test_cantor_dust(self, cd):
        v = lg.check_uniform_disconnectedness(cd)
        assert v.kind == "CertifiedUD"
        assert v.quasisymmetric_to_cantor is True
        assert v.depth_used == 1
        assert v.diameter_bound == 0.0
        assert v.evidence == {"empty_rows": [2], "td_depth": 1}

    def test_mixed_rows(self, mixed):
        v = lg.check_uniform_disconnectedness(mixed)
        assert v.kind == "CertifiedUD"
        assert v.depth_used == 1
        assert v.quasisymmetric_to_cantor is True

    def test_three_map_carpet(self, mcm):
        v = lg.check_uniform_disconnectedness(mcm)
        assert v.kind == "CertifiedNotUD"
        assert v.quasisymmetric_to_cantor is False
        chain = v.evidence["chain"]
        assert chain["epsilon0"] == 0.1
        assert (chain["n"], chain["ell"], chain["points"]) == (21, 8, 22)
        assert chain["max_step_ratio"] <= 0.1 + 1e-6
        assert "reason" in v.evidence

    def test_touching_columns(self, touching):
        v = lg.check_uniform_disconnectedness(touching)
        assert v.kind == "Undetermined"
        assert v.quasisymmetric_to_cantor is False
        assert v.evidence["empty_rows"] == [2]
        bounds = v.evidence["bounds_by_depth"]
        assert len(bounds) == 8
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(math.hypot(0.5, 0.5))
        assert "note" in v.evidence
        assert v.diameter_bound == bounds[-1]

    @pytest.mark.parametrize("name", list(PINNED_VERDICTS))
    def test_pinned_verdicts(self, name):
        verdict = lg.check_uniform_disconnectedness(lg.load_spec(SPECS / f"{name}.json"))
        assert_same_values(asdict(verdict), PINNED_VERDICTS[name])

    def test_empty_attractor_propagates(self):
        with pytest.raises(EmptyAttractor):
            lg.check_uniform_disconnectedness(all_empty_spec())

    def test_depth_budget_respected(self, touching):
        v = lg.check_uniform_disconnectedness(touching, max_depth=3)
        assert len(v.evidence["bounds_by_depth"]) == 3
