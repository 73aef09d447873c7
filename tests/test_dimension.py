"""Dimension solvers against closed forms and structural invariants."""

import math

import numpy as np
import pytest

import lgcarpet as lg
from lgcarpet import synth
from lgcarpet.dimension import bisect_decreasing
from lgcarpet.errors import EmptyAttractor, NoConvergence

LOG32 = math.log(2) / math.log(3)


def grid_closed_form(spec):
    """log_m' t + log_n' (N/t) for uniform-grid specs."""
    m = spec.m
    n = round(1.0 / spec.rows[spec.nonempty_rows[0] - 1].cells[0].a)
    t = len(spec.nonempty_rows)
    big_n = len(spec.digits)
    return math.log(t) / math.log(m) + math.log(big_n / t) / math.log(n)


def test_cd_closed_form(cd):
    res = lg.solve_bdim(cd)
    assert res.s1 == pytest.approx(LOG32, abs=1e-10)
    assert res.s == pytest.approx(LOG32 + 0.5, abs=1e-10)
    assert abs(res.residual_s1) <= 1e-9
    assert abs(res.residual_s) <= 1e-9


def test_mcm_closed_form(mcm):
    res = lg.solve_bdim(mcm)
    assert res.s1 == 1.0  # all rows nonempty, heights sum to 1
    assert res.s == pytest.approx(1 + math.log(1.5) / math.log(3), abs=1e-10)


def test_one_nonempty_row_s1_zero():
    spec = synth.single_point()
    assert lg.solve_s1(spec) == 0.0


def test_single_point_dimension_zero():
    res = lg.solve_bdim(synth.single_point())
    assert res.s1 == 0.0
    assert abs(res.s) <= 1e-9


def test_one_cell_per_row_is_exactly_s1():
    # the heights sum to 1 - 2**-53 in float, so a bracket for t = s - s1
    # would start at g(0) < 0; with one cell per row g(0) = 0 exactly
    spec = lg.CarpetSpec(tuple(lg.RowSpec(b, (lg.Cell(a, 0.0),))
                               for b, a in [(0.7, 0.5), (0.2, 0.1), (0.1, 0.05)]))
    assert lg.validate(spec) == []
    assert sum(row.b for row in spec.rows) < 1.0
    res = lg.solve_bdim(spec)
    assert res.s == res.s1 == 1.0
    assert res.iterations == 0


def test_full_square_is_exactly_two():
    third = 1.0 / 3.0
    spec = lg.CarpetSpec((
        lg.RowSpec(0.5, (lg.Cell(third, 0.0), lg.Cell(third, third),
                         lg.Cell(third, 2 * third))),
        lg.RowSpec(0.5, (lg.Cell(third, 0.0), lg.Cell(third, third),
                         lg.Cell(third, 2 * third))),
    ))
    assert lg.validate(spec) == []
    res = lg.solve_bdim(spec)
    assert res.s == 2.0
    assert res.s1 == 1.0


def test_uniform_grid_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        spec = synth.random_grid_spec(rng)
        res = lg.solve_bdim(spec)
        assert abs(res.s - grid_closed_form(spec)) <= 1e-9


def test_row_permutation_invariance(cd):
    flipped = lg.CarpetSpec((cd.rows[2], cd.rows[1], cd.rows[0]))
    assert lg.solve_bdim(flipped).s == lg.solve_bdim(cd).s
    assert lg.solve_s1(flipped) == lg.solve_s1(cd)


def test_cell_permutation_invariance(mcm):
    row = mcm.rows[0]
    shuffled = lg.CarpetSpec((
        lg.RowSpec(row.b, (row.cells[1], row.cells[0])), mcm.rows[1]))
    # ordering violates c monotonicity, but the solver only sums over cells
    assert lg.solve_bdim(shuffled).s == lg.solve_bdim(mcm).s


def test_bounds_hold_on_random_specs():
    rng = np.random.default_rng(99)
    for _ in range(30):
        spec = synth.random_grid_spec(rng)
        res = lg.solve_bdim(spec)
        assert 0.0 <= res.s1 <= 1.0
        assert res.s1 <= res.s <= 2.0


def test_empty_attractor():
    spec = lg.CarpetSpec((lg.RowSpec(0.5, ()), lg.RowSpec(0.5, ())))
    with pytest.raises(EmptyAttractor):
        lg.solve_s1(spec)
    with pytest.raises(EmptyAttractor):
        lg.solve_bdim(spec)


def test_tolerance_parameter(cd):
    loose = lg.solve_bdim(cd, tol=1e-4)
    tight = lg.solve_bdim(cd, tol=1e-13)
    assert abs(loose.s - tight.s) <= 1e-4
    assert tight.iterations > loose.iterations


def test_bisect_decreasing():
    root, iters = bisect_decreasing(lambda x: 1.0 - x, 0.0, 2.0)
    assert root == pytest.approx(1.0, abs=1e-11)
    assert iters > 0
    with pytest.raises(NoConvergence):
        bisect_decreasing(lambda x: x, 1.0, 2.0)  # increasing, no bracket
    with pytest.raises(NoConvergence, match="after 200 bisection steps"):
        bisect_decreasing(lambda x: 1.0 - x, 0.0, 2.0, tol=0.0)  # floats stop halving
