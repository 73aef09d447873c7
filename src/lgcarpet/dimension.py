"""Box-dimension solvers.

Two nested root-finding problems on strictly decreasing functions:

    sum over nonempty rows of  b_i ** s1                 = 1
    sum over all cells of      b_i ** s1 * a_ij ** (s - s1) = 1

s1 is the similarity dimension of the carpet's vertical projection (an
interval IFS with ratios b_i over the nonempty rows) and s is the box
dimension of the attractor itself.  Both brackets are proved tight: s1 lies
in [0, 1] because the nonempty rows' heights sum to at most 1, and t = s - s1
lies in [0, 1] because each row's cell widths sum to at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .carpet import CarpetSpec, _nonempty
from .errors import NoConvergence

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class DimensionResult:
    s1: float
    s: float
    residual_s1: float
    residual_s: float
    iterations: int


def bisect_decreasing(f: Callable[[float], float], lo: float, hi: float,
                      tol: float = BISECT_TOL) -> tuple[float, int]:
    """Root of a decreasing f with f(lo) >= 0 >= f(hi), to bracket width tol.

    Returns (root, iterations).
    """
    flo, fhi = f(lo), f(hi)
    if flo < 0.0 or fhi > 0.0:
        raise NoConvergence(
            f"bracket [{lo}, {hi}] does not straddle the root: f={flo}, {fhi}")
    for step in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            return 0.5 * (lo + hi), step
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(f"no convergence after {BISECT_MAX_ITER} bisection steps")


def solve_s1(spec: CarpetSpec, tol: float = BISECT_TOL) -> float:
    """Dimension of the vertical projection: sum of b_i**s1 over nonempty rows is 1."""
    rows = [spec.rows[i - 1] for i in _nonempty(spec)]
    if len(rows) == 1:
        return 0.0
    if len(rows) == spec.m:
        return 1.0  # heights of all rows sum to 1 exactly

    def f(s: float) -> float:
        return sum(row.b ** s for row in rows) - 1.0

    return bisect_decreasing(f, 0.0, 1.0, tol=tol)[0]


def solve_bdim(spec: CarpetSpec, tol: float = BISECT_TOL) -> DimensionResult:
    """Box dimension s of the attractor, solved via t = s - s1 in [0, 1]."""
    rows = [spec.rows[i - 1] for i in _nonempty(spec)]
    if len(rows) == spec.m and all(
            abs(math.fsum(cell.a for cell in row.cells) - 1.0) <= 1e-15
            for row in rows):
        # cells tile every row: the attractor is the full square
        return DimensionResult(s1=1.0, s=2.0, residual_s1=0.0, residual_s=0.0,
                               iterations=0)
    s1 = solve_s1(spec, tol=tol)
    weights = [row.b ** s1 for row in rows]

    def g(t: float) -> float:
        return sum(w * sum(cell.a ** t for cell in row.cells)
                   for w, row in zip(weights, rows)) - 1.0

    if all(len(row.cells) == 1 for row in rows):
        # g(0) = sum of b_i**s1 - 1 is 0 by the definition of s1, though its
        # float sum can miss 0 by an ulp and leave no bracket
        t, iters = 0.0, 0
    else:
        t, iters = bisect_decreasing(g, 0.0, 1.0, tol=tol)
    res_s1 = sum(row.b ** s1 for row in rows) - 1.0
    return DimensionResult(s1=s1, s=s1 + t, residual_s1=res_s1,
                           residual_s=g(t), iterations=iters)
