"""Uniform disconnectedness: certificates and counterexample chains.

A carpet attractor is uniformly disconnected exactly when it is totally
disconnected and some row is empty.  The two directions are handled by
different constructions:

  * sufficiency: an empty row plus a finite separation certificate (all
    cylinders at some depth pairwise at positive distance) proves uniform
    disconnectedness, and with it quasisymmetric equivalence to the Cantor
    ternary set, when the separation holds in exact arithmetic;
  * necessity: when every row is nonempty, explicit epsilon-chains of points
    of E with uniformly small steps connect any two chain endpoints, refuting
    uniform disconnectedness constructively.

The separation certificate is not complete: attractors whose cylinder hulls
touch at every depth can still be totally disconnected, and those come back
Undetermined with a shrinking diameter bound.  Nor is it exact, since the
sweep tests separation in float64.  The maps are injective, so depth-1
images that touch keep touching in their images under every word: in exact
arithmetic the sweep certifies at depth 1 or never, and a certificate first
reached below depth 1 can only come from rounding.  Rounding can also
separate at depth 1 what touches: `synth.random_grid_spec(109)` is
CertifiedUD only because 2/3 + 1/6 != 5/6 in float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .carpet import CarpetSpec, Rects, _budget, _whole, enumerate_depth, word_map
from .errors import BudgetExceeded, ChainUnavailable, VerificationFailed
from .gaps import component_labels
from .structure import y_codings

DEFAULT_MAX_DEPTH = 8
DEFAULT_DEPTH_PAD = 40


def empty_rows(spec: CarpetSpec) -> list[int]:
    """Indices (1-based) of rows with no cells."""
    return [i for i, row in enumerate(spec.rows, start=1) if not row.cells]


@dataclass(frozen=True)
class TDCertificate:
    """Outcome of the cylinder-separation sweep.

    status "certified": at `depth` all cylinders are pairwise at positive
    distance, so every connected component lies inside one cylinder at every
    deeper level and the attractor is totally disconnected.  status
    "diameter_bound": touching cylinders persist to max_depth; diameter_bound
    is the largest touching-component bounding-box diagonal at the deepest
    level (an upper bound on any connected component's diameter).
    """

    status: str
    depth: int
    diameter_bound: float
    bounds_by_depth: tuple[float, ...]


def _touching_diameter(rects: Rects, labels: np.ndarray) -> float:
    """Largest bounding-box diagonal over the components `labels` gives."""
    order = np.argsort(labels, kind="stable")
    starts = np.unique(labels[order], return_index=True)[1]
    width = np.maximum.reduceat(rects.x1[order], starts) - np.minimum.reduceat(rects.x0[order], starts)
    height = np.maximum.reduceat(rects.y1[order], starts) - np.minimum.reduceat(rects.y0[order], starts)
    return max(map(math.hypot, width.tolist(), height.tolist()), default=0.0)


def certify_totally_disconnected(spec: CarpetSpec,
                                 max_depth: int = DEFAULT_MAX_DEPTH) -> TDCertificate:
    """Depth sweep looking for a level with pairwise-separated cylinders."""
    max_depth = _whole(max_depth, 1, "max_depth")
    bounds: list[float] = []
    for depth in range(1, max_depth + 1):
        try:
            rects = enumerate_depth(spec, depth).rects
        except BudgetExceeded:
            if not bounds:
                return TDCertificate("undetermined", 0, math.sqrt(2.0), ())
            break
        labels = component_labels(rects, 0.0)
        if (labels == np.arange(len(rects))).all():  # every rect its own component
            return TDCertificate("certified", depth, 0.0, tuple(bounds))
        bounds.append(_touching_diameter(rects, labels))
    return TDCertificate("diameter_bound", len(bounds), bounds[-1], tuple(bounds))


@dataclass(frozen=True)
class EpsilonChain:
    """Points of E (to truncation depth) joining xi to xi_prime in small steps."""

    epsilon0: float
    n: int
    ell: int
    points: tuple[tuple[float, float], ...]
    max_step_ratio: float
    truncation_radius: float
    step_slack: float

    @property
    def xi(self) -> tuple[float, float]:
        return self.points[0]

    @property
    def xi_prime(self) -> tuple[float, float]:
        return self.points[-1]


def build_epsilon_chain(spec: CarpetSpec, epsilon0: float) -> EpsilonChain:
    """Construct the chain witnessing failure of uniform disconnectedness.

    Requires every row nonempty.  Picks n with 1/n < epsilon0/2 and a cylinder
    word T (the max width-to-height row repeated ell times, widest cell) whose
    width-to-height ratio is <= epsilon0/2; the chain points are T-images of
    points of E at heights k/n.  Each point is computed to DEFAULT_DEPTH_PAD
    (40) digits past T, following the lexicographically smallest itinerary of
    k/n with column digit 1, so it sits within the truncation radius of E.
    T's map is composed once and each point continues it through its tail.
    The n + 1 points and the ell digits of T each count against
    LG_MAX_CYLINDERS (BudgetExceeded); endpoints that round to one float
    point raise VerificationFailed.
    """
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError(f"epsilon0 must be in (0, 1), got {epsilon0}")
    empties = empty_rows(spec)
    if empties:
        raise ChainUnavailable(
            f"rows {empties} are empty; no chain exists (the attractor may be UD)")

    n = 2.0 / epsilon0  # inf below about 1.1e-308, refused by the cap without an int
    n = math.ceil(n) + 1 if n < math.inf else n
    cap = _budget(n + 1, f"epsilon chain: {n + 1} points")
    ratios = [spec.row_max_width[i] / row.b for i, row in enumerate(spec.rows)]
    best_row = 1 + max(range(spec.m), key=lambda i: ratios[i])
    ratio = ratios[best_row - 1]
    widths = [c.a for c in spec.rows[best_row - 1].cells]
    best_cell = 1 + widths.index(max(widths))
    # ell is the least length >= 1 with ratio**ell <= epsilon0 / 2: estimated
    # from logs (ratio < 1 as a < b), then settled by that test within the cap
    target = epsilon0 / 2.0
    estimate = math.log(target) / math.log(ratio) if ratio < 1.0 else math.inf
    ell = max(1, math.ceil(min(estimate, cap + 1)))
    while ell > 1 and ratio ** (ell - 1) <= target:
        ell -= 1
    while ell <= cap and ratio ** ell > target:
        ell += 1
    if ell > cap:
        raise BudgetExceeded(f"epsilon chain: word T longer than cap {cap}")
    t_map = word_map(spec, itertools.repeat((best_row, best_cell), ell))

    points = []
    radius = 0.0
    for k in range(n + 1):
        coding = y_codings(spec, k / n, DEFAULT_DEPTH_PAD)[0]
        sx, tx, sy, ty = word_map(spec, ((i, 1) for i in coding), t_map)
        points.append((tx, ty))  # S_w(0, 0)
        radius = max(radius, math.hypot(sx, sy))

    xi, xi_prime = points[0], points[-1]
    span = math.hypot(xi[0] - xi_prime[0], xi[1] - xi_prime[1])
    if span == 0.0:
        raise VerificationFailed(
            f"chain endpoints coincide at {xi}: word T (length {ell}) shrinks them "
            "below float64 resolution")
    slack = 4.0 * radius
    max_step = 0.0
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        step = math.hypot(ax - bx, ay - by)
        if step > epsilon0 * span + slack:
            raise VerificationFailed(
                f"chain step {step} exceeds eps0*span + slack = {epsilon0 * span + slack}")
        max_step = max(max_step, step)
    return EpsilonChain(epsilon0=epsilon0, n=n, ell=ell, points=tuple(points),
                        max_step_ratio=max_step / span,
                        truncation_radius=radius, step_slack=slack)


@dataclass(frozen=True)
class UDVerdict:
    kind: str  # "CertifiedUD" | "CertifiedNotUD" | "Undetermined"
    evidence: dict
    depth_used: int
    diameter_bound: float
    quasisymmetric_to_cantor: bool


def check_uniform_disconnectedness(spec: CarpetSpec,
                                   max_depth: int = DEFAULT_MAX_DEPTH) -> UDVerdict:
    """Decide uniform disconnectedness as far as finite certificates allow.

    One separation sweep runs first and feeds every verdict its depth_used and
    diameter_bound.  No empty row: certified not-UD, with an epsilon-chain
    attached as evidence; the verdict keeps the sweep's depth and bound.
    Empty row + separation certificate: certified UD (and then the attractor
    is quasisymmetrically a Cantor set).  Empty row but touching cylinders at
    every tried depth: Undetermined, reporting how the diameter bound is
    trending.
    """
    cert = certify_totally_disconnected(spec, max_depth)
    empties = empty_rows(spec)
    if not empties:
        chain = build_epsilon_chain(spec, 0.1)
        kind, evidence = "CertifiedNotUD", {
            "reason": "every row is nonempty; epsilon chains connect points of E",
            "chain": {"epsilon0": chain.epsilon0, "n": chain.n, "ell": chain.ell,
                      "points": len(chain.points), "max_step_ratio": chain.max_step_ratio},
        }
    elif cert.status == "certified":
        kind, evidence = "CertifiedUD", {"empty_rows": empties, "td_depth": cert.depth}
    else:
        bounds = list(cert.bounds_by_depth)
        stalled = len(bounds) >= 3 and bounds[-3] > 0.0 and bounds[-1] >= 0.9 * bounds[-3]
        note = ("diameter bound nearly stalled over the last two depths; "
                "leaning connected (informational only)" if stalled else
                "diameter bound still shrinking; separation certificate not reached")
        kind, evidence = "Undetermined", {"empty_rows": empties, "bounds_by_depth": bounds,
                                          "note": note}
    return UDVerdict(kind, evidence, cert.depth, cert.diameter_bound, kind == "CertifiedUD")
