"""Operations of each benchmark workload, built from the seed, with their checks.

An operation is one call into the public lgcarpet API.  Its `run` returns the
result; its optional `check` returns an error string (or None) and needs no
recorded output.  Operations marked `recorded` take no seeded input, so their
result fingerprint is compared with the one stored in expected.json.

Importing this module imports lgcarpet, so only the worker process does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import lgcarpet as lg
from lgcarpet import cli, synth

SPEC_NAMES = ("CD", "MCM", "MIXED", "TOUCHING")

# Closed-form box dimensions: CD = log_3 2 + 1/2, MCM = 1 + log_3(3/2).
CLOSED_FORM_S = {"CD": math.log(2, 3) + 0.5, "MCM": 1.0 + math.log(1.5, 3)}
S_TOL = 1e-9

UD_KIND = {"CD": "CertifiedUD", "MCM": "CertifiedNotUD",
           "TOUCHING": "Undetermined"}

WORKLOAD_SPECS = {
    "cd_report": ("CD",),
    "mcm_report": ("MCM",),
    "study_mix": SPEC_NAMES,
    "smoke": SPEC_NAMES,
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None
    recorded: bool = False


def load_specs(workload: str) -> dict:
    """Load and validate the workload's specs (part of set-up)."""
    specs = {}
    for name in WORKLOAD_SPECS[workload]:
        spec = lg.load_spec(f"specs/{name}.json")
        violations = lg.validate(spec)
        if violations:
            raise ValueError(f"specs/{name}.json is invalid: {violations}")
        specs[name] = spec
    return specs


@dataclass(frozen=True)
class Report:
    """Exit code and stdout bytes of one in-process `lgcarpet report` run."""

    code: int
    text: str

    def view(self) -> dict:
        """What the fingerprint covers: the exit code and the parsed report."""
        return {"exit_code": self.code, "report": json.loads(self.text) if self.code == 0 else None}


def report_text(spec_name: str, extra: tuple[str, ...] = ()) -> Report:
    """`lgcarpet report specs/<name>.json` in process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["report", f"specs/{spec_name}.json", *extra])
    return Report(code, buf.getvalue())


def _report_check(spec_name: str):
    def check(result):
        if result.code != 0:
            return f"exit code {result.code}"
        rep = json.loads(result.text)
        err = _s_error(spec_name, rep["dimensions"]["s"])
        if err:
            return err
        if rep["ud"]["kind"] != UD_KIND[spec_name]:
            return f"verdict {rep['ud']['kind']}, expected {UD_KIND[spec_name]}"
        return None
    return check


def _s_error(spec_name: str, s: float) -> str | None:
    want = CLOSED_FORM_S.get(spec_name)
    if want is not None and abs(s - want) > S_TOL:
        return f"s = {s!r}, closed form {want!r}"
    return None


def _report_op(spec_name: str, extra: tuple[str, ...] = (), prefix: str = "") -> Op:
    return Op(f"{prefix}report {spec_name}", lambda: report_text(spec_name, extra),
              _report_check(spec_name), recorded=spec_name == "CD")


def _seeded_codings(rng, spec, length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two codings over the nonempty rows that differ somewhere (the API's precondition)."""
    rows = spec.nonempty_rows
    while True:
        c1 = tuple(rows[i] for i in rng.integers(0, len(rows), size=length))
        c2 = tuple(rows[i] for i in rng.integers(0, len(rows), size=length))
        if c1 != c2:
            return c1, c2


def _gap_interval_check(spec, coding, lo, hi):
    def check(j):
        j_lo, j_hi = j
        if not lo <= j_lo < j_hi <= hi:
            return f"J={j} not inside I=({lo}, {hi})"
        lam = lg.gap_fraction(spec)
        if j_hi - j_lo < lam * (hi - lo) * (1.0 - 1e-9):
            return f"|J| = {j_hi - j_lo} < lambda |I| = {lam * (hi - lo)}"
        fiber = lg.fiber_approx(spec, coding[:14])  # independently truncated cover
        slack = max(1e-13, max(b - a for a, b in fiber.intervals))
        if fiber.intersects_open(j_lo + slack, j_hi - slack):
            return "J meets an independent fiber cover"
        return None
    return check


def _mst_pair(rects):
    return lg.gap_sequence_mst(rects), lg.gap_sequence_bruteforce(rects)


def _mst_check(pair):
    mst, oracle = pair
    return None if mst.entries == oracle.entries else "MST differs from the oracle"


def _ops_dims(specs, prefix=""):
    return [Op(f"{prefix}solve_bdim {n}", lambda n=n: lg.solve_bdim(specs[n]),
               lambda r, n=n: _s_error(n, r.s), recorded=True) for n in specs]


def _ops_ladder(specs, cd_ks, mcm_ks, prefix=""):
    ops = [Op(f"{prefix}box_count CD 3^-{k}", lambda k=k: lg.box_count(specs["CD"], 3.0 ** -k),
              recorded=True) for k in cd_ks]
    ops += [Op(f"{prefix}box_count MCM 2^-{k}", lambda k=k: lg.box_count(specs["MCM"], 2.0 ** -k),
               recorded=True) for k in mcm_ks]
    return ops


def _ops_hd(specs, rng, count, prefix=""):
    ops = []
    for k in range(count):
        name = ("CD", "MCM", "MIXED")[k % 3]
        c1, c2 = _seeded_codings(rng, specs[name], 12)
        ops.append(Op(f"{prefix}check_hd_bound #{k} {name}",
                      lambda s=specs[name], c1=c1, c2=c2: lg.check_hd_bound(s, c1, c2),
                      lambda r: None if r.ok else f"distance {r.distance} > bound"))
    return ops


def _ops_gap_interval(specs, rng, count, prefix=""):
    ops = []
    for k in range(count):
        name = ("MCM", "CD")[k % 2]
        spec = specs[name]
        rows = spec.nonempty_rows
        coding = tuple(rows[i] for i in rng.integers(0, len(rows), size=25))
        lo = float(rng.uniform(0.0, 0.9))
        hi = lo + float(rng.uniform(1e-3, 0.1))
        ops.append(Op(f"{prefix}find_gap_interval #{k} {name}",
                      lambda s=spec, c=coding, i=(lo, hi): lg.find_gap_interval(s, c, i),
                      _gap_interval_check(spec, coding, lo, hi)))
    return ops


def _ops_classes(specs, cd_ks, mcm_ks, prefix=""):
    ops = [Op(f"{prefix}idelta_classes CD 3^-{k}",
              lambda k=k: lg.idelta_classes(specs["CD"], 3.0 ** -k),
              lambda r: None if r.l_emp == 2 else f"L_emp = {r.l_emp}, expected 2",
              recorded=True) for k in cd_ks]
    ops += [Op(f"{prefix}idelta_classes MCM 2^-{k}",
               lambda k=k: lg.idelta_classes(specs["MCM"], 2.0 ** -k),
               lambda r: None if r.l_emp == len(r.words) else "classes do not cover I_delta",
               recorded=True) for k in mcm_ks]
    return ops


def _ops_chains(specs, epsilons, prefix=""):
    return [Op(f"{prefix}build_epsilon_chain MCM {e}",
               lambda e=e: lg.build_epsilon_chain(specs["MCM"], e),
               lambda r, e=e: None if r.max_step_ratio <= e + 1e-6
               else f"step ratio {r.max_step_ratio} > {e}",
               recorded=True) for e in epsilons]


def _ops_ud(specs, names, prefix=""):
    def check(name):
        want = UD_KIND.get(name)
        return lambda v: None if want is None or v.kind == want else f"verdict {v.kind}, expected {want}"
    return [Op(f"{prefix}check_uniform_disconnectedness {n}",
               lambda n=n: lg.check_uniform_disconnectedness(specs[n]), check(n),
               recorded=True) for n in names]


def _ops_random_mst(rng, counts, prefix=""):
    ops = []
    for k, count in enumerate(counts):
        rects = synth.random_rects(count, seed=rng)
        ops.append(Op(f"{prefix}gap_sequence_mst+bruteforce #{k} n={count}",
                      lambda r=rects: _mst_pair(r), _mst_check))
    return ops


def build_ops(workload: str, specs: dict, seed: int) -> list[Op]:
    """The operations of one pass.  Seeded inputs come from `seed` alone."""
    if workload == "cd_report":
        return [_report_op("CD")]
    if workload == "mcm_report":
        return [_report_op("MCM")]
    rng = np.random.default_rng(seed)
    if workload == "study_mix":
        return (_ops_dims(specs)
                + _ops_ladder(specs, range(2, 10), range(2, 12))
                + _ops_hd(specs, rng, 200)
                + _ops_gap_interval(specs, rng, 100)
                + _ops_classes(specs, range(1, 11), range(1, 10))
                + _ops_chains(specs, (0.5, 0.2, 0.1, 0.05))
                + _ops_ud(specs, SPEC_NAMES)
                + [Op("gap_sequence_of_carpet MCM 2^-8",
                      lambda: lg.gap_sequence_of_carpet(specs["MCM"], 2.0 ** -8),
                      recorded=True)]
                + _ops_random_mst(rng, [2 + 4 * k for k in range(50)]))
    if workload == "smoke":
        p = "smoke: "
        return (_ops_dims({"CD": specs["CD"]}, p)
                + [_report_op("CD", ("--delta-res", "1/81"), p)]
                + _ops_ladder(specs, (3,), (), p)
                + _ops_hd(specs, rng, 1, p)
                + _ops_gap_interval(specs, rng, 1, p)
                + _ops_classes(specs, (2,), (), p)
                + _ops_chains(specs, (0.5,), p)
                + _ops_ud(specs, ("CD", "TOUCHING"), p)
                + [Op(p + "gap_sequence_of_carpet MCM 2^-4",
                      lambda: lg.gap_sequence_of_carpet(specs["MCM"], 2.0 ** -4),
                      recorded=True)]
                + _ops_random_mst(rng, (20,), p))
    raise ValueError(f"unknown workload {workload!r}")
