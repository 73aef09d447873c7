"""Command-line surface tying the library into reproducible runs.

Subcommands: validate, dimension, render, boxcount, gaps, scaling, fibers,
check-ud, chain, report.  Outputs go to --out when given, else to stdout.
Exit codes: 0 success (Undetermined verdicts are success), 1 domain errors,
2 usage errors.  The environment variable LG_MAX_CYLINDERS overrides the
cylinder enumeration cap; it must be an integer >= 1.

Reports never embed wall-clock timings so that two runs on the same input
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .approx import n_delta_curve, render_svg
from .carpet import CarpetSpec, load_spec, validate
from .dimension import BISECT_TOL, solve_bdim
from .disconnect import DEFAULT_MAX_DEPTH, build_epsilon_chain, check_uniform_disconnectedness
from .errors import BudgetExceeded, CarpetError, SchemaError, TooFewGaps
from .gaps import gap_sequence_of_carpet, scaling_fit
from .structure import fiber_approx


def _number(text: str) -> float:
    """Accept plain floats ('1e-3', '0.25') and rational strings ('1/27')."""
    try:
        return float(text)
    except ValueError:
        return float(Fraction(text))


def _checked(parse, ok, what: str):
    """Argparse type: parse the text and refuse values outside the domain.

    A refused value makes argparse print the usage message and exit 2.
    """
    def convert(text: str):
        try:
            value = parse(text)
            valid = ok(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


_unit = _checked(_number, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_open_unit = _checked(_number, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_positive = _checked(_number, lambda v: 0.0 < v < float("inf"), "a positive number")


def _int_from(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _coding(text: str) -> tuple[int, ...]:
    parts = tuple(int(p) for p in text.split(","))
    if not parts:
        raise ValueError("empty coding")
    return parts


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def write_csv(out: str | None, header: list[str], rows) -> None:
    write_text(out, csv_text(header, rows))


def write_json(out: str | None, payload) -> None:
    write_text(out, json.dumps(payload, indent=2) + "\n")


def _load_valid(path: str) -> CarpetSpec:
    """Load a spec and refuse to proceed when it violates the constraints."""
    spec = load_spec(path)
    violations = validate(spec)
    if violations:
        summary = "; ".join(f"{v.constraint} at {v.where}" for v in violations)
        raise SchemaError(f"invalid spec {path}: {summary}")
    return spec


def _cmd_validate(args) -> int:
    try:
        spec = load_spec(args.spec)
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        payload = {"valid": False, "violations": [
            {"constraint": "schema", "where": args.spec, "message": str(exc)}]}
        write_json(args.out, payload)
        return 1
    violations = validate(spec)
    payload = {"valid": not violations,
               "violations": [asdict(v) for v in violations]}
    write_json(args.out, payload)
    return 0 if not violations else 1


def _cmd_dimension(args) -> int:
    spec = _load_valid(args.spec)
    res = solve_bdim(spec, tol=args.tol)
    write_json(args.out, asdict(res))
    return 0


def _cmd_render(args) -> int:
    if (args.depth is None) == (args.delta is None):
        print("error: render needs exactly one of --depth or --delta",
              file=sys.stderr)
        return 2
    spec = _load_valid(args.spec)
    svg = render_svg(spec, depth=args.depth, delta=args.delta, size=args.size)
    write_text(args.out, svg)
    return 0


def _cmd_boxcount(args) -> int:
    if not args.delta_min < args.delta_max:
        print("error: boxcount needs --delta-min < --delta-max", file=sys.stderr)
        return 2
    spec = _load_valid(args.spec)
    curve = n_delta_curve(spec, args.delta_max, args.delta_min, args.steps)
    write_csv(args.out, ["delta", "count"], curve.samples)
    return 0


def _cmd_gaps(args) -> int:
    spec = _load_valid(args.spec)
    seq = gap_sequence_of_carpet(spec, args.delta_res)
    entries = seq.entries if args.top is None else seq.entries[:args.top]
    write_csv(args.out, ["value", "multiplicity"], entries)
    return 0


def _gap_scaling(spec: CarpetSpec, delta_res: float, s: float) -> dict:
    seq = gap_sequence_of_carpet(spec, delta_res)
    fit = scaling_fit(seq, s)
    return {
        "slope": fit.slope,
        "expected_slope": -1.0 / s,
        "intercept": fit.intercept,
        "r2": fit.r2,
        "ratio_band": list(fit.ratio_band),
        "gap_count": seq.total_multiplicity,
        "value_error": seq.value_error,
    }


def _cmd_scaling(args) -> int:
    spec = _load_valid(args.spec)
    write_json(args.out, _gap_scaling(spec, args.delta_res, solve_bdim(spec).s))
    return 0


def _cmd_fibers(args) -> int:
    spec = _load_valid(args.spec)
    pattern = args.coding
    coding = tuple(pattern[k % len(pattern)] for k in range(args.depth))
    fiber = fiber_approx(spec, coding)
    write_csv(args.out, ["left", "right"], fiber.intervals)
    return 0


def _cmd_check_ud(args) -> int:
    spec = _load_valid(args.spec)
    verdict = check_uniform_disconnectedness(spec, max_depth=args.max_depth)
    write_json(args.out, asdict(verdict))
    return 0


def _cmd_chain(args) -> int:
    spec = _load_valid(args.spec)
    chain = build_epsilon_chain(spec, args.epsilon, depth_pad=args.depth_pad)
    rows = [(k, x, y) for k, (x, y) in enumerate(chain.points)]
    write_csv(args.out, ["index", "x", "y"], rows)
    return 0


def _cmd_report(args) -> int:
    spec = _load_valid(args.spec)
    res = solve_bdim(spec, tol=args.tol)
    verdict = check_uniform_disconnectedness(spec, max_depth=args.max_depth)
    gap_scaling = None
    skipped = None
    try:
        gap_scaling = {"delta_res": args.delta_res,
                       **_gap_scaling(spec, args.delta_res, res.s)}
    except (TooFewGaps, BudgetExceeded) as exc:
        skipped = f"{type(exc).__name__}: {exc}"
    write_json(args.out, {
        "spec_hash": spec.spec_hash,
        "command": "report",
        "parameters": {"delta_res": args.delta_res, "max_depth": args.max_depth,
                       "tol": args.tol},
        "dimensions": asdict(res),
        "ud": {"kind": verdict.kind, "evidence": verdict.evidence,
               "depth_used": verdict.depth_used,
               "diameter_bound": verdict.diameter_bound},
        "quasisymmetric_to_cantor": verdict.quasisymmetric_to_cantor,
        "gap_scaling": gap_scaling,
        "gap_scaling_skipped": skipped,
        "outputs": [args.out] if args.out else [],
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcarpet",
        description="Self-affine carpet toolkit: dimensions, gap sequences, "
                    "and uniform-disconnectedness certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a carpet spec JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a spec against all constraints")

    p = add("dimension", _cmd_dimension, "solve for s1 and the box dimension")
    p.add_argument("--tol", type=_positive, default=BISECT_TOL)

    p = add("render", _cmd_render, "draw cylinder rectangles as SVG")
    p.add_argument("--depth", type=_int_from(0), default=None)
    p.add_argument("--delta", type=_unit, default=None)
    p.add_argument("--size", type=_int_from(1), default=512)

    p = add("boxcount", _cmd_boxcount, "covering-number curve as CSV")
    p.add_argument("--delta-max", type=_unit, required=True)
    p.add_argument("--delta-min", type=_unit, required=True)
    p.add_argument("--steps", type=_int_from(2), required=True)

    p = add("gaps", _cmd_gaps, "gap sequence of the delta-approximation")
    p.add_argument("--delta-res", type=_unit, required=True)
    p.add_argument("--top", type=_int_from(0), default=None)

    p = add("scaling", _cmd_scaling, "fit gap values against k**(-1/s)")
    p.add_argument("--delta-res", type=_unit, required=True)

    p = add("fibers", _cmd_fibers, "interval approximation of a fiber set")
    p.add_argument("--coding", type=_coding, required=True,
                   help="comma-separated row indices, cycled to --depth")
    p.add_argument("--depth", type=_int_from(1), default=6)

    p = add("check-ud", _cmd_check_ud, "uniform-disconnectedness verdict")
    p.add_argument("--max-depth", type=_int_from(1), default=DEFAULT_MAX_DEPTH)

    p = add("chain", _cmd_chain, "epsilon-chain between two attractor points")
    p.add_argument("--epsilon", type=_open_unit, required=True)
    p.add_argument("--depth-pad", type=_int_from(1), default=40)

    p = add("report", _cmd_report, "combined dimensions/UD/gap-scaling JSON")
    p.add_argument("--delta-res", type=_unit, default=1e-3)
    p.add_argument("--max-depth", type=_int_from(1), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--tol", type=_positive, default=BISECT_TOL)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CarpetError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
