"""Command-line surface tying the library into reproducible runs.

Subcommands: validate, dimension, render, boxcount, gaps, scaling, fibers,
check-ud, chain, report.  Each but validate maps the validated spec and the
parsed arguments to its result: SVG text, a (header, rows) table or a
JSON-ready dict.  `main` is the one command path: it parses, loads and
validates the spec once, writes the result to --out or stdout (tables as CSV
with floats by repr, dicts as JSON with indent 2), and maps domain errors to
exit 1.  validate puts load failures and violations in its JSON payload
instead, and exits 1 when there are any.

Exit codes: 0 success (Undetermined verdicts are success); 1 domain errors,
with one `error: <type>: <message>` line on stderr; 2 usage errors, the
cross-flag ones included, with the subcommand's usage line and then
`lgcarpet <subcommand>: error: <message>` on stderr, before any spec is read.
LG_MAX_CYLINDERS, an integer >= 1, is the one budget of the library and of
every subcommand, the fibers --depth included.  Reports never embed wall-clock
timings, so two runs on the same input produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .approx import n_delta_curve, render_svg
from .carpet import CarpetSpec, _budget, _real, load_spec, validate
from .dimension import BISECT_TOL, solve_bdim
from .disconnect import DEFAULT_MAX_DEPTH, build_epsilon_chain, check_uniform_disconnectedness
from .errors import BudgetExceeded, CarpetError, SchemaError, TooFewGaps
from .gaps import gap_sequence_of_carpet, scaling_fit
from .structure import fiber_approx


def _checked(parse, ok, what: str):
    """Argparse type: parse the text and refuse values outside the domain.

    A refused value makes argparse print the usage message and exit 2.
    """
    def convert(text: str):
        try:
            value = parse(text)
            valid = ok(value)
        except (ValueError, ZeroDivisionError):
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


_unit = _checked(_real, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_open_unit = _checked(_real, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_positive = _checked(_real, lambda v: 0.0 < v < float("inf"), "a positive number")


def _int_from(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _coding(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _validate(path: str) -> tuple[dict, int]:
    """The validate payload and exit code; a spec that fails to load is invalid."""
    try:
        violations = [asdict(v) for v in validate(load_spec(path))]
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        violations = [{"constraint": "schema", "where": path, "message": str(exc)}]
    return {"valid": not violations, "violations": violations}, 1 if violations else 0


def _dimension(spec: CarpetSpec, args) -> dict:
    return asdict(solve_bdim(spec, tol=args.tol))


def _render(spec: CarpetSpec, args) -> str:
    return render_svg(spec, depth=args.depth, delta=args.delta, size=args.size)


def _boxcount(spec: CarpetSpec, args) -> tuple:
    curve = n_delta_curve(spec, args.delta_max, args.delta_min, args.steps)
    return ["delta", "count"], curve.samples


def _gaps(spec: CarpetSpec, args) -> tuple:
    entries = gap_sequence_of_carpet(spec, args.delta_res).entries
    return ["value", "multiplicity"], entries if args.top is None else entries[:args.top]


def _gap_scaling(spec: CarpetSpec, delta_res: float, s: float) -> dict:
    seq = gap_sequence_of_carpet(spec, delta_res)
    fit = scaling_fit(seq, s)
    return {"slope": fit.slope, "expected_slope": -1.0 / s, "intercept": fit.intercept,
            "r2": fit.r2, "ratio_band": list(fit.ratio_band),
            "gap_count": seq.total_multiplicity, "value_error": seq.value_error}


def _scaling(spec: CarpetSpec, args) -> dict:
    return _gap_scaling(spec, args.delta_res, solve_bdim(spec).s)


def _fibers(spec: CarpetSpec, args) -> tuple:
    _budget(args.depth, f"fibers: depth {args.depth}")  # before the cycled coding is built
    coding = tuple(args.coding[k % len(args.coding)] for k in range(args.depth))
    return ["left", "right"], fiber_approx(spec, coding).intervals


def _check_ud(spec: CarpetSpec, args) -> dict:
    return asdict(check_uniform_disconnectedness(spec, max_depth=args.max_depth))


def _chain(spec: CarpetSpec, args) -> tuple:
    chain = build_epsilon_chain(spec, args.epsilon)
    return ["index", "x", "y"], [(k, x, y) for k, (x, y) in enumerate(chain.points)]


def _report(spec: CarpetSpec, args) -> dict:
    res = solve_bdim(spec, tol=args.tol)
    ud = asdict(check_uniform_disconnectedness(spec, max_depth=args.max_depth))
    gap_scaling = skipped = None
    try:
        gap_scaling = {"delta_res": args.delta_res,
                       **_gap_scaling(spec, args.delta_res, res.s)}
    except (TooFewGaps, BudgetExceeded) as exc:
        skipped = f"{type(exc).__name__}: {exc}"
    return {
        "spec_hash": spec.spec_hash, "command": "report",
        "parameters": {"delta_res": args.delta_res, "max_depth": args.max_depth,
                       "tol": args.tol},
        "dimensions": asdict(res),
        "ud": ud, "quasisymmetric_to_cantor": ud.pop("quasisymmetric_to_cantor"),
        "gap_scaling": gap_scaling, "gap_scaling_skipped": skipped,
        "outputs": [args.out] if args.out else [],
    }


def _write(out: str | None, result) -> None:
    """Write text as it is, a (header, rows) table as CSV, a dict as JSON."""
    if isinstance(result, tuple):
        header, rows = result
        result = "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                         + "\n" for row in (header, *rows))
    elif isinstance(result, dict):
        result = json.dumps(result, indent=2) + "\n"
    if out is None:
        sys.stdout.write(result)
    else:
        Path(out).write_text(result, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcarpet",
        description="Self-affine carpet toolkit: dimensions, gap sequences, "
                    "and uniform-disconnectedness certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a carpet spec JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(run=run, usage=p)
        return p

    add("validate", None, "check a spec against all constraints")

    p = add("dimension", _dimension, "solve for s1 and the box dimension")
    p.add_argument("--tol", type=_positive, default=BISECT_TOL)

    p = add("render", _render, "draw cylinder rectangles as SVG")
    p.add_argument("--depth", type=_int_from(0), default=None)
    p.add_argument("--delta", type=_unit, default=None)
    p.add_argument("--size", type=_int_from(1), default=512)

    p = add("boxcount", _boxcount, "covering-number curve as CSV")
    p.add_argument("--delta-max", type=_unit, required=True)
    p.add_argument("--delta-min", type=_unit, required=True)
    p.add_argument("--steps", type=_int_from(2), required=True)

    p = add("gaps", _gaps, "gap sequence of the delta-approximation")
    p.add_argument("--delta-res", type=_unit, required=True)
    p.add_argument("--top", type=_int_from(0), default=None)

    p = add("scaling", _scaling, "fit gap values against k**(-1/s)")
    p.add_argument("--delta-res", type=_unit, required=True)

    p = add("fibers", _fibers, "interval approximation of a fiber set")
    p.add_argument("--coding", type=_coding, required=True,
                   help="comma-separated row indices, cycled to --depth")
    p.add_argument("--depth", type=_int_from(1), default=6)

    p = add("check-ud", _check_ud, "uniform-disconnectedness verdict")
    p.add_argument("--max-depth", type=_int_from(1), default=DEFAULT_MAX_DEPTH)

    p = add("chain", _chain, "epsilon-chain between two attractor points")
    p.add_argument("--epsilon", type=_open_unit, required=True)

    p = add("report", _report, "combined dimensions/UD/gap-scaling JSON")
    p.add_argument("--delta-res", type=_unit, default=1e-3)
    p.add_argument("--max-depth", type=_int_from(1), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--tol", type=_positive, default=BISECT_TOL)

    return parser


def main(argv=None) -> int:
    try:  # argparse prints the usage message itself and exits
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.usage.error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command == "render" and (args.depth is None) == (args.delta is None):
            args.usage.error("render needs exactly one of --depth or --delta")
        if args.command == "boxcount" and not args.delta_min < args.delta_max:
            args.usage.error("boxcount needs --delta-min < --delta-max")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            result, code = _validate(args.spec)
        else:  # the spec is loaded once and must satisfy every constraint
            spec = load_spec(args.spec)
            violations = validate(spec)
            if violations:
                summary = "; ".join(f"{v.constraint} at {v.where}" for v in violations)
                raise SchemaError(f"invalid spec {args.spec}: {summary}")
            result, code = args.run(spec, args), 0
        _write(args.out, result)
        return code
    except (CarpetError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
