"""End-to-end CLI runs, in process via main(argv)."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import lgcarpet as lg
from lgcarpet.cli import main
from test_structure import SHORT_TOP_SPEC, THIN_ROW_SPEC

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
CD = str(SPECS / "CD.json")
MCM = str(SPECS / "MCM.json")
MIXED = str(SPECS / "MIXED.json")
TOUCHING = str(SPECS / "TOUCHING.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_spec(self, capsys):
        code, out, _ = run(capsys, ["validate", CD])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"valid": True, "violations": []}

    def test_constraint_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [
            {"b": 0.5, "cells": [{"a": 0.6, "c": 0.0}]},
            {"b": 0.5, "cells": []},
        ]}))
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert any(v["constraint"] == "a_lt_b" for v in payload["violations"])

    def test_missing_file(self, capsys):
        code, out, _ = run(capsys, ["validate", "/no/such/spec.json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"][0]["constraint"] == "schema"

    def test_non_finite_number(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"rows": [{"b": 0.5, "cells": [{"a": NaN, "c": 0}]},'
                       ' {"b": 0.5, "cells": []}]}')
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert "finite" in payload["violations"][0]["message"]

    @pytest.mark.parametrize("row, message", [
        ([0.5, []], "row 1 must be an object"),
        ({"b": 0.5}, "row 1 is missing 'cells'"),
        ({"b": 0.5, "cells": {}}, "row 1: 'cells' must be a list"),
        ({"b": True, "cells": []}, "row 1.b: expected a number, got a boolean"),
    ])
    def test_schema_refusals(self, capsys, tmp_path, row, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [row, {"b": 0.5, "cells": []}]}))
        assert run(capsys, ["dimension", str(bad)]) == (1, "", f"error: SchemaError: {message}\n")

    def test_unparseable_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize("content", [
        b'{"rows": [\xff]}',  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested deeper than the JSON decoder recurses
        b'{"rows": [{"b": %s, "cells": []}]}' % (b"1" * 5000),  # past int's digit limit
    ], ids=["not-utf8", "too-deep", "big-int"])
    def test_unreadable_spec(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"][0]["constraint"] == "schema"
        code, out, err = run(capsys, ["dimension", str(bad)])
        assert (code, out) == (1, "")
        assert err.startswith("error: SchemaError: unreadable spec")
        assert err.count("\n") == 1


class TestDimension:
    def test_matches_library(self, capsys, cd):
        code, out, _ = run(capsys, ["dimension", CD])
        assert code == 0
        payload = json.loads(out)
        res = lg.solve_bdim(cd)
        assert payload["s1"] == pytest.approx(res.s1, abs=1e-12)
        assert payload["s"] == pytest.approx(res.s, abs=1e-12)
        assert set(payload) == {"s1", "s", "residual_s1", "residual_s",
                                "iterations"}

    def test_rejects_invalid_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [
            {"b": 0.5, "cells": [{"a": 0.6, "c": 0.0}]},
            {"b": 0.5, "cells": []},
        ]}))
        code, _, err = run(capsys, ["dimension", str(bad)])
        assert code == 1
        assert "a_lt_b" in err


class TestRender:
    def test_depth_render_to_file(self, capsys, tmp_path):
        out = tmp_path / "cd.svg"
        code, stdout, _ = run(capsys, ["render", CD, "--depth", "2",
                                       "--out", str(out)])
        assert code == 0
        assert stdout == ""
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= 16

    def test_delta_render(self, capsys):
        code, out, _ = run(capsys, ["render", CD, "--delta", "1/9"])
        assert code == 0
        assert out.startswith("<svg")

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run(capsys, ["render", CD])
        assert code == 2
        assert "exactly one" in err
        code, _, _ = run(capsys, ["render", CD, "--depth", "2",
                                  "--delta", "0.1"])
        assert code == 2


class TestCsvCommands:
    def test_boxcount(self, capsys):
        code, out, _ = run(capsys, ["boxcount", CD, "--delta-max", "1/3",
                                    "--delta-min", "1/27", "--steps", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,count"
        assert len(lines) == 5
        deltas = [float(line.split(",")[0]) for line in lines[1:]]
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert deltas == sorted(deltas, reverse=True)
        assert counts == sorted(counts)

    def test_gaps_top(self, capsys):
        code, out, _ = run(capsys, ["gaps", CD, "--delta-res", "1/27",
                                    "--top", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,multiplicity"
        assert len(lines) == 2
        assert lines[1] == "0.5,1"

    def test_fibers_cycles_pattern(self, capsys, mcm):
        code, out, _ = run(capsys, ["fibers", MCM, "--coding", "1,2",
                                    "--depth", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "left,right"
        fiber = lg.fiber_approx(lg.synth.three_map_carpet(), (1, 2, 1, 2))
        assert len(lines) - 1 == len(fiber.intervals)

    def test_chain_points(self, capsys):
        code, out, _ = run(capsys, ["chain", MCM, "--epsilon", "0.5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,x,y"
        assert len(lines) == 7  # n + 1 = 6 points
        assert lines[1].startswith("0,")

    def test_chain_unavailable(self, capsys):
        code, _, err = run(capsys, ["chain", CD, "--epsilon", "0.5"])
        assert code == 1
        assert "ChainUnavailable" in err


def csv_rows(text, *types):
    """The header and the rows of CSV output, each cell parsed by its type."""
    header, *rows = csv.reader(io.StringIO(text))
    return header, [tuple(t(v) for t, v in zip(types, row)) for row in rows]


def json_values(value):
    """A library value as JSON gives it back: tuples become lists."""
    return json.loads(json.dumps(value))


class TestExactOutputs:
    """Each subcommand writes exactly the library's result (floats round-trip)."""

    def test_gaps(self, capsys):
        code, out, _ = run(capsys, ["gaps", CD, "--delta-res", "1/243"])
        assert code == 0
        seq = lg.gap_sequence_of_carpet(lg.load_spec(CD), 1 / 243)
        assert csv_rows(out, float, int) == (["value", "multiplicity"], list(seq.entries))

    def test_gaps_top(self, capsys):
        code, out, _ = run(capsys, ["gaps", MCM, "--delta-res", "1/81", "--top", "3"])
        assert code == 0
        seq = lg.gap_sequence_of_carpet(lg.load_spec(MCM), 1 / 81)
        assert csv_rows(out, float, int)[1] == list(seq.entries[:3])

    def test_boxcount(self, capsys):
        code, out, _ = run(capsys, ["boxcount", CD, "--delta-max", "1/3",
                                    "--delta-min", "1/27", "--steps", "4"])
        assert code == 0
        curve = lg.n_delta_curve(lg.load_spec(CD), 1 / 3, 1 / 27, 4)
        assert csv_rows(out, float, int) == (["delta", "count"], list(curve.samples))

    def test_fibers(self, capsys):
        code, out, _ = run(capsys, ["fibers", MCM, "--coding", "1,2", "--depth", "5"])
        assert code == 0
        fiber = lg.fiber_approx(lg.load_spec(MCM), (1, 2, 1, 2, 1))
        assert csv_rows(out, float, float) == (["left", "right"], list(fiber.intervals))

    def test_chain(self, capsys):
        code, out, _ = run(capsys, ["chain", MCM, "--epsilon", "0.3"])
        assert code == 0
        chain = lg.build_epsilon_chain(lg.load_spec(MCM), 0.3)
        rows = [(k, x, y) for k, (x, y) in enumerate(chain.points)]
        assert csv_rows(out, int, float, float) == (["index", "x", "y"], rows)

    def test_dimension(self, capsys):
        code, out, _ = run(capsys, ["dimension", MCM, "--tol", "1e-9"])
        assert code == 0
        assert json.loads(out) == json_values(asdict(lg.solve_bdim(lg.load_spec(MCM),
                                                                   tol=1e-9)))

    @pytest.mark.parametrize("path", [CD, MCM, MIXED, TOUCHING])
    def test_check_ud(self, capsys, path):
        code, out, _ = run(capsys, ["check-ud", path, "--max-depth", "5"])
        assert code == 0
        verdict = lg.check_uniform_disconnectedness(lg.load_spec(path), max_depth=5)
        assert json.loads(out) == json_values(asdict(verdict))

    def test_scaling(self, capsys):
        code, out, _ = run(capsys, ["scaling", CD, "--delta-res", "1/729"])
        assert code == 0
        spec = lg.load_spec(CD)
        s = lg.solve_bdim(spec).s
        seq = lg.gap_sequence_of_carpet(spec, 1 / 729)
        fit = lg.scaling_fit(seq, s)
        assert json.loads(out) == {
            "slope": fit.slope, "expected_slope": -1.0 / s, "intercept": fit.intercept,
            "r2": fit.r2, "ratio_band": list(fit.ratio_band),
            "gap_count": seq.total_multiplicity, "value_error": seq.value_error}

    @pytest.mark.parametrize("selector, kwargs", [
        (["--depth", "2", "--size", "64"], {"depth": 2, "size": 64}),
        (["--delta", "1/9"], {"delta": 1 / 9}),
    ])
    def test_render(self, capsys, selector, kwargs):
        code, out, _ = run(capsys, ["render", MCM, *selector])
        assert code == 0
        assert out == lg.render_svg(lg.load_spec(MCM), **kwargs)


class TestCrossFlagUsage:
    """The checks spanning two flags are usage errors, made before the spec
    is read: a missing spec still exits 2, not 1."""

    @pytest.mark.parametrize("flags", [[], ["--depth", "2", "--delta", "0.1"]])
    def test_render_selector(self, capsys, flags):
        code, out, err = run(capsys, ["render", "/no/such/spec.json", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: lgcarpet render ")
        assert "lgcarpet render: error: " in err
        assert "exactly one" in err

    @pytest.mark.parametrize("dmax, dmin", [("1/27", "1/3"), ("1/9", "1/9")])
    def test_boxcount_range(self, capsys, dmax, dmin):
        code, out, err = run(capsys, ["boxcount", "/no/such/spec.json", "--delta-max", dmax,
                                      "--delta-min", dmin, "--steps", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: lgcarpet boxcount ")
        assert "lgcarpet boxcount: error: boxcount needs --delta-min < --delta-max" in err


def readme_commands():
    """The `lgcarpet ...` lines of README's "Command line" code block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("lgcarpet ")]


def test_readme_lists_every_subcommand():
    names = {argv[0] for argv in readme_commands()}
    assert names == {"validate", "dimension", "render", "boxcount", "gaps", "scaling",
                     "fibers", "check-ud", "chain", "report"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    argv = [str(ROOT / a) if a.startswith("specs/") else a for a in argv]
    code, _, err = run(capsys, argv)
    assert code == 0, err


class TestScaling:
    def test_keys_and_values(self, capsys, cd):
        code, out, _ = run(capsys, ["scaling", CD, "--delta-res", "1/243"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"slope", "expected_slope", "intercept", "r2",
                                "ratio_band", "gap_count", "value_error"}
        s = lg.solve_bdim(cd).s
        assert payload["expected_slope"] == pytest.approx(-1.0 / s)
        assert payload["slope"] < 0.0

    def test_too_few_gaps_is_an_error(self, capsys):
        code, _, err = run(capsys, ["scaling", CD, "--delta-res", "1/9"])
        assert code == 1
        assert "TooFewGaps" in err


class TestCheckUd:
    def test_certified(self, capsys):
        code, out, _ = run(capsys, ["check-ud", CD])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "CertifiedUD"
        assert payload["quasisymmetric_to_cantor"] is True

    def test_undetermined_is_success(self, capsys):
        code, out, _ = run(capsys, ["check-ud", TOUCHING, "--max-depth", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "Undetermined"
        assert len(payload["evidence"]["bounds_by_depth"]) == 4


class TestReport:
    def test_deterministic_bytes(self, capsys):
        code1, out1, _ = run(capsys, ["report", CD, "--delta-res", "1/27"])
        code2, out2, _ = run(capsys, ["report", CD, "--delta-res", "1/27"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_deterministic_files(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        run(capsys, ["report", CD, "--delta-res", "1/27", "--out", str(out)])
        first = out.read_bytes()
        run(capsys, ["report", CD, "--delta-res", "1/27", "--out", str(out)])
        assert out.read_bytes() == first

    def test_report_shape(self, capsys, cd):
        code, out, _ = run(capsys, ["report", CD, "--delta-res", "1/243"])
        assert code == 0
        payload = json.loads(out)
        assert payload["spec_hash"] == cd.spec_hash
        assert payload["command"] == "report"
        assert payload["dimensions"]["s"] == pytest.approx(lg.solve_bdim(cd).s)
        assert payload["ud"]["kind"] == "CertifiedUD"
        assert payload["quasisymmetric_to_cantor"] is True
        assert payload["gap_scaling"]["gap_count"] >= 10
        assert payload["gap_scaling_skipped"] is None

    def test_mcm_at_defaults(self, capsys):
        # delta_res 1e-3 gives 59049 thin touching rects
        code, out, _ = run(capsys, ["report", MCM])
        assert code == 0
        assert json.loads(out)["ud"]["kind"] == "CertifiedNotUD"

    def test_skips_scaling_when_too_few_gaps(self, capsys):
        code, out, _ = run(capsys, ["report", TOUCHING, "--delta-res", "1/8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gap_scaling"] is None
        assert "TooFewGaps" in payload["gap_scaling_skipped"]
        assert payload["ud"]["kind"] == "Undetermined"

    def test_single_point_skips_scaling(self, capsys, tmp_path):
        # s = 0 and no gaps: the gap fit is skipped before it sees s
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"rows": [{"b": 0.5, "cells": [{"a": 0.25, "c": 0.0}]},
                                             {"b": 0.5, "cells": []}]}))
        code, out, _ = run(capsys, ["report", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["dimensions"]["s"] == 0.0
        assert payload["gap_scaling"] is None
        assert payload["gap_scaling_skipped"].startswith("TooFewGaps")


class TestBudgetAndUsage:
    def test_cylinder_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LG_MAX_CYLINDERS", "10")
        code, _, err = run(capsys, ["gaps", CD, "--delta-res", "1/27"])
        assert code == 1
        assert "BudgetExceeded" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_cylinder_cap_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LG_MAX_CYLINDERS", value)
        code, out, err = run(capsys, ["report", CD])
        assert code == 1
        assert out == ""
        assert err.startswith("error: InvalidSetting: LG_MAX_CYLINDERS")
        assert err.count("\n") == 1
        # fibers checks its depth against the cap before it builds the coding
        code, out, err = run(capsys, ["fibers", MCM, "--coding", "1", "--depth", "1"])
        assert (code, out) == (1, "")
        assert err == f"error: InvalidSetting: LG_MAX_CYLINDERS must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("argv", [
        ["boxcount", CD, "--delta-max", "0.5", "--delta-min", "1e-3", "--steps", "1000000000"],
        ["fibers", MCM, "--coding", "1", "--depth", "1000000000"],
        ["chain", MCM, "--epsilon", "1e-9"],
    ])
    def test_count_over_cap_fails_closed(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("LG_MAX_CYLINDERS", raising=False)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: BudgetExceeded: " + {
            "boxcount": "box-count curve: 1000000000 steps",
            "fibers": "fibers: depth 1000000000",
            "chain": "epsilon chain: 2000000002 points",
        }[argv[0]] + " exceeds cap 10000000\n"

    @pytest.mark.parametrize("epsilon", ["1e-310", "5e-324"])
    def test_chain_at_tiny_epsilon_refused(self, capsys, monkeypatch, epsilon):
        # 2 / epsilon overflows to inf, which the cap refuses in one line
        monkeypatch.delenv("LG_MAX_CYLINDERS", raising=False)
        code, out, err = run(capsys, ["chain", MCM, "--epsilon", epsilon])
        assert (code, out) == (1, "")
        assert err == "error: BudgetExceeded: epsilon chain: inf points exceeds cap 10000000\n"

    def test_check_ud_chain_under_cap(self, capsys, monkeypatch):
        # with no empty row, check-ud builds a 22-point chain
        monkeypatch.setenv("LG_MAX_CYLINDERS", "22")
        assert run(capsys, ["check-ud", MCM])[0] == 0
        monkeypatch.setenv("LG_MAX_CYLINDERS", "21")
        code, _, err = run(capsys, ["check-ud", MCM])
        assert code == 1
        assert err == "error: BudgetExceeded: epsilon chain: 22 points exceeds cap 21\n"

    def test_removed_depth_pad_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["chain", MCM, "--epsilon", "0.5", "--depth-pad", "20"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: lgcarpet chain ")
        assert "lgcarpet chain: error: unrecognized arguments: --depth-pad 20" in err

    def test_chain_on_strip_thinner_than_tolerance(self, capsys, tmp_path):
        # y_codings meets three strips at y = 1/2; the chain follows the first
        path = tmp_path / "thin.json"
        path.write_text(THIN_ROW_SPEC)
        code, out, err = run(capsys, ["chain", str(path), "--epsilon", "0.4"])
        assert (code, err) == (0, "")
        chain = lg.build_epsilon_chain(lg.load_spec(path), 0.4)
        rows = [(k, x, y) for k, (x, y) in enumerate(chain.points)]
        assert csv_rows(out, int, float, float) == (["index", "x", "y"], rows)
        assert len(rows) == 7

    @pytest.mark.parametrize("command", ["check-ud", "report"])
    @pytest.mark.parametrize("top_width, error", [
        ("0.48", "VerificationFailed: chain endpoints coincide"),
        ("0.4999999999", "BudgetExceeded: epsilon chain: word T longer than cap"),
    ])
    def test_chain_refusals(self, capsys, tmp_path, command, top_width, error):
        # word T is 74 digits long and shrinks every chain point onto one
        # float point; or it would be about 1.5e10 digits long
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rows": [
            {"b": "1/2", "cells": [{"a": "1/4", "c": "0"}]},
            {"b": "1/2", "cells": [{"a": top_width, "c": "1/2"}]}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["check-ud"], ["report"], ["chain", "--epsilon", "0.5"]])
    def test_heights_summing_short_of_one(self, capsys, tmp_path, argv):
        # y = 1 lies above the top strip's computed edge from level 17 on
        path = tmp_path / "short_top.json"
        path.write_text(SHORT_TOP_SPEC)
        start = time.perf_counter()
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        if argv[0] == "chain":
            chain = lg.build_epsilon_chain(lg.load_spec(path), 0.5)
            assert csv_rows(out, int, float, float) == (
                ["index", "x", "y"], [(k, x, y) for k, (x, y) in enumerate(chain.points)])
        else:
            payload = json.loads(out)
            assert payload.get("ud", payload)["kind"] == "CertifiedNotUD"

    def test_one_cell_per_row_dimension(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rows": [
            {"b": b, "cells": [{"a": a, "c": "0"}]}
            for b, a in [("0.7", "0.5"), ("0.2", "0.1"), ("0.1", "0.05")]]}))
        code, out, err = run(capsys, ["dimension", str(path)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["s"] == payload["s1"] == 1.0

    def test_no_command(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate", CD])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gaps", CD, "--delta-res", "0"],
        ["gaps", CD, "--delta-res", "1/0"],
        ["report", CD, "--delta-res", "nan"],
        ["boxcount", CD, "--delta-max", "1/3", "--delta-min", "1/27", "--steps", "1"],
        ["boxcount", CD, "--delta-max", "1/27", "--delta-min", "1/3", "--steps", "3"],
        ["check-ud", CD, "--max-depth", "0"],
        ["chain", MCM, "--epsilon", "2"],
        ["render", CD, "--delta", "0"],
        ["fibers", MCM, "--coding", "1,2", "--depth", "0"],
    ])
    def test_bad_parameter_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("value", ["1e-999999999", "1e999999999"])
    def test_huge_exponent_is_quick_usage_error(self, capsys, value):
        start = time.perf_counter()
        code, _, err = run(capsys, ["gaps", CD, "--delta-res", value])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"argument --delta-res: {value!r} is not a number in (0, 1]" in err

    def test_out_file_silences_stdout(self, capsys, tmp_path):
        out = tmp_path / "dim.json"
        code, stdout, _ = run(capsys, ["dimension", CD, "--out", str(out)])
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["s"] > 1.0


def test_module_entry_point():
    src = str(Path(lg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "lgcarpet.cli", "validate", CD],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_report_never_imports_numpy_ma(tmp_path):
    # importing numpy.ma costs ~15 ms, and a plain np.unique call imports it
    src = str(Path(lg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    check = ("import sys, numpy; print('numpy.ma' in sys.modules); "
             "from lgcarpet import cli; cli.main(['report', sys.argv[1], '--out', sys.argv[2]]); "
             "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", check, CD, str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded_by_numpy, loaded_by_report = proc.stdout.split()
    if loaded_by_numpy == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert loaded_by_report == "False"
    assert json.loads((tmp_path / "report.json").read_text())["gap_scaling"]
