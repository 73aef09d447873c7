"""End-to-end CLI runs, in process via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgcarpet as lg
from lgcarpet.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"
CD = str(SPECS / "CD.json")
MCM = str(SPECS / "MCM.json")
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

    def test_unparseable_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert json.loads(out)["valid"] is False


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
