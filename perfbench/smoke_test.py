"""Fast test of the benchmark harness itself (about 10 s).

    python3 -m pytest -q perfbench/smoke_test.py

The smoke workload runs one operation of each kind at tiny sizes, with every
output check on, through the same child processes as the real workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fingerprint  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def test_smoke_end_to_end():
    result, meta = _run(0)
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] == 2 * 11  # two passes of eleven operations
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["seed"] == 7 and meta["src_lines"] > 0 and meta["nproc"] >= 1
    assert meta["input_sizes"]["carpet.cylinders"] > 0


def test_smoke_traced_self_times_add_up():
    result, meta = _run(1)
    assert result["correct"], meta["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    self_sum = sum(metrics[k] for k in spans.TIME_METRICS)
    assert abs(self_sum - metrics["traced_run_s"]) <= 1e-9 * max(1.0, self_sum)
    assert metrics["carpet.cylinders"] > 0 and metrics["gaps.mst_edges"] > 0
    assert 0.0 < metrics["gaps.kept_frac"] <= 1.0
    assert meta["trace_file"] and (HERE.parent / meta["trace_file"]).is_file()


def test_fingerprint_mismatch_is_detected():
    base = fingerprint.of({"kind": "CertifiedUD", "gaps": [(1 / 3, 2), (1 / 9, 4)]})
    close = fingerprint.of({"kind": "CertifiedUD", "gaps": [(1 / 3 + 1e-17, 2), (1 / 9, 4)]})
    kind = fingerprint.of({"kind": "Undetermined", "gaps": [(1 / 3, 2), (1 / 9, 4)]})
    count = fingerprint.of({"kind": "CertifiedUD", "gaps": [(1 / 3, 2), (1 / 9, 5)]})
    value = fingerprint.of({"kind": "CertifiedUD", "gaps": [(0.3334, 2), (1 / 9, 4)]})
    assert fingerprint.matches(close, base)
    assert not any(fingerprint.matches(fp, base) for fp in (kind, count, value))
