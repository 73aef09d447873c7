"""Benchmark of lgcarpet: end-to-end metrics per workload, per-layer when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload cd_report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record

Workloads: cd_report, mcm_report, study_mix, smoke (tiny, for the harness
test) and all (the first three).  Load is a closed loop: one client runs
passes one after another, each pass in a fresh child process (worker.py)
with BLAS/OpenMP threads pinned to 1, an address-space limit and a
per-operation time limit, so a runaway allocation or a hang is a failed
operation and not a dead machine.  A new pass starts while a typical pass
still ends within --seconds, and at least MIN_PASSES run so outputs can be
compared across passes.

End-to-end metrics (--trace 0):
  setup_s      median over child processes of the time from spawn to ready:
               interpreter start, `import lgcarpet`, loading and validating
               the workload's specs.
  run_s        median pass time over passes whose every operation succeeded
               and passed its checks.  A pass time is the sum of its
               operations' wall times; output checks run between operations,
               outside the timed calls.
  peak_rss_mb  median over passes of the child's peak resident memory.
A workload with no clean pass reports fail_frac instead of run_s.

With --trace 1, even passes are traced and odd passes run untraced, and the
per-layer metrics (see spans.py) are means over the traced passes.  Spans
are written to perfbench/out/.  Every run prints a human summary, a
{"meta": ...} line of metadata (sizes, versions, seed, failures), and last
the result object.  --record rewrites perfbench/expected.json, the
fingerprints of every operation that takes no seeded input.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fingerprint
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"

REPORT_WORKLOADS = ("cd_report", "mcm_report", "study_mix")
RECORD_WORKLOADS = ("smoke", "cd_report", "study_mix")

SETUP_CHILDREN = 9
MIN_PASSES = 2
AS_LIMIT_BYTES = 4 << 30  # well below the 7 GiB the machine has
OP_LIMIT_S = 60.0
PASS_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0  # a workload's children all end within this, so a run stays under 180 s
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}

PER_LAYER = (spans.TIME_METRICS + spans.COUNT_METRICS
             + ["gaps.kept_frac", "traced_run_s", "trace_overhead_frac"])


class SetupFailed(Exception):
    pass


def _child(job: dict, deadline: float) -> dict:
    """Run worker.py once, killing it at PASS_LIMIT_S or `deadline`; collect its JSON lines."""
    timeout = max(0.1, min(PASS_LIMIT_S, deadline - time.monotonic()))
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    job = dict(job, as_limit_bytes=AS_LIMIT_BYTES, op_limit_s=OP_LIMIT_S,
               spawn_t=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        problem = None if proc.returncode == 0 else f"worker exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = f"time limit of {timeout:.1f} s"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            break  # the child died while writing
    head = lines[0] if lines and "setup_s" in lines[0] else None
    final = lines[-1] if lines and "peak_rss_mb" in lines[-1] else None
    return {"head": head, "ops": [x for x in lines if "op" in x], "final": final,
            "problem": problem, "stderr": err[-2000:], "traced": job.get("traced", False)}


def _collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    base = {"workload": workload, "seed": seed}
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_CHILDREN):
        child = _child(dict(base, mode="setup"), deadline)
        if child["head"] is None:
            raise SetupFailed(f"{workload}: set-up failed ({child['problem']})\n{child['stderr']}")
        setups.append(child["head"])
    passes, walls = [], []
    end = min(time.monotonic() + seconds, deadline)
    # Start another pass only while a typical one still ends within --seconds.
    while len(passes) < MIN_PASSES or time.monotonic() + statistics.median(walls) <= end:
        traced = trace and len(passes) % 2 == 0
        t0 = time.monotonic()
        passes.append(_child(dict(base, mode="pass", pass_id=len(passes), traced=traced),
                             deadline))
        walls.append(time.monotonic() - t0)
    return setups, passes


def _pass_time(child: dict) -> float:
    if child["traced"]:  # the op spans' own clock, so self times sum to it exactly
        return sum(s[2] - s[1] for s in child["final"]["spans"] if s[0] == spans.OP_SPAN)
    return sum(row["dt"] for row in child["ops"])


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": sorted(samples)[n - 11]}


def _judge(passes: list, expected: dict, record: bool):
    """Apply the cross-pass and recorded-fingerprint checks; count failures."""
    first_fp: dict[str, dict] = {}
    recorded: dict[str, dict] = {}  # first fingerprint of each seed-free operation
    failures: collections.Counter = collections.Counter()
    attempted = failed = 0
    clean = []
    for child in passes:
        ok = child["final"] is not None and bool(child["ops"])
        for row in child["ops"]:
            attempted += 1
            error = row.get("error")
            if row["ok"]:
                fp = row["fp"]
                if row["recorded"]:
                    recorded.setdefault(row["op"], fp)
                if fp != first_fp.setdefault(row["op"], fp):
                    error = "output differs from an earlier pass"
                elif row["recorded"] and not record:
                    want = expected.get(row["op"])
                    if want is None:
                        error = "no recorded fingerprint"
                    elif not fingerprint.matches(fp, want):
                        error = "output differs from the recorded fingerprint"
            if error:
                failed += 1
                failures[f"{row['op']}: {error}"] += 1
                ok = False
        if child["final"] is None:
            attempted += 1
            failed += 1
            failures[f"pass ended early: {child['problem']}"] += 1
        clean.append(ok)
    return attempted, failed, failures, clean, recorded


def _layer_means(traced: list, untraced_run_s: list[float]) -> dict[str, float]:
    rows = []
    for child in traced:
        row = spans.layer_metrics(child["final"]["spans"])
        row.update({k: child["final"]["counts"].get(k, 0) for k in spans.COUNT_METRICS})
        row["traced_run_s"] = _pass_time(child)
        rows.append(row)
    out = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    out["trace_overhead_frac"] = (out["traced_run_s"] / statistics.median(untraced_run_s) - 1.0
                                  if untraced_run_s else 0.0)
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _write_trace(workload: str, seed: int, traced: list) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for child in traced:
            for k, (name, start, end, parent, pass_id, counts) in enumerate(child["final"]["spans"]):
                fh.write(json.dumps({"pass": pass_id, "id": k, "parent": parent, "name": name,
                                     "start": start, "end": end, "counts": counts}) + "\n")
    return str(path.relative_to(ROOT))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict, record: bool = False) -> dict:
    setups, passes = _collect(workload, seed, seconds, trace)
    attempted, failed, failures, clean, fps = _judge(passes, expected, record)
    setup_samples = [h["setup_s"] for h in setups] + [c["head"]["setup_s"] for c in passes if c["head"]]
    done = [c for c in passes if c["final"] is not None]
    untraced_clean = [_pass_time(c) for c, ok in zip(passes, clean) if ok and not c["traced"]]
    metrics = {"setup_s": statistics.median(setup_samples)}
    if untraced_clean:
        metrics["run_s"] = statistics.median(untraced_clean)
    else:
        metrics["fail_frac"] = failed / attempted
    if done:
        metrics["peak_rss_mb"] = statistics.median(c["final"]["peak_rss_mb"] for c in done)
    traced = [c for c in done if c["traced"]]
    layers = _layer_means(traced, untraced_clean) if traced else {}
    recorded_bytes = {op: fp["bytes_sha256"] == expected.get(op, {}).get("bytes_sha256")
                      for op, fp in fps.items() if "bytes_sha256" in fp}
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "clean_passes": sum(clean),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": dict(failures.most_common(10)),
        "run_s_samples": untraced_clean, "run_s_tail": _tail(untraced_clean),
        "setup_s_samples": setup_samples,
        "peak_rss_mb_samples": [c["final"]["peak_rss_mb"] for c in done],
        "input_sizes": done[0]["final"]["counts"] if done else {},
        "report_bytes_as_recorded": recorded_bytes,
        "numpy": setups[0].get("numpy"),
        "trace_file": _write_trace(workload, seed, traced) if traced else None,
    }
    return {"metrics": metrics, "layers": layers, "meta": meta, "fingerprints": fps,
            "correct": failed == 0 and bool(untraced_clean)}


def _environment() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():  # a checkout without git may sit inside another repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV, "as_limit_bytes": AS_LIMIT_BYTES,
            "op_limit_s": OP_LIMIT_S, "pass_limit_s": PASS_LIMIT_S, "run_limit_s": RUN_LIMIT_S,
            "load": "closed loop, one client, passes run one after another"}


def _summary(workload: str, res: dict) -> str:
    m, meta = res["metrics"], res["meta"]
    run = (f"run_s {m['run_s']:.4f} s (median of {len(meta['run_s_samples'])} clean passes"
           + (f", p{meta['run_s_tail']['percentile']} {meta['run_s_tail']['value']:.4f} s)"
              if meta["run_s_tail"] else "; tail needs >= 11)")
           if "run_s" in m else "run_s n/a (no clean pass)")
    rss = f"{m['peak_rss_mb']:.1f} MB" if "peak_rss_mb" in m else "n/a"
    checks = "all checks passed" if not meta["failures"] else \
        "failures: " + "; ".join(meta["failures"])
    return (f"{workload}: setup_s {m['setup_s']:.4f} s | {run} | fail_frac "
            f"{meta['failed']}/{meta['attempted']} = {meta['fail_frac']:.4g} | "
            f"peak_rss_mb {rss} | {checks}")


def _record() -> int:
    fps = {}
    for workload in RECORD_WORKLOADS:
        res = run_workload(workload, 0, 0.0, False, {}, record=True)
        print(_summary(workload, res))
        if res["meta"]["failed"]:
            print("not recorded: a recorded workload must pass its checks", file=sys.stderr)
            return 1
        fps.update(res["fingerprints"])
    EXPECTED.write_text(json.dumps(fps, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fps)} fingerprints to {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=REPORT_WORKLOADS + ("smoke", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lgcarpet" / "__init__.py").is_file():
        print(f"error: no lgcarpet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return _record()
    if args.workload is None:
        parser.error("--workload is required")
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; run with --record", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    names = REPORT_WORKLOADS if args.workload == "all" else (args.workload,)
    env = _environment()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(_summary(name, res))
        print(json.dumps({"meta": dict(res["meta"], **env)}))
    if args.trace:
        pick = {n: {k: res["layers"].get(k, 0.0) for k in PER_LAYER} for n, res in results.items()}
    else:
        pick = {n: res["metrics"] for n, res in results.items()}
    if len(names) == 1:
        metrics = pick[names[0]]
    else:
        metrics = {f"{n}.{k}": v for n, vals in pick.items() for k, v in vals.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["meta"]["attempted"] for r in results.values()),
        "failed": sum(r["meta"]["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
