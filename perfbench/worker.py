"""One benchmark child process: set up, then (in pass mode) run one pass.

Usage (from the repository root; run.py starts it):
    python3 perfbench/worker.py '<job JSON>'

The job holds the workload, seed, mode ("setup" or "pass"), pass id, whether
to trace, the address-space limit, the per-operation time limit and the
parent's CLOCK_MONOTONIC reading taken just before the spawn.  The child
writes JSON lines to stdout: one set-up line, one line per operation, and a
final line with peak memory, counters and spans.  Lines stream as the pass
goes, so a crash still leaves the results of the operations before it.
"""

import hashlib
import json
import resource
import signal
import sys
import time

import fingerprint
import spans


class OpTimeout(Exception):
    """An operation ran past the per-operation time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation time limit reached")


def main() -> int:
    job = json.loads(sys.argv[1])
    limit = job["as_limit_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    out = sys.stdout

    def emit(obj) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    import workloads  # imports lgcarpet and numpy, under the memory limit

    specs = workloads.load_specs(job["workload"])
    ready = time.monotonic()
    emit({"setup_s": ready - job["spawn_t"], "numpy": workloads.np.__version__})
    if job["mode"] == "setup":
        return 0

    ops = workloads.build_ops(job["workload"], specs, job["seed"])
    recorder = spans.Recorder(traced=job["traced"], pass_id=job["pass_id"])
    spans.install(recorder)
    signal.signal(signal.SIGALRM, _on_alarm)
    for op in ops:
        row = {"op": op.name, "recorded": op.recorded}
        recorder.on = True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, job["op_limit_s"])
            try:
                result = recorder.call(spans.OP_SPAN, op.run, None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # every failure of an operation is a result
            row.update(dt=time.perf_counter() - t0, ok=False,
                       error=f"{type(exc).__name__}: {exc}"[:300])
            emit(row)
            continue
        row["dt"] = time.perf_counter() - t0
        recorder.on = False
        try:
            error = op.check(result) if op.check else None
            if isinstance(result, workloads.Report):
                fp = fingerprint.of(result.view())
                fp["bytes_sha256"] = hashlib.sha256(result.text.encode()).hexdigest()
            else:
                fp = fingerprint.of(result)
        except Exception as exc:
            error, fp = f"output check raised {type(exc).__name__}: {exc}"[:300], None
        row.update(ok=error is None, error=error, fp=fp)
        emit(row)
    emit({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
          "counts": recorder.counts, "spans": recorder.spans})
    return 0


if __name__ == "__main__":
    sys.exit(main())
