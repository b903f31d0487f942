"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py MODE --workload NAME --seed N --seconds S

Modes:

* ``setup``: cold set-up only; prints ``READY`` when done.
* ``measure``: set-up, ``READY``, then a closed loop of operations (one
  client) for S seconds, untraced.
* ``trace``: traced set-up; then the first operations of the stream once
  untraced and once traced, for the tracing overhead and the layer counters.
* ``cli-trace``: the workload's command run in-process under the tracer.

The last line of standard output is one JSON object with the results.
``run.py`` starts the workers; the library is found through PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from collections import Counter

import workloads
from tracer import Tracer


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


CAL_ITERATIONS = 20_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the run's probe of the
    CPU speed, which drifts on a shared machine (see README.md)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_ops(wl, specs, deadline=None, limit=None, corrupt=False):
    """Closed loop over the given inputs until the deadline or the limit.

    Returns per-operation latencies with the calibration time measured just
    before each operation, the failure count, exceptions by type and the
    digest of the first ``wl.fixed_ops`` verdict records."""
    clock = time.perf_counter
    latencies, calibrations, exceptions = [], [], Counter()
    failed = 0
    digest = hashlib.sha256()
    for i, spec in enumerate(specs):
        if limit is not None and i >= limit:
            break
        calibrations.append(calibrate())
        t0 = clock()
        try:
            ok, record = wl.run(spec, corrupt=corrupt and i == 0)
        except Exception as exc:  # every exception is a failed operation
            ok, record = False, f"exception {type(exc).__name__}: {exc}"
            exceptions[type(exc).__name__] += 1
        t1 = clock()
        latencies.append(t1 - t0)
        failed += not ok
        if i < wl.fixed_ops:
            digest.update(record.encode() + b"\n")
        if deadline is not None and t1 >= deadline:
            break
    return {
        "latencies": latencies,
        "calibrations": calibrations,
        "failed": failed,
        "exceptions": dict(exceptions),
        "digest": digest.hexdigest(),
        "digest_ops": min(len(latencies), wl.fixed_ops),
    }


def prepare(wl, ch) -> None:
    """Cold set-up, then the first operations of a fixed warm-up stream, so
    that first-call costs (BLAS thread start-up among them) land in set-up
    and not in the measured operations."""
    wl.setup(ch)
    warm = run_ops(wl, wl.inputs("warm-up"), limit=wl.warmup_ops)
    if warm["failed"]:
        raise workloads.SetupError(f"warm-up operations failed: {warm['exceptions']}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "trace", "cli-trace"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSONL)")
    parser.add_argument("--argv", default=None, help="command arguments as JSON (cli-trace)")
    args = parser.parse_args()

    import chevalley
    import chevalley.cli  # noqa: F401  (so the tracer patches its bindings too)

    wl = workloads.WORKLOADS[args.workload]()

    if args.mode == "cli-trace":
        tracer = Tracer()
        tracer.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = chevalley.cli.main(json.loads(args.argv))
        tracer.remove()
        out = {"exit": code, "stdout": buf.getvalue(), "layers": tracer.flat()}
    elif args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        prepare(wl, chevalley)
        tracer.remove()
        half = time.perf_counter() + args.seconds / 2
        plain = run_ops(wl, wl.inputs(args.seed), deadline=half, limit=wl.fixed_ops)
        n = len(plain["latencies"])
        tracer.install()
        traced = run_ops(wl, wl.inputs(args.seed), limit=n)
        tracer.remove()
        if args.spans:
            tracer.write_spans(args.spans)
        out = {
            "ops": n,
            "plain": plain,
            "traced": traced,
            "layers": tracer.flat(),
            "cli_job": wl.cli_job(args.seed),
            "machine": machine(),
        }
    else:
        prepare(wl, chevalley)
        print("READY", flush=True)
        out = {"setup_calibrations": [calibrate() for _ in range(3)]}
        if args.mode == "measure":
            start = time.perf_counter()
            res = run_ops(wl, wl.inputs(args.seed), deadline=start + args.seconds, corrupt=args.corrupt)
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out.update(run=res, cli_job=wl.cli_job(args.seed), machine=machine())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
