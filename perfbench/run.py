"""Benchmark of the chevalley library: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a checkout; the library is taken from ``src/``.  Every
measured phase runs in a fresh interpreter (``worker.py``), because the
library's tables are process-wide caches: an in-process repeat would measure
warm tables.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over three fresh interpreters of the time from start to
  ready, including every lazy table the workload's operations read;
* ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: a closed loop, one client, of
  the workload's operations for S seconds; ``ops_per_s`` is operations over
  their summed latency;
* ``ok_frac``: operations (and command runs) whose verdicts all matched, over
  those attempted;
* ``peak_rss_mb``: peak resident memory of the measuring interpreter;
* ``cli_s``: median wall time of five runs of the workload's command, each
  its own process, with exit code and report checked.

Timings are reported at a reference CPU speed, because the speed of a shared
machine drifts by more than the bounds within a minute.  Each timing is
multiplied by ``CAL_REF_S`` over the time of a fixed pure-Python loop
(``worker.calibrate``) measured next to it: before every operation (a rolling
median over 11 operations), and before and after every set-up and command
run.  The raw timings are printed on the ``raw`` line.

``--trace 1`` reports the per-layer metrics: counters and self times (raw
seconds) from a traced run of the operations and of the command, and the
tracing overhead.

Lines before the last describe the machine and the run's digests; the last
line is the JSON result.  ``--out DIR`` also saves the result there, for
``compare.py``.  The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import calibrate  # noqa: E402

SETUP_RUNS = 3
CLI_RUNS = 5
WORKER_TIMEOUT_S = 150
# Calibration time of the reference CPU: about the loop's time on a 2-vCPU
# x86-64 virtual machine (Xeon, 2.1 GHz) in its faster state.
CAL_REF_S = 0.0015


class RunError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_process(cmd, timeout=WORKER_TIMEOUT_S):
    """Run a child to completion; return (seconds to a READY line or None,
    stdout lines after it, exit code, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line == b"READY\n":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, lines, proc.returncode, time.perf_counter() - t0


def _worker(mode, args, *extra):
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    ready, lines, code, _ = _run_process(cmd)
    if code != 0 or not lines:
        raise RunError(f"worker {mode} exited with {code}")
    return ready, json.loads(lines[-1])


def _write_files(files: dict) -> None:
    for rel, text in files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def at_reference_speed(seconds, calibration):
    return seconds * CAL_REF_S / calibration


def scaled_latencies(run) -> list:
    """Operation latencies at reference speed, each scaled by the median
    calibration of the 11 operations around it."""
    cals = run["calibrations"]
    return [
        at_reference_speed(lat, statistics.median(cals[max(0, i - 5): i + 6]))
        for i, lat in enumerate(run["latencies"])
    ]


def _calibration() -> float:
    return statistics.median(calibrate() for _ in range(3))


def _cold_start(mode, args, *extra):
    """Run a set-up-timing worker.  Returns its result and the set-up sample:
    seconds from spawn to ready, and the calibration taken right before the
    spawn and right after ready."""
    before = _calibration()
    ready, out = _worker(mode, args, *extra)
    return out, (ready, (before + statistics.median(out["setup_calibrations"])) / 2)


def untraced(args, wl):
    res, first = _cold_start("measure", args, *(["--corrupt"] if args.inject_wrong_verdict else []))
    setups = [first] + [_cold_start("setup", args)[1] for _ in range(SETUP_RUNS - 1)]
    run = res["run"]
    job = res["cli_job"]
    _write_files(job["files"])
    cli_runs, cli_digests, cli_failed = [], [], 0
    for _ in range(CLI_RUNS):
        before = _calibration()
        cmd = [sys.executable, "-m", "chevalley.cli", *job["argv"]]
        _, lines, code, wall = _run_process(cmd)
        cli_runs.append((wall, (before + _calibration()) / 2))
        stdout = b"".join(lines)
        cli_digests.append(hashlib.sha256(stdout).hexdigest())
        cli_failed += not (code == 0 and wl.check_cli(stdout, job["expect"]))
    lat = run["latencies"]
    scaled = scaled_latencies(run)
    ops = len(lat)
    attempted = ops + CLI_RUNS
    failed = run["failed"] + cli_failed
    metrics = {
        "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
        "ops_per_s": ops / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": p90(scaled) * 1e3,
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
        "cli_s": statistics.median(at_reference_speed(*c) for c in cli_runs),
    }
    info = {
        "ops": ops,
        "p90_samples_beyond": ops - math.ceil(0.9 * ops),
        "verdict_digest": run["digest"],
        "digest_ops": run["digest_ops"],
        "cli_digest": cli_digests[0],
        "exceptions": run["exceptions"],
        "raw": {
            "setup_s": statistics.median(r for r, _ in setups),
            "ops_per_s": ops / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90(lat) * 1e3,
            "cli_s": statistics.median(w for w, _ in cli_runs),
            "calibration_s": statistics.median(run["calibrations"]),
        },
        "setup_samples_s": setups,
        "cli_samples_s": cli_runs,
        "machine": res["machine"],
    }
    correct = failed == 0 and len(set(cli_digests)) == 1
    return metrics, attempted, failed, correct, info


def traced(args, wl, spans_path):
    _, res = _worker("trace", args, *(["--spans", str(spans_path)] if spans_path else []))
    job = res["cli_job"]
    _write_files(job["files"])
    _, cli = _worker("cli-trace", args, "--argv", json.dumps(job["argv"]))
    stdout = cli["stdout"].encode()
    cli_ok = cli["exit"] == 0 and wl.check_cli(stdout, job["expect"])

    layers = dict(res["layers"])
    for key, value in cli["layers"].items():
        layers[key] = layers.get(key, 0) + value
    plain, tr = res["plain"], res["traced"]
    attempts = layers["analysis.extract.attempts"]
    plain_s, traced_s = sum(scaled_latencies(plain)), sum(scaled_latencies(tr))
    layers["analysis.extract.yield"] = layers["analysis.extract.witnesses"] / attempts if attempts else 0.0
    layers["cli.report_bytes"] = len(stdout)
    layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    layers["trace.ops"] = res["ops"]

    attempted = 2 * res["ops"] + 1
    failed = plain["failed"] + tr["failed"] + (not cli_ok)
    correct = failed == 0 and plain["digest"] == tr["digest"]
    info = {
        "ops": res["ops"],
        "verdict_digest": tr["digest"],
        "untraced_verdict_digest": plain["digest"],
        "digest_ops": tr["digest_ops"],
        "cli_digest": hashlib.sha256(stdout).hexdigest(),
        "exceptions": dict(Counter(plain["exceptions"]) + Counter(tr["exceptions"])),
        "spans": str(spans_path) if spans_path else None,
        "machine": res["machine"],
    }
    return layers, attempted, failed, correct, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory to save the result in")
    parser.add_argument(
        "--inject-wrong-verdict", action="store_true",
        help="replace the first operation's verdict with a wrong one (gate self-test)",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "chevalley" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out) if args.out else None
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            values, attempted, failed, correct, info = traced(
                args, wl, out_dir / f"{stem}.spans.jsonl" if out_dir else None
            )
        else:
            values, attempted, failed, correct, info = untraced(args, wl)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workloads.TMP_DIR, ignore_errors=True)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}

    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    if out_dir:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result, "info": info}
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
