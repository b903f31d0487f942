"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the files ``run.py --out DIR`` writes.  For every
workload and end-to-end metric of BENCHMARK.json the table gives each side's
median and quartiles and a verdict under the metric's bound:

* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``unresolved``: the base runs spread (quartile distance over median) wider
  than the bound, and not every new run beats every base run;
* ``within-bound``: otherwise.

Runs of the same workload and seed on both sides must also agree on their
verdict and command-report digests.  The exit code is 1 when any metric is
worse or any digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.trace0.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, new, better, bound) -> str:
    mb, mn = statistics.median(base), statistics.median(new)
    scale = abs(mb) or 1.0
    worse_by = (mn - mb) / scale if better == "lower" else (mb - mn) / scale
    q1, q3 = quartiles(base)
    if better == "lower":
        every_run_better = max(new) < min(base)
    else:
        every_run_better = min(new) > max(base)
    if (q3 - q1) / scale > bound and not every_run_better:
        return "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def _summary(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    failed = False
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<40} {'new median [q1, q3]':<40} verdict")
    for wl in bench["workloads"]:
        name = wl["name"]
        b_runs = [r for r in base if r["workload"] == name]
        n_runs = [r for r in new if r["workload"] == name]
        if not b_runs or not n_runs:
            print(f"{name:<14} (no runs on {'base' if not b_runs else 'new'} side)")
            continue
        for m in bench["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            v = verdict(b, n, m["better"], m["bound"])
            failed |= v == "worse"
            print(f"{name:<14} {m['name']:<12} {_summary(b):<40} {_summary(n):<40} {v}")
        for label, runs in (("base", b_runs), ("new", n_runs)):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                failed = True
                print(f"{name:<14} {label} runs not correct: seeds {bad}")
        by_seed = {r["seed"]: r["info"] for r in b_runs}
        for r in n_runs:
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            for key in ("verdict_digest", "cli_digest"):
                if other[key] != r["info"][key]:
                    failed = True
                    print(f"{name:<14} seed {r['seed']}: {key} differs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
