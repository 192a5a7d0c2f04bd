#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against this checkout.

Exports REV with `git archive` into a temporary directory (as
`scripts/bitcheck.py` does). Pair i runs `perfbench/run.py --workload W
--seed i` once in REV's tree and once in this checkout, each in a fresh
process and one after the other; even pairs run REV first, odd pairs run
the checkout first. Run length and settings are perfbench's own, the same
on both sides. For each workload and each end-to-end metric of
`BENCHMARK.json`, it prints both sides' median and quartiles, the relative
change of the median against the metric's bound, and in how many pairs the
checkout was better (ties count for neither side).

    python3 scripts/benchpairs.py HEAD~1 --workload train-paper --pairs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bitcheck import export

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-toy", "train-paper", "infer-toy")


def run_once(tree: str, workload: str, seed: int) -> dict:
    """The last stdout line of one perfbench run: {"failed", "metrics", ...}."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchpairs: {workload} seed {seed} in {tree} printed no result "
                         f"(exit {proc.returncode})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, spec: list, pairs: list, rev: str) -> None:
    """Per-metric medians, quartiles and wins over (rev run, checkout run) pairs."""
    n = len(pairs)
    failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
    print(f"\n{workload}: {n} pairs, failed {failed[0]} ({rev}) / {failed[1]} (checkout)")
    print(f"  {'metric':<14} {rev + ' median [q1, q3]':>34} {'checkout median [q1, q3]':>34}"
          f" {'change':>8} {'bound':>6} {'wins':>6}")
    for m in spec:
        name = m["name"]
        old = [a["metrics"][name]["value"] for a, _ in pairs if name in a["metrics"]]
        new = [b["metrics"][name]["value"] for _, b in pairs if name in b["metrics"]]
        if len(old) != n or len(new) != n:
            print(f"  {name:<14} missing from some runs")
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (o1, o2, o3), (c1, c2, c3) = quartiles(old), quartiles(new)
        change = (c2 - o2) / abs(o2) if o2 else 0.0
        worse = " WORSE" if sign * change > m["bound"] else ""
        print(f"  {name:<14} {o2:>14.6g} [{o1:.6g}, {o3:.6g}] {c2:>14.6g} [{c1:.6g}, {c3:.6g}]"
              f" {change:>+8.2%} {m['bound']:>6g} {wins:>3}/{n}{worse}")
    same = sum(a["metrics"].get("loss_end") == b["metrics"].get("loss_end") for a, b in pairs)
    print(f"  loss_end equal in {same}/{n} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]

    results = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        export(REPO, args.rev, tmp)
        for seed in range(args.pairs):
            for w in workloads:
                runs = [None, None]  # REV's, the checkout's
                for side in ((0, 1) if seed % 2 == 0 else (1, 0)):
                    r = runs[side] = run_once((tmp, REPO)[side], w, seed)
                    shown = "  ".join(f"{k} {r['metrics'][k]['value']:.6g}"
                                      for k in ("step_ms_mean", "peak_rss_mb", "loss_end")
                                      if k in r["metrics"])
                    print(f"pair {seed} {w} {(args.rev, 'checkout')[side]}: {shown}  "
                          f"failed {r['failed']}", flush=True)
                results[w].append(tuple(runs))
    for w in workloads:
        report(w, spec, results[w], args.rev)
    return 0


if __name__ == "__main__":
    sys.exit(main())
