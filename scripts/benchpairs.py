#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against this checkout.

Exports REV with `git archive` into a temporary directory (as
`scripts/bitcheck.py` does). Pair i runs `perfbench/run.py --workload W
--seed i` once in REV's tree and once in this checkout, each in a fresh
process and one after the other; even pairs run REV first, odd pairs run
the checkout first. Run length and settings are perfbench's own, the same
on both sides. It prints both sides' `src/` line counts, then for each
workload and each end-to-end metric of `BENCHMARK.json` both sides' median
and quartiles, the relative change of the median against the metric's
bound, and in how many pairs the checkout was better (ties count for
neither side). A metric is marked GAIN when the checkout was better in at
least nine tenths of the pairs and its median moved in the better
direction by more than the distance between REV's quartiles, unless the
checkout's runs failed more operations in sum than REV's; WORSE when its
median got worse by more than the bound; and UNRESOLVED when REV's own
spread, (q3 - q1) / |median|, exceeds the bound, unless every checkout run
was better than every REV run or the two sides were equal in every pair.

`--json PATH` also writes what it prints: both revisions, each side's
environment as perfbench records it (BLAS, BLAS threads, CPU count, `src/`
line count), and per workload and metric the pair count, each side's values,
median and quartiles, the wins and the three marks.

    python3 scripts/benchpairs.py HEAD~1 --workload train-paper --pairs 10
    python3 scripts/benchpairs.py HEAD~1 --json BENCH_13.json
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
    """The last stdout line of one perfbench run, {"failed", "metrics", ...},
    plus the "env" of the record perfbench writes under `.bench_out/`."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchpairs: {workload} seed {seed} in {tree} printed no result "
                         f"(exit {proc.returncode})")
    record = os.path.join(tree, ".bench_out", f"{workload}-seed{seed}-trace0.json")
    with open(record) as f:
        result["env"] = json.load(f)["env"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def stats(values: list) -> dict:
    q1, median, q3 = quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(spec: list, pairs: list) -> dict:
    """Per-metric medians, quartiles, wins and marks over (rev run, checkout run) pairs."""
    n = len(pairs)
    out = {"pairs": n, "failed": [sum(r["failed"] for r in runs) for runs in zip(*pairs)],
           "loss_end_equal": sum(a["metrics"].get("loss_end") == b["metrics"].get("loss_end")
                                 for a, b in pairs),
           "metrics": {}}
    for m in spec:
        name = m["name"]
        old = [a["metrics"][name]["value"] for a, _ in pairs if name in a["metrics"]]
        new = [b["metrics"][name]["value"] for _, b in pairs if name in b["metrics"]]
        if len(old) != n or len(new) != n:
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        o, c = stats(old), stats(new)
        change = (c["median"] - o["median"]) / abs(o["median"]) if o["median"] else 0.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        spread = (o["q3"] - o["q1"]) / abs(o["median"]) if o["median"] else 0.0
        separated = max(sign * v for v in new) < min(sign * v for v in old)  # all better
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": n,
            "rev": o, "checkout": c, "change": change, "wins": wins,
            "gain": (10 * wins >= 9 * n and out["failed"][1] <= out["failed"][0]
                     and sign * (o["median"] - c["median"]) > o["q3"] - o["q1"]),
            "worse": sign * change > m["bound"],
            "unresolved": spread > m["bound"] and not separated and old != new}
    return out


def report(workload: str, spec: list, summary: dict, rev: str) -> None:
    n = summary["pairs"]
    failed = summary["failed"]
    print(f"\n{workload}: {n} pairs, failed {failed[0]} ({rev}) / {failed[1]} (checkout)")
    print(f"  {'metric':<14} {rev + ' median [q1, q3]':>34} {'checkout median [q1, q3]':>34}"
          f" {'change':>8} {'bound':>6} {'wins':>6}")
    for m in spec:
        name = m["name"]
        s = summary["metrics"].get(name)
        if s is None:
            print(f"  {name:<14} missing from some runs")
            continue
        o, c = s["rev"], s["checkout"]
        print(f"  {name:<14} {o['median']:>14.6g} [{o['q1']:.6g}, {o['q3']:.6g}]"
              f" {c['median']:>14.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
              f" {s['change']:>+8.2%} {s['bound']:>6g} {s['wins']:>3}/{n}"
              f"{' GAIN' if s['gain'] else ''}{' WORSE' if s['worse'] else ''}"
              f"{' UNRESOLVED' if s['unresolved'] else ''}")
    print(f"  loss_end equal in {summary['loss_end_equal']}/{n} pairs")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", REPO, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", metavar="PATH", help="also write the pairs and summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]

    revs = {"rev": {"name": args.rev, "commit": git("rev-parse", args.rev + "^{commit}")},
            "checkout": {"commit": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}}
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
    summaries = {w: summarize(spec, results[w]) for w in workloads}
    envs = [run["env"] for run in results[workloads[0]][0]]
    print(f"\nsrc/ lines: {envs[0]['src_lines']} ({args.rev}), {envs[1]['src_lines']} (checkout)")
    for w in workloads:
        report(w, spec, summaries[w], args.rev)
    if args.json:
        for name, env in zip(revs, envs):
            revs[name]["env"] = env
        with open(args.json, "w") as f:
            json.dump(dict(revs, workloads=summaries), f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
