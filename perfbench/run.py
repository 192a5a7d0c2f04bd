"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is imported from `src/` next to
this directory, never from an installed copy. One workload runs in this
process; `all` (the default) runs each workload in its own fresh process.
The report goes to stdout, with one JSON result object as the last line;
the full result (environment, every metric, checks) and, for a traced
run, the span file are written under `.bench_out/`. See README.md here.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1  # closed loop, one client; 2 threads gave no gain on the toy step
WORKLOAD_NAMES = ("train-toy", "train-paper", "infer-toy")

# Report names of the shared JSON metrics, per kind of workload.
_REPORT_NAMES = {
    "train": {"samples_per_s": "train_samples_per_s", "step_ms_mean": "step_ms_mean",
              "step_ms_p50": "step_ms_p50", "step_ms_p90": "step_ms_p90",
              "loss_end": "train_loss_end"},
    "infer": {"samples_per_s": "infer_images_per_s", "step_ms_mean": "infer_batch_ms_mean",
              "step_ms_p50": "infer_batch_ms_p50", "step_ms_p90": "infer_batch_ms_p90",
              "loss_end": "eval_loss"},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every workload for the smoke test")
    return ap.parse_args(argv)


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace), "--size", args.size]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        print(f"== {name} ==", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def environment(np) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    src_lines = 0
    for d, _, files in os.walk(os.path.join(SRC, "duoformer")):
        for fn in files:
            if fn.endswith(".py"):
                with open(os.path.join(d, fn)) as f:
                    src_lines += sum(1 for _ in f)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "duoformer")):
        fail(f"program sources not found under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS
    sys.path.insert(0, SRC)

    import numpy as np
    import duoformer
    if not os.path.abspath(duoformer.__file__).startswith(SRC + os.sep):
        fail(f"imported duoformer from {duoformer.__file__}, not from {SRC}")
    import workloads
    import_s = time.perf_counter() - T_START

    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, seconds, bool(args.trace), sizes, work_dir)
    crashed = False
    try:
        res = wl.run()
    except Exception:  # a raising step is a failed operation; report it
        traceback.print_exc()
        res = wl.res
        res.ok.append(False)
        crashed = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "infer" if args.workload.startswith("infer") else "train"
    metrics, samples = {}, {}
    if args.trace:
        wanted = spec["per_layer"]
        values = res.layer
    else:
        wanted = spec["end_to_end"]
        values = {k: v for k, (v, _) in res.e2e.items()}
        samples = {k: n for k, (_, n) in res.e2e.items()}
        if wl.setup_times:
            values["setup_s"] = import_s + float(np.median(wl.setup_times))
            samples["setup_s"] = len(wl.setup_times)
        values["peak_rss_mb"] = workloads.peak_rss_mb()
        samples["peak_rss_mb"] = 1
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace and not crashed and not res.refused:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}  # layer not in this workload
    attempted, failed = len(res.ok), res.ok.count(False)

    env = environment(np)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = None
    if res.tracer is not None:
        spans_path = os.path.join(out_dir, stem + ".spans.jsonl")
        res.tracer.write_spans(spans_path)

    print(f"workload {args.workload}  seed {args.seed}  seconds {seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    names = _REPORT_NAMES[kind]
    for m in wanted:
        if m["name"] in metrics:
            label = names.get(m["name"], m["name"])
            n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
            print(f"  {label:<36} {metrics[m['name']]['value']:.6g} {m['unit']}{n}")
    if not args.trace:  # reported but not in BENCHMARK.json: too jumpy on a shared host
        for name in sorted(set(res.e2e) - {m["name"] for m in wanted}):
            label = names.get(name, name)
            print(f"  {label:<36} {values[name]:.6g} ms  (n={samples[name]}, not gated)")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':<36} {ratio:.6g}  ({failed} failed of {attempted} attempted)")
    for name, (passed, total) in res.checks.items():
        print(f"  check {name}: {passed}/{total} passed")
    for note in res.notes:
        print(f"  note: {note}")
    if spans_path:
        print(f"  spans: {os.path.relpath(spans_path, ROOT)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "size": args.size, "env": env,
              "metrics": {k: {"value": v, "samples": samples.get(k)}
                          for k, v in sorted(values.items())},
              "peak_rss_mb": workloads.peak_rss_mb(),
              "checks": res.checks, "notes": res.notes,
              "attempted": attempted, "failed": failed}
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, default=float)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if crashed or res.refused else 0


if __name__ == "__main__":
    sys.exit(main())
