#!/usr/bin/env python3
"""Bit-for-bit comparison of this checkout against a git revision.

Exports REV with `git archive` into a temporary directory. In each tree
(REV's and this checkout's), a fresh interpreter with BLAS pinned to one
thread builds every `ablate` suite config at 64 px, in f32 and in f64, and
runs 3 Adam steps on one fixed synthetic batch. It records the parameters
and state as built, each step's loss and gradients, then the eval logits,
the serialized config and the checkpoint bytes. The two records are
compared array by array (dtype, shape and bytes, so the sign of zero
counts). On any difference it prints, for each config/dtype pair, how many
of its arrays differ, the largest relative difference max |a - b| / max |a|
over its differing float arrays (the byte records, config and checkpoint,
are counted but not sized) with the record that holds it and that record's
max |a|, so a difference against a reference near zero shows as one, and
the name of its first differing record, then the first difference overall,
and exits 1.

    python3 scripts/bitcheck.py HEAD~1
"""

import argparse
import collections
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np

STEPS = 3
SIZE = 64
CLASSES = 4
BATCH = 8
LR = 1e-3


def record(out_path) -> None:
    """Write the ordered (name, array) list for the `duoformer` on sys.path."""
    from duoformer import tensor as T
    from duoformer.ablate import SUITE_NAMES, SUITE_TRAIN, suite_grid
    from duoformer.config import serialize_config
    from duoformer.data import make_synthetic
    from duoformer.model import DuoFormer, save_checkpoint
    from duoformer.trainer import adam_init, adam_step

    images, labels, _ = make_synthetic(classes=CLASSES, samples=BATCH, size=SIZE, seed=0)
    ckpt = out_path + ".dfc"
    out = []
    for suite in SUITE_NAMES:
        for config_id, cfg in suite_grid(suite, SIZE, CLASSES):
            for dtype in ("f32", "f64"):
                tag = f"{suite}/{config_id}/{dtype}"
                model = DuoFormer(replace(cfg, dtype=dtype))
                out += [(f"{tag}/init/{name}", arr.copy())
                        for name, arr in model.state_dict().items()]
                named = list(model.named_parameters())
                params = [p for _, p in named]
                state = adam_init(params)
                x = T.Tensor(images, dtype=dtype)
                for step in range(STEPS):
                    model.zero_grad()
                    loss = T.cross_entropy(model(x), labels)
                    loss.backward()
                    out.append((f"{tag}/step{step}/loss", loss.data.copy()))
                    out += [(f"{tag}/step{step}/grad/{name}",
                             np.array([]) if p.grad is None else p.grad.copy())
                            for name, p in named]
                    adam_step(params, [p.grad for p in params], state, LR)
                model.eval()
                with T.no_grad():
                    out.append((f"{tag}/eval_logits", model(x).data))
                text = serialize_config(model.cfg, replace(SUITE_TRAIN, seed=cfg.seed))
                out.append((f"{tag}/config", np.frombuffer(text.encode(), np.uint8)))
                save_checkpoint(ckpt, model)
                with open(ckpt, "rb") as f:
                    out.append((f"{tag}/checkpoint", np.frombuffer(f.read(), np.uint8)))
    os.remove(ckpt)
    with open(out_path, "wb") as f:
        pickle.dump(out, f)


def run_tree(tree: str, out_path: str) -> list:
    """Record in a fresh interpreter that imports `duoformer` from `tree`."""
    from duoformer.ablate import THREAD_VARS  # this checkout's; main puts it on sys.path

    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               **dict.fromkeys(THREAD_VARS, "1"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--record", out_path],
                   env=env, check=True)
    with open(out_path, "rb") as f:
        return pickle.load(f)


def export(repo: str, rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "-C", repo, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bitcheck: git archive {rev} failed")


def differs(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes()


def pair(name: str) -> str:
    """The suite/config/dtype pair a record name belongs to."""
    return "/".join(name.split("/")[:3])


def magnitude(a: np.ndarray) -> "float | None":
    """max |a| of a non-empty float record; None for a byte or empty record."""
    return float(np.abs(a).max()) if a.dtype.kind == "f" and a.size else None


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |a| of a differing float record; 0 for a byte record,
    inf for a dtype or shape change or an all-zero `a`."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return np.inf
    if a.dtype.kind != "f":
        return 0.0
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    top = np.abs(a64).max()
    return np.abs(a64 - b64).max() / top if top else np.inf


def describe(a: np.ndarray, b: np.ndarray) -> str:
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)}"
    gap = np.abs(a.astype(np.float64) - b.astype(np.float64))
    return f"{int((a != b).sum())} of {a.size} elements differ, max |diff| {gap.max():.3e}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--record", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.rev is None:
        ap.error("a revision is required")

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(repo, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "rev")
        os.mkdir(base)
        export(repo, args.rev, base)
        old = run_tree(base, os.path.join(tmp, "rev.pkl"))
        new = run_tree(repo, os.path.join(tmp, "checkout.pkl"))

    old_names, new_names = [n for n, _ in old], [n for n, _ in new]
    if old_names != new_names:
        first = next((o, n) for o, n in zip(old_names + [None], new_names + [None]) if o != n)
        print(f"DIFF: record names diverge: {args.rev} has {first[0]!r}, "
              f"checkout has {first[1]!r}")
        return 1
    bad = [(name, a, b) for (name, a), (_, b) in zip(old, new) if differs(a, b)]
    configs = sum(name.endswith("/checkpoint") for name in old_names)
    print(f"compared {len(old)} arrays over {configs} config/dtype pairs, {STEPS} Adam steps each")
    if bad:
        totals = collections.Counter(pair(name) for name in old_names)
        differing = collections.Counter(pair(name) for name, _, _ in bad)
        firsts, worst = {}, {}  # per pair: first record; (gap, record, max |a|) of the largest gap
        for name, a, b in bad:
            tag, where = pair(name), name[len(pair(name)) + 1:]
            firsts.setdefault(tag, where)
            gap = relative_gap(a, b)
            if tag not in worst or gap > worst[tag][0]:
                worst[tag] = (gap, where, magnitude(a))
        for tag, total in totals.items():
            detail = ""
            if tag in firsts:
                gap, where, top = worst[tag]
                top = "" if top is None else f", max |a| {top:.1e}"
                detail = (f", largest relative difference {gap:.1e} in {where}{top}; "
                          f"first: {firsts[tag]}")
            print(f"{tag}: {differing[tag]} of {total} arrays differ{detail}")
        name, a, b = bad[0]
        print(f"DIFF: {len(bad)} arrays differ; first: {name}: {describe(a, b)}")
        return 1
    print(f"bit-identical to {args.rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
