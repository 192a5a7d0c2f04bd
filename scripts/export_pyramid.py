#!/usr/bin/env python3
"""Export a frozen-backbone feature pyramid for a whole dataset.

Runs the seeded backbone (init drawn from the config's seed, exactly as
`duoformer train` would build it) over every image in a dataset directory
and writes one DFC1 pyramid container. Feed the result to
`duoformer train --pyramid <out.dfc>` to train encoder + head with the
backbone bypassed — the linear-probe-style flow, amortizing the conv stack
over many encoder runs.

    python3 scripts/export_pyramid.py --config runs/toy.cfg \
        --data data/synth768 --out data/synth768.pyr.dfc
"""

import argparse
import sys

import numpy as np

from duoformer.backbone import FeaturePyramid, save_pyramid
from duoformer.data import load_dataset
from duoformer.model import DuoFormer
from duoformer.tensor import Tensor, no_grad
from duoformer.config import parse_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="key=value config file")
    ap.add_argument("--data", required=True, help="dataset directory")
    ap.add_argument("--out", required=True, help="output .dfc path")
    ap.add_argument("--batch-size", type=int, default=64,
                    help="backbone forward chunk (default 64)")
    args = ap.parse_args(argv)

    with open(args.config) as f:
        cfg, _ = parse_config(f.read())
    images, _ = load_dataset(args.data)
    if images.shape[1] != cfg.input_size:
        ap.error(f"dataset is {images.shape[1]} px but config expects {cfg.input_size}")

    model = DuoFormer(cfg)
    model.eval()  # BN in batch-stats mode would leak chunk boundaries

    chunks = {i: [] for i in model.stage_indices}
    with no_grad():  # features only: no batch needs a graph
        for lo in range(0, len(images), args.batch_size):
            batch = Tensor(images[lo:lo + args.batch_size], dtype=cfg.dtype)
            pyr = model.backbone(batch)
            for idx, feat in pyr.stages:
                chunks[idx].append(feat.data)
            print(f"\r{min(lo + args.batch_size, len(images))}/{len(images)}",
                  end="", flush=True)
    print()

    stages = [(i, Tensor(np.concatenate(chunks[i], axis=0))) for i in model.stage_indices]
    save_pyramid(args.out, FeaturePyramid(stages, input_size=cfg.input_size))
    shapes = ", ".join(f"stage{i} {tuple(t.shape)}" for i, t in stages)
    print(f"wrote {args.out}: {shapes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
