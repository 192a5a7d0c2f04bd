#!/usr/bin/env bash
# Run all four ablation suites on a shared 768-sample synthetic dataset.
#
#   scripts/run_ablations.sh [out_root] [extra ablate flags...]
#
# e.g. `scripts/run_ablations.sh runs/ablations --max-epochs 10`. Each suite
# trains its runs in parallel, one single-thread-BLAS worker per available CPU.
# Dataset geometry (64 px, 4 classes) matches the suites' stage grids; the
# 512/128/128 train/val/test split comes from the trainer's 1/6 fractions.
set -euo pipefail

out_root=${1:-runs/ablations}
shift || true

data="$out_root/data768"
if [ ! -f "$data/images.dft" ]; then
  python3 -m duoformer.cli gen-synthetic --out "$data" --samples 768 --size 64 --seed 0
fi

for suite in attention scale-token stages heads-layers; do
  echo "== suite: $suite =="
  python3 -m duoformer.cli ablate --suite "$suite" --data "$data" \
    --out "$out_root/$suite" "$@"
done

echo "reports under $out_root/<suite>/report.{txt,json}"
