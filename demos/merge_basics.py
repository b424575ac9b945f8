"""Walk through the merge pipeline on three synthetic checkpoints.

Shows the two structural facts the pipeline is built around:

1. with a mean origin and full-rank deltas, the merged model is the plain
   weight average no matter what coefficient you pick (the deltas sum to
   zero), and
2. truncating the deltas breaks that cancellation, so the coefficient
   starts to matter — which is the whole point of merging at reduced rank.
"""

import numpy as np

from rankmerge import (
    TensorMap,
    build_task_vectors,
    cart_merge,
    merge,
    prune_ranks,
    weight_average,
)
from rankmerge.rng import stream

SHAPES = {"backbone.0.weight": (16, 12), "backbone.1.weight": (10, 16), "backbone.0.bias": (16,)}


def make_checkpoints(seed: int, tasks: int = 3) -> list[TensorMap]:
    g = stream(seed, "merge-basics")
    base = {name: g.standard_normal(shape) for name, shape in SHAPES.items()}
    ckpts = []
    for _ in range(tasks):
        ckpts.append(
            TensorMap({name: arr + 0.4 * g.standard_normal(arr.shape) for name, arr in base.items()})
        )
    return ckpts


def main() -> None:
    finetuned = make_checkpoints(seed=0)
    avg = weight_average(finetuned)

    print("full-rank mean-origin merges vs the weight average:")
    for lam in (0.0, 0.3, 1.0, 3.0):
        merged = cart_merge(avg, finetuned, rank_ratio=1.0, lam=lam)
        gap = max(float(np.max(np.abs(merged[n] - avg[n]))) for n in avg.names())
        print(f"  lambda={lam:<4}  max |merge - average| = {gap:.2e}")

    print("\nthe same sweep at 8% retained rank (cancellation broken):")
    for lam in (0.0, 0.3, 1.0, 3.0):
        merged = cart_merge(avg, finetuned, rank_ratio=0.08, lam=lam)
        gap = max(float(np.max(np.abs(merged[n] - avg[n]))) for n in avg.names())
        print(f"  lambda={lam:<4}  max |merge - average| = {gap:.2e}")

    # The long-form API does the same thing a step at a time, which is the
    # shape you want when reusing the deltas across many merge settings.
    tvs = build_task_vectors(avg, finetuned)
    tvs = prune_ranks(tvs, 0.08)
    merged = merge(tvs, 0.3)
    print(f"\nlong-form pipeline produced {len(list(merged.names()))} tensors")

    # One coefficient per (task, layer): rows are tasks, columns follow
    # tvs.matrix_names(). Here task 0 gets full weight on every layer.
    table = np.full((tvs.task_count, len(tvs.matrix_names())), 0.3)
    table[0] = 1.0
    tilted = merge(tvs, table)
    gap = max(float(np.max(np.abs(tilted[n] - merged[n]))) for n in tvs.matrix_names())
    print(f"per-task/layer coefficients {table.shape} move it by up to {gap:.2e}")


if __name__ == "__main__":
    main()
