"""Serve many per-task models from one origin plus low-rank deltas.

Instead of merging tasks into a single compromise model, keep the shared
origin and reconstruct whichever task is requested: origin + that task's
truncated delta. This script measures what the truncation costs in accuracy
and what the factors cost in storage, side by side.
"""

from rankmerge import cart_indexing, classification_sweep_suite, storage_cost, weight_average


def main() -> None:
    suite = classification_sweep_suite(seed=0)
    dims = [suite.pretrained[n].shape for n in suite.pretrained.names()
            if suite.pretrained[n].ndim == 2]
    tasks = len(suite.finetuned)
    origin = weight_average(suite.finetuned)

    print(f"{'ratio':>6}  {'own-task accuracy':>18}  {'factor bits':>12}  {'mask bits':>10}")
    for ratio in (0.02, 0.08, 0.16, 0.32, 1.0):
        accs = []
        for t in range(tasks):
            rebuilt = cart_indexing(origin, suite.finetuned, ratio, t)
            accs.append(suite.evaluator(rebuilt)[t])
        mask_bits, lowrank_bits = storage_cost(tasks, dims, ratio, float_bits=32)
        mean_acc = sum(accs) / len(accs)
        print(f"{ratio:>6.2f}  {mean_acc:>18.3f}  {lowrank_bits:>12,}  {mask_bits:>10,}")

    print("\nlow ratios already recover each task's accuracy: the deltas'")
    print("useful content is concentrated in their top singular directions.")


if __name__ == "__main__":
    main()
