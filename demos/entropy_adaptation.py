"""Adapt merging coefficients by entropy descent, without labels.

The bundled two-task suite pairs one checkpoint that actually classifies
the test distribution with one that is pure noise. Descending the mean
prediction entropy over the merging coefficients should discover that
asymmetry: the useful checkpoint's coefficients rise, the noise
checkpoint's fall. The second half does the same descent while also
learning binary masks over each delta's singular values.
"""

import numpy as np

from rankmerge import (
    adapt_coefficients,
    adarank_adapt,
    build_task_vectors,
    signal_noise_suite,
    ste_masked_singulars,
    weight_average,
)


def main() -> None:
    suite = signal_noise_suite(seed=0)
    tvs = build_task_vectors(weight_average(suite.finetuned), suite.finetuned)

    values, history = adapt_coefficients(tvs, suite.template, [suite.batch], steps=60, lr=0.05)
    print("entropy trajectory (every 10th step):")
    for step, entropy, mean_lambda in history[::10]:
        print(f"  step {step:>3}  entropy {entropy:.4f}  mean coefficient {mean_lambda:.3f}")

    means = np.mean(values, axis=1)
    print(f"\nper-task coefficient means: signal={means[0]:.3f}, noise={means[1]:.3f}")
    print("per-(task, layer) coefficients, columns", tvs.matrix_names())
    print(values)

    logits, _, mask_history = adarank_adapt(
        tvs, suite.template, [suite.batch], init_k=4, steps=40, lr=0.05
    )
    print(f"\njoint mask + coefficient descent: entropy "
          f"{mask_history[0][1]:.4f} -> {mask_history[-1][1]:.4f}")
    for task in range(tvs.task_count):
        for layer in tvs.matrix_names():
            # logits[layer] holds one row of mask logits per task.
            a = logits[layer][task]
            kept, _ = ste_masked_singulars(tvs.deltas[layer][task].singulars, a)
            print(f"  task {task} {layer}: {np.count_nonzero(kept)}/{len(a)} singular values kept")


if __name__ == "__main__":
    main()
