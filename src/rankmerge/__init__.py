"""Training-free model merging with rank-reduced, re-centered task vectors.

The package merges fine-tuned checkpoints by (1) choosing an origin —
pretrained weights, the checkpoint mean, or a nuclear-norm-minimizing
point, (2) truncating each checkpoint's deviation from that origin to a
small fraction of its full rank, and (3) recombining with per-task
coefficients. Alongside the merge pipeline it ships the measurement side:
row-space interference and reconstruction-error diagnostics, a certified
upper bound on cross-task loss evaluated on synthetic instances, and
entropy-based test-time adaptation of the merging coefficients.
"""

from .adaptation import (
    Batch,
    ToyClassifier,
    adapt_coefficients,
    adarank_adapt,
    coefficient_gradient,
    entropy_loss,
    ste_masked_singulars,
)
from .bounds import (
    BoundCertificate,
    SyntheticTaskSuite,
    certificate_json_line,
    certify_bounds,
    certify_suites,
    generate_suites,
    task_interference_L,
)
from .errors import *  # noqa: F401,F403 — the exception taxonomy is the public surface
from .errors import RankmergeError
from .interference import (
    InterferenceReport,
    SweepRow,
    interference_report,
    rank_sweep,
    sample_size,
    write_sweep_csv,
)
from .kernels import (
    LowRankFactor,
    reconstruct,
    svd,
    truncate,
)
from .merge import (
    TaskVectorSet,
    build_task_vectors,
    cart_indexing,
    cart_merge,
    merge,
    prune_rank,
    prune_ranks,
    storage_cost,
    weight_average,
)
from .origin import (
    SolverTrace,
    mean_origin,
    rankmin_origin,
    select_origin,
    simmin_objective,
)
from .rng import stream
from .tensor_store import (
    TensorMap,
    classify,
    load_checkpoint,
    save_checkpoint,
    validate_aligned,
)
from .toysuites import classification_sweep_suite, signal_noise_suite

__version__ = "0.1.0"
