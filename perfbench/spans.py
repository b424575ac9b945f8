"""Span arithmetic and the per-layer metrics derived from a traced pass.

A span is ``[name, parent, start, end, error]``: ``name`` is
``"<layer>.<function>"``, ``parent`` the index of the enclosing span in the
same command's list (``-1`` at top level), ``start``/``end`` are
``time.perf_counter`` readings, and ``error`` tells whether an exception
escaped the call. One traced command yields one list of spans plus the
counters its wrappers kept (see ``trace_cli.py``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

Span = Sequence  # [name, parent, start, end, error]

# Inclusive wall time of one public function, summed over its outermost calls.
SPAN_SECONDS = {
    "merge.build_task_vectors_s": "merge.build_task_vectors",
    "merge.prune_ranks_s": "merge.prune_ranks",
    "merge.merge_s": "merge.merge",
    "merge.cart_indexing_s": "merge.cart_indexing",
    "merge.weight_average_s": "merge.weight_average",
    "interference.interference_report_s": "interference.interference_report",
    "interference.row_space_interference_s": "interference.row_space_interference",
    "interference.rank_sweep_s": "interference.rank_sweep",
    "origin.select_origin_s": "origin.select_origin",
    "origin.rankmin_origin_s": "origin.rankmin_origin",
    "tensor_store.load_checkpoint_s": "tensor_store.load_checkpoint",
    "tensor_store.save_checkpoint_s": "tensor_store.save_checkpoint",
    "tensor_store.validate_aligned_s": "tensor_store.validate_aligned",
    "bounds.generate_suite_s": "bounds.generate_suite",
    "bounds.certify_bound_s": "bounds.certify_bound",
    "bounds.task_interference_L_s": "bounds.task_interference_L",
    "adaptation.adapt_coefficients_s": "adaptation.adapt_coefficients",
    "toysuites.classification_sweep_suite_s": "toysuites.classification_sweep_suite",
    "toysuites.signal_noise_suite_s": "toysuites.signal_noise_suite",
}

# Number of calls of one public function.
SPAN_CALLS = {
    "merge.merge_calls": "merge.merge",
    "interference.row_space_interference_calls": "interference.row_space_interference",
    # The nuclear-norm kernels live in ``kernels`` but only the origin solver
    # calls them, so they are reported as that layer's work.
    "origin.nuclear_norm_calls": "kernels.nuclear_norm",
    "origin.nuclear_subgradient_calls": "kernels.nuclear_subgradient",
    "tensor_store.validate_aligned_calls": "tensor_store.validate_aligned",
    "bounds.certify_bound_calls": "bounds.certify_bound",
}

# Counters summed over the pass's commands, reported under the same name.
SUMMED_COUNTERS = (
    "kernels.svd_calls",
    "kernels.svd_uv_calls",
    "kernels.svd_s",
    "kernels.svd_flops_computed",
    "kernels.svd_distinct_inputs",
    "origin.rankmin_steps",
    "tensor_store.bytes_read",
    "tensor_store.bytes_written",
)

LAYERS = (
    "tensor_store", "kernels", "origin", "merge", "interference",
    "bounds", "adaptation", "toysuites", "cli",
)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(spans: Sequence[Span], index: int) -> float:
    """Span ``index``'s duration minus the part its direct children cover."""
    _, _, start, end, _ = spans[index]
    children = [
        (max(s[2], start), min(s[3], end))
        for s in spans
        if s[1] == index and min(s[3], end) > max(s[2], start)
    ]
    return (end - start) - union_length(children)


def outermost_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Per span name, the summed duration of spans with no ancestor of the
    same name, so a function that calls itself is not counted twice."""
    totals: dict[str, float] = {}
    for name, parent, start, end, _ in spans:
        while parent != -1 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent == -1:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def escaped_errors(spans: Sequence[Span]) -> dict[str, int]:
    """Per layer, exceptions that left the layer: an erroring span whose
    parent belongs to another layer or that has no parent."""
    counts = {layer: 0 for layer in LAYERS}
    for name, parent, _, _, error in spans:
        if error and (parent == -1 or _layer(spans[parent][0]) != _layer(name)):
            counts[_layer(name)] += 1
    return counts


def layer_metrics(commands: Sequence[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``commands`` holds one ``{"spans": [...], "counters": {...}}`` record per
    command in the pass. Times and counts are summed over the commands;
    ``merge.prune_ranks_peak_mb`` is the largest peak of any call.
    """
    metrics: dict[str, float] = {}
    for metric in SUMMED_COUNTERS:
        metrics[metric] = float(sum(c["counters"].get(metric, 0) for c in commands))
    calls = metrics["kernels.svd_calls"]
    metrics["kernels.svd_reuse_ratio"] = (
        metrics["kernels.svd_distinct_inputs"] / calls if calls else 0.0
    )
    computed = sum(c["counters"].get("kernels.triples_computed", 0) for c in commands)
    kept = sum(c["counters"].get("kernels.triples_retained", 0) for c in commands)
    metrics["kernels.retained_triple_frac"] = kept / computed if computed else 0.0
    metrics["merge.prune_ranks_peak_mb"] = max(
        (c["counters"].get("merge.prune_ranks_peak_bytes", 0) for c in commands), default=0
    ) / 2**20

    seconds = [outermost_seconds(c["spans"]) for c in commands]
    for metric, name in SPAN_SECONDS.items():
        metrics[metric] = sum(per_command.get(name, 0.0) for per_command in seconds)
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = float(sum(1 for c in commands for s in c["spans"] if s[0] == name))
    metrics["cli.self_s"] = sum(
        self_time(c["spans"], i)
        for c in commands
        for i, s in enumerate(c["spans"])
        if s[0] == "cli.main"
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = 0.0
    for c in commands:
        for layer, count in escaped_errors(c["spans"]).items():
            metrics[f"{layer}.errors"] += count
    return metrics
