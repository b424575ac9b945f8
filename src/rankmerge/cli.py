"""Command-line driver.

Seven subcommands cover the pipeline: ``merge`` and ``index`` operate on
checkpoint files, ``analyze`` reports overlap diagnostics for a set of
checkpoints, ``sweep``/``certify``/``adapt`` run the built-in synthetic
studies, and ``samplesize`` prints the evaluation-set planning number.
Only the three studies draw random numbers, so only they take ``--seed``.

Every run resolves its parameters as CLI flag > ``--config`` JSON entry >
built-in default, and commands that write files also write a
``manifest.json`` recording the resolved parameters and the SHA-256 of
every input and output — no timestamps, so identical runs produce
byte-identical artifacts.

Exit codes: 0 on success, 1 on a domain error (bad inputs, failed
certificate), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .adaptation import adapt_coefficients, write_adaptation_csv
from .bounds import certify_bound, generate_suite, write_certificates
from .errors import RankmergeError
from .interference import interference_report, rank_sweep, sample_size, write_sweep_csv
from .merge import (
    MergePlan,
    build_task_vectors,
    cart_indexing,
    merge,
    prune_ranks,
    weight_average,
)
from .origin import OriginMode, SolverTrace, select_origin
from .rng import stream
from .tensor_store import ParamClass, _atomic_write, classify, load_checkpoint, save_checkpoint
from .toysuites import classification_sweep_suite, signal_noise_suite

__all__ = ["main"]


class _UsageError(Exception):
    pass


_DEFAULTS: dict[str, dict[str, object]] = {
    "merge": {
        "pretrained": None, "task": [], "ratio": 0.08, "lam": 0.3,
        "origin": "mean", "rankmin_steps": 200, "rankmin_step_size": None,
        "matrix_include": [], "matrix_exclude": [], "out_dir": ".",
    },
    "index": {
        "pretrained": None, "task": [], "ratio": 0.08, "task_index": 0,
        "matrix_include": [], "matrix_exclude": [], "out_dir": ".",
    },
    "analyze": {
        "pretrained": None, "task": [], "origin": "mean", "ks": None,
        "rankmin_steps": 200, "rankmin_step_size": None,
        "matrix_include": [], "matrix_exclude": [], "out_dir": ".",
    },
    "sweep": {
        "ratios": [0.0, 0.04, 0.08, 0.16, 0.32, 1.0], "lambdas": [1.0],
        "seed": 0, "out_dir": ".",
    },
    "certify": {"suites": 100, "seed": 0, "out_dir": "."},
    "adapt": {"iters": 30, "lr": 0.01, "ratio": 1.0, "seed": 0, "out_dir": "."},
    "samplesize": {"a": 0.0, "b": 1.0, "epsilon": 0.05, "z": 1.96, "out_dir": None},
}


def _floats(value: object) -> list[float]:
    if isinstance(value, str):
        return [float(x) for x in value.split(",") if x.strip() != ""]
    if isinstance(value, Sequence):
        return [float(x) for x in value]
    return [float(value)]  # type: ignore[arg-type]


def _ints(value: object) -> list[int]:
    return [int(x) for x in _floats(value)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """CLI flag > config entry > default, per parameter."""
    defaults = _DEFAULTS[command]
    config: Mapping = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {args.config}: {exc}") from exc
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise _UsageError(f"config keys {unknown} are not parameters of '{command}'")
    params: dict = {"config": args.config}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value == []:  # repeatable flags: absent means fall through
            cli_value = None
        params[key] = cli_value if cli_value is not None else config.get(key, default)
    return params


def _classifier(includes: Sequence[str], excludes: Sequence[str]):
    """Shape-based classification, narrowed by name globs.

    Excluded names always average; when include patterns are given, only
    matching names stay on the SVD path. Shape eligibility is never
    widened — a bias vector stays non-matrix no matter what it is named.
    """
    if not includes and not excludes:
        return classify

    def clf(name, tensor):
        if classify(name, tensor) is not ParamClass.MATRIX:
            return ParamClass.NON_MATRIX
        if any(fnmatch.fnmatchcase(name, pat) for pat in excludes):
            return ParamClass.NON_MATRIX
        if includes and not any(fnmatch.fnmatchcase(name, pat) for pat in includes):
            return ParamClass.NON_MATRIX
        return ParamClass.MATRIX

    return clf


def _origin_mode(params: dict) -> OriginMode:
    kind = str(params["origin"])
    if kind == "rankmin":
        step_size = params.get("rankmin_step_size")
        return OriginMode.rankmin(
            steps=int(params["rankmin_steps"]),
            step_size=None if step_size is None else float(step_size),
        )
    return OriginMode(kind)


def _load_inputs(params: dict) -> tuple:
    if not params["pretrained"] or not params["task"]:
        raise _UsageError("--pretrained and at least one --task checkpoint are required")
    paths = [Path(params["pretrained"])] + [Path(p) for p in params["task"]]
    pretrained = load_checkpoint(paths[0])
    tasks = [load_checkpoint(p) for p in paths[1:]]
    return pretrained, tasks, paths


def _out_dir(params: dict) -> Path:
    out = Path(str(params["out_dir"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _jsonable(params: dict) -> dict:
    return {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(params.items())
    }


def _write_manifest(
    out: Path, command: str, params: dict, inputs: Sequence[Path], outputs: Sequence[Path]
) -> None:
    input_paths = list(inputs)
    if params.get("config"):
        input_paths.append(Path(str(params["config"])))
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": _jsonable(params),
        "inputs": {str(p): _sha256(Path(p)) for p in input_paths},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    _atomic_write(out / "manifest.json", lambda fh: fh.write(text.encode()))


def _trace_path(out: Path, layer: str) -> Path:
    return out / f"trace_{layer.replace('/', '__')}.csv"


def _cmd_merge(params: dict) -> int:
    pretrained, tasks, paths = _load_inputs(params)
    out = _out_dir(params)
    clf = _classifier(params["matrix_include"], params["matrix_exclude"])
    traces: dict[str, SolverTrace] = {}
    origin = select_origin(
        _origin_mode(params), pretrained, tasks, trace_out=traces, classifier=clf
    )
    tvs = prune_ranks(build_task_vectors(origin, tasks, clf), float(params["ratio"]))
    plan = MergePlan(lam=float(params["lam"]))
    merged = merge(tvs, plan)

    outputs = [out / "merged.ckpt", out / "plan.json"]
    save_checkpoint(merged, outputs[0])
    outputs[1].write_text(json.dumps(plan.to_json(), sort_keys=True, indent=2) + "\n")
    for layer in sorted(traces):
        path = _trace_path(out, layer)
        traces[layer].write_csv(path)
        outputs.append(path)
    _write_manifest(out, "merge", params, paths, outputs)
    print(f"merged {len(tasks)} checkpoints -> {outputs[0]}")
    return 0


def _cmd_index(params: dict) -> int:
    pretrained, tasks, paths = _load_inputs(params)
    out = _out_dir(params)
    clf = _classifier(params["matrix_include"], params["matrix_exclude"])
    indexed = cart_indexing(
        pretrained, tasks, float(params["ratio"]), int(params["task_index"]), clf
    )
    target = out / "indexed.ckpt"
    save_checkpoint(indexed, target)
    _write_manifest(out, "index", params, paths, [target])
    print(f"reconstructed task {params['task_index']} -> {target}")
    return 0


def _cmd_analyze(params: dict) -> int:
    pretrained, tasks, paths = _load_inputs(params)
    out = _out_dir(params)
    clf = _classifier(params["matrix_include"], params["matrix_exclude"])
    origin = select_origin(_origin_mode(params), pretrained, tasks, classifier=clf)
    tvs = build_task_vectors(origin, tasks, clf)
    ks = None if params["ks"] is None else _ints(params["ks"])
    report = interference_report(tvs, ks)
    outputs = [out / "interference.json", out / "interference.csv"]
    report.write_json(outputs[0])
    report.write_csv(outputs[1])
    _write_manifest(out, "analyze", params, paths, outputs)
    print(f"analyzed {len(report.interference)} matrix layers -> {outputs[0]}")
    return 0


def _cmd_sweep(params: dict) -> int:
    out = _out_dir(params)
    suite = classification_sweep_suite(int(params["seed"]))
    rows = rank_sweep(
        suite.pretrained,
        suite.finetuned,
        suite.evaluator,
        lambdas=_floats(params["lambdas"]),
        ratios=_floats(params["ratios"]),
    )
    target = out / "sweep.csv"
    write_sweep_csv(rows, target)
    _write_manifest(out, "sweep", params, [], [target])
    best = max(rows, key=lambda r: r.mean_accuracy)
    print(f"{len(rows)} grid cells -> {target} (best mean accuracy "
          f"{best.mean_accuracy:.4f} at ratio={best.ratio}, lambda={best.lam})")
    return 0


def _cmd_certify(params: dict) -> int:
    out = _out_dir(params)
    rng = stream(int(params["seed"]), "certify-params")
    pairs = []
    for _ in range(int(params["suites"])):
        d = int(rng.integers(4, 9))
        t = int(rng.integers(3, 5))
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, min(3, d) + 1))
        alpha = float(rng.uniform(0.2, 1.0))
        s_max = alpha * float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.5, 2.0))
        eta = float(rng.uniform(0.0, 0.5))
        suite = generate_suite(
            d, t, n, r, alpha, s_max, c, eta, seed=int(rng.integers(0, 2**31))
        )
        pairs.append((suite, certify_bound(suite)))
    target = out / "certificates.jsonl"
    write_certificates(pairs, target)
    _write_manifest(out, "certify", params, [], [target])
    failures = sum(1 for _, cert in pairs if not cert.holds)
    print(f"{len(pairs) - failures}/{len(pairs)} certificates hold -> {target}")
    return 1 if failures else 0


def _cmd_adapt(params: dict) -> int:
    out = _out_dir(params)
    suite = signal_noise_suite(int(params["seed"]))
    origin = weight_average(suite.finetuned)
    tvs = prune_ranks(build_task_vectors(origin, suite.finetuned), float(params["ratio"]))
    table, history = adapt_coefficients(
        tvs, suite.template, [suite.batch],
        steps=int(params["iters"]), lr=float(params["lr"]),
    )
    outputs = [out / "adaptation.csv", out / "coefficients.json"]
    write_adaptation_csv(history, outputs[0])
    plan = MergePlan(table=table.as_mapping())
    outputs[1].write_text(json.dumps(plan.to_json(), sort_keys=True, indent=2) + "\n")
    _write_manifest(out, "adapt", params, [], outputs)
    print(f"entropy {history[0][1]:.4f} -> {history[-1][1]:.4f} over "
          f"{params['iters']} steps; coefficients in {outputs[1]}")
    return 0


def _cmd_samplesize(params: dict) -> int:
    m = sample_size(
        float(params["a"]), float(params["b"]),
        float(params["epsilon"]), float(params["z"]),
    )
    print(m)
    if params["out_dir"] is not None:
        out = _out_dir(params)
        target = out / "samplesize.json"
        target.write_text(json.dumps({"m": m}, sort_keys=True) + "\n")
        _write_manifest(out, "samplesize", params, [], [target])
    return 0


_COMMANDS: dict[str, Callable[[dict], int]] = {
    "merge": _cmd_merge,
    "index": _cmd_index,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "adapt": _cmd_adapt,
    "samplesize": _cmd_samplesize,
}


def _add_common(sub: argparse.ArgumentParser, seeded: bool = False) -> None:
    """``--config`` and ``--out-dir``; ``--seed`` only for the synthetic
    studies, the commands that draw random numbers."""
    if seeded:
        sub.add_argument("--seed", type=int, default=None, help="base seed for all randomness")
    sub.add_argument("--config", default=None, help="JSON file of parameter defaults")
    sub.add_argument("--out-dir", dest="out_dir", default=None, help="directory for outputs")


def _add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pretrained", default=None, help="pretrained checkpoint path")
    sub.add_argument("--task", action="append", default=[], help="fine-tuned checkpoint (repeatable)")
    sub.add_argument("--matrix-include", action="append", default=[], dest="matrix_include",
                     help="glob of names to keep on the SVD path")
    sub.add_argument("--matrix-exclude", action="append", default=[], dest="matrix_exclude",
                     help="glob of names to force onto the averaging path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmerge",
        description="Training-free model merging with rank-reduced, re-centered task vectors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("merge", help="merge checkpoints around a chosen origin")
    _add_checkpoint_flags(p)
    p.add_argument("--ratio", type=float, default=None, help="retained rank ratio (default 0.08)")
    p.add_argument("--lam", type=float, default=None, help="global merging coefficient")
    p.add_argument("--origin", choices=["mean", "pretrained", "rankmin"], default=None)
    p.add_argument("--rankmin-steps", dest="rankmin_steps", type=int, default=None)
    p.add_argument("--rankmin-step-size", dest="rankmin_step_size", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("index", help="reconstruct one task's model from the shared origin")
    _add_checkpoint_flags(p)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--task-index", dest="task_index", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("analyze", help="interference and reconstruction diagnostics")
    _add_checkpoint_flags(p)
    p.add_argument("--origin", choices=["mean", "pretrained", "rankmin"], default=None)
    p.add_argument("--rankmin-steps", dest="rankmin_steps", type=int, default=None)
    p.add_argument("--rankmin-step-size", dest="rankmin_step_size", type=float, default=None)
    p.add_argument("--ks", default=None, help="comma list of ranks to evaluate (default: all)")
    _add_common(p)

    p = subs.add_parser("sweep", help="accuracy over a (ratio, lambda) grid on a synthetic suite")
    p.add_argument("--ratios", default=None, help="comma list of rank ratios")
    p.add_argument("--lambdas", default=None, help="comma list of merging coefficients")
    _add_common(p, seeded=True)

    p = subs.add_parser("certify", help="evaluate the interference bound on random suites")
    p.add_argument("--suites", type=int, default=None, help="number of synthetic instances")
    _add_common(p, seeded=True)

    p = subs.add_parser("adapt", help="entropy-descend merging coefficients on a synthetic suite")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None, help="rank ratio for the adapted deltas")
    _add_common(p, seeded=True)

    p = subs.add_parser("samplesize", help="evaluation samples needed for a CLT interval")
    p.add_argument("--a", type=float, default=None, help="metric lower bound")
    p.add_argument("--b", type=float, default=None, help="metric upper bound")
    p.add_argument("--epsilon", type=float, default=None, help="interval half-width")
    p.add_argument("--z", type=float, default=None, help="standard-error multiplier")
    _add_common(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        params = _resolve(args.command, args)
        return _COMMANDS[args.command](params)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RankmergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
