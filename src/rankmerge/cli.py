"""Command-line driver.

Seven subcommands cover the pipeline: ``merge`` and ``index`` operate on
checkpoint files, ``analyze`` reports overlap diagnostics for a set of
checkpoints, ``sweep``/``certify``/``adapt`` run the built-in synthetic
studies, and ``samplesize`` prints the evaluation-set planning number.
Only the three studies draw random numbers, so only they take ``--seed``.

Each parameter is one flag with its default and a checking type. A
``--config`` JSON entry is parsed by the flag it names and becomes the
default, so CLI flag > config entry > built-in default. Commands that write
files also write a ``manifest.json`` recording the parsed parameters and
the SHA-256 of every input and output, taken as it is read or written —
no timestamps, so identical runs produce byte-identical artifacts.

Each command only computes: it returns its artifacts, and :func:`main`
writes them once it has returned, through a staging directory inside
``--out-dir``: a bad input leaves nothing on disk, and a failed write no
manifest that names other files.

Exit codes: 0 on success, 1 on a domain error (bad inputs, failed
certificate), 2 on usage errors. A ``--ratio`` outside [0, 1] is a domain
error, rejected before any work. A failed certificate is written before
the exit 1.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .adaptation import adapt_coefficients, write_adaptation_csv
from .bounds import certificate_json_line, certify_suites
from .errors import FormatError, RankmergeError
from .interference import _check_ks, interference_report, rank_sweep, sample_size, write_sweep_csv
from .merge import _check_ratio, build_task_vectors, cart_indexing, cart_merge, weight_average
from .origin import SolverTrace, select_origin
from .pool import run_jobs
from .rng import stream
from .tensor_store import (
    Classifier,
    _load_hashed,
    _unique_keys,
    _write_json,
    _write_text,
    classify,
    save_checkpoint,
)
from .toysuites import classification_sweep_suite, signal_noise_suite

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _finite(text: str) -> float:
    """Type of a number flag: NaN and the infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Type of a count flag: anything but a positive integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


class _CommaList:
    """Type of a comma-list flag: each non-empty item is parsed by ``item``,
    and a list with no item is a usage error."""

    def __init__(self, item: Callable[[str], object]):
        self.item = item
        self.__name__ = f"comma list of {item.__name__}"

    def __call__(self, text: str) -> list:
        items = [self.item(x) for x in text.split(",") if x.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"no item in the list {text!r}")
        return items


class _Repeatable(argparse.Action):
    """A flag that may be given many times. The first use replaces the
    default, so ``--task`` on the command line replaces a config's list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if items is self.default else items), values])


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: ``--config`` entries, each parsed by the flag
    it names, become defaults, and the command line is parsed on top."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if parsed.config:
            defaults, digest = self._config_defaults(parsed.config)
            self.set_defaults(**defaults)
            parsed, extras = super().parse_known_args(args, namespace)
            parsed.config_sha256 = digest  # no flag: the manifest's, not a parameter
        return parsed, extras

    def _config_defaults(self, path: str) -> tuple[dict, str]:
        """The config's defaults, and the SHA-256 of the bytes they were parsed from."""
        try:
            data = Path(path).read_bytes()
            entries = json.loads(data.decode(), object_pairs_hook=_unique_keys)
        except (OSError, ValueError, FormatError) as exc:
            self.error(f"cannot read config {path}: {exc}")
        if not isinstance(entries, dict):
            self.error(f"config {path} does not hold a JSON object")
        unknown = sorted(set(entries) - (set(self.flags) - {"help", "config"}))
        if unknown:
            self.error(f"config keys {unknown} are not parameters of this command")
        given = {key: value for key, value in entries.items() if value is not None}
        words = [word for key, value in given.items() for word in self._words(key, value)]
        parsed, _ = super().parse_known_args(words)
        return {key: getattr(parsed, key) for key in given}, hashlib.sha256(data).hexdigest()

    def _words(self, key: str, value: object) -> list[str]:
        """Command-line words giving ``value`` to the flag ``key`` names."""
        action = self.flags[key]
        flag = action.option_strings[0]
        items = value if isinstance(value, list) else [value]
        lists = isinstance(action, _Repeatable) or isinstance(action.type, _CommaList)
        if (isinstance(value, list) and not lists) or any(isinstance(x, (list, dict)) for x in items):
            self.error(f"config entry {key!r}: {json.dumps(value)} is not a value of {flag}")
        texts = [x if isinstance(x, str) else json.dumps(x) for x in items]
        if isinstance(action, _Repeatable):
            return [f"{flag}={text}" for text in texts]
        return [f"{flag}={','.join(texts)}"]


def _classifier(includes: Sequence[str], excludes: Sequence[str]) -> Classifier:
    """Shape-based classification, narrowed by name globs.

    Excluded names always average; when include patterns are given, only
    matching names stay on the SVD path. Shape eligibility is never
    widened — a bias vector stays non-matrix no matter what it is named.
    """
    return lambda name, tensor: (
        classify(name, tensor)
        and not any(fnmatch.fnmatchcase(name, pat) for pat in excludes)
        and (not includes or any(fnmatch.fnmatchcase(name, pat) for pat in includes)))


def _load_inputs(args: argparse.Namespace, task_index: int = 0) -> tuple:
    """The ``--pretrained`` and ``--task`` checkpoints, and the SHA-256 of
    each by path: each file is read once, as a job on the pool, and its
    digest is of the bytes that were loaded. A ``task_index`` outside
    [0, number of ``--task``) raises ``IndexError`` before any file is read."""
    if not args.pretrained or not args.task:
        raise _UsageError("--pretrained and at least one --task checkpoint are required")
    if not 0 <= task_index < len(args.task):
        raise IndexError(f"--task-index {task_index} outside [0, {len(args.task)})")
    paths = [Path(args.pretrained)] + [Path(p) for p in args.task]
    loaded = run_jobs(paths, _load_hashed)
    digests = {str(path): digest for path, (_, digest) in zip(paths, loaded)}
    return loaded[0][0], [tmap for tmap, _ in loaded[1:]], digests


# What a command computed: the SHA-256 of each input by path, its artifacts in
# write order (file name -> writer of the target path, returning the SHA-256 of
# what it wrote), its stdout line and its exit status. ``main`` does the writing.
Artifacts = dict[str, Callable[[Path], str]]
Outcome = tuple[dict[str, str], Artifacts, str, int]


def _trace_file_name(layer: str) -> str:
    """``trace_<layer>.csv`` with ``%`` escaped as ``%25``, then ``/`` as
    ``%2F``: one file per layer name, and a name holding neither is kept.
    A name over 200 bytes keeps its first 179 and ends in ``~``, 16 hex
    digits of the layer name's SHA-256 and ``.csv``: with the temporary
    file's suffix it stays within the file system's 255."""
    name = f"trace_{layer.replace('%', '%25').replace('/', '%2F')}.csv"
    if len(name.encode()) <= 200:
        return name
    head = name.encode()[:179].decode(errors="ignore")
    return f"{head}~{hashlib.sha256(layer.encode()).hexdigest()[:16]}.csv"


def _cmd_merge(args: argparse.Namespace) -> Outcome:
    pretrained, tasks, inputs = _load_inputs(args)
    clf = _classifier(args.matrix_include, args.matrix_exclude)
    # Every trace file name is known before the solve, whatever the origin.
    files = {name: _trace_file_name(name) for name, a in pretrained.items() if clf(name, a)}
    if len(set(files.values())) < len(files):
        raise ValueError("two matrix layers share one trace file name")
    traces: dict[str, SolverTrace] = {}
    origin = select_origin(args.origin, pretrained, tasks, trace_out=traces, classifier=clf,
                           rankmin_steps=args.rankmin_steps)
    merged = cart_merge(origin, tasks, args.ratio, args.lam, clf)
    target = Path(args.out_dir) / "merged.ckpt"
    artifacts: Artifacts = {
        target.name: lambda path: save_checkpoint(merged, path),
        "plan.json": lambda path: _write_json(path, {"coefficients": {"global": args.lam}}),
    }
    for layer in sorted(traces):
        artifacts[files[layer]] = traces[layer].write_csv
    return inputs, artifacts, f"merged {len(tasks)} checkpoints -> {target}", 0


def _cmd_index(args: argparse.Namespace) -> Outcome:
    pretrained, tasks, inputs = _load_inputs(args, args.task_index)
    clf = _classifier(args.matrix_include, args.matrix_exclude)
    origin = select_origin("mean", pretrained, tasks)
    indexed = cart_indexing(origin, tasks, args.ratio, args.task_index, clf)
    target = Path(args.out_dir) / "indexed.ckpt"
    line = f"reconstructed task {args.task_index} -> {target}"
    return inputs, {target.name: lambda path: save_checkpoint(indexed, path)}, line, 0


def _cmd_analyze(args: argparse.Namespace) -> Outcome:
    pretrained, tasks, inputs = _load_inputs(args)
    clf = _classifier(args.matrix_include, args.matrix_exclude)
    matrices = {name: a.shape for name, a in pretrained.items() if clf(name, a)}
    _check_ks(matrices, len(tasks), args.ks)  # before the origin solve and any SVD
    origin = select_origin(args.origin, pretrained, tasks, classifier=clf,
                           rankmin_steps=args.rankmin_steps)
    report = interference_report(build_task_vectors(origin, tasks, clf), args.ks)
    artifacts = {"interference.json": report.write_json, "interference.csv": report.write_csv}
    target = Path(args.out_dir) / "interference.json"
    return inputs, artifacts, f"analyzed {len(report.interference)} matrix layers -> {target}", 0


def _cmd_sweep(args: argparse.Namespace) -> Outcome:
    suite = classification_sweep_suite(args.seed)
    origin = select_origin("mean", suite.pretrained, suite.finetuned)
    rows = rank_sweep(origin, suite.finetuned, suite.evaluator, args.lambdas, args.ratios)
    best = max(rows, key=lambda r: r.mean_accuracy)
    target = Path(args.out_dir) / "sweep.csv"
    line = (f"{len(rows)} grid cells -> {target} (best mean accuracy "
            f"{best.mean_accuracy:.4f} at ratio={best.ratio}, lambda={best.lam})")
    return {}, {target.name: lambda path: write_sweep_csv(rows, path)}, line, 0


def _cmd_certify(args: argparse.Namespace) -> Outcome:
    rng = stream(args.seed, "certify-params")
    specs = []
    for _ in range(args.suites):
        d = int(rng.integers(4, 9))
        t = int(rng.integers(3, 5))
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, min(3, d) + 1))
        alpha = float(rng.uniform(0.2, 1.0))
        s_max = alpha * float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.5, 2.0))
        eta = float(rng.uniform(0.0, 0.5))
        specs.append((d, t, n, r, alpha, s_max, c, eta, int(rng.integers(0, 2**31))))
    # Keep the lines, not the suites: only one chunk of suites is held at a time.
    lines, failures = [], 0
    for suite, cert in certify_suites(specs):
        lines.append(certificate_json_line(suite, cert) + "\n")
        failures += not cert.holds
    text = "".join(lines)
    target = Path(args.out_dir) / "certificates.jsonl"
    line = f"{len(lines) - failures}/{len(lines)} certificates hold -> {target}"
    return {}, {target.name: lambda path: _write_text(path, text)}, line, int(failures > 0)


def _cmd_adapt(args: argparse.Namespace) -> Outcome:
    suite = signal_noise_suite(args.seed)
    origin = weight_average(suite.finetuned)
    tvs = build_task_vectors(origin, suite.finetuned, rank_ratio=args.ratio)
    values, history = adapt_coefficients(
        tvs, suite.template, [suite.batch], steps=args.iters, lr=args.lr
    )
    per_task_layer = {
        str(t): {name: float(values[t, l]) for l, name in enumerate(tvs.matrix_names())}
        for t in range(tvs.task_count)
    }
    artifacts = {
        "adaptation.csv": lambda path: write_adaptation_csv(history, path),
        "coefficients.json": lambda path: _write_json(
            path, {"coefficients": {"per_task_layer": per_task_layer}}),
    }
    line = (f"entropy {history[0][1]:.4f} -> {history[-1][1]:.4f} over "
            f"{args.iters} steps; coefficients in {Path(args.out_dir) / 'coefficients.json'}")
    return {}, artifacts, line, 0


def _cmd_samplesize(args: argparse.Namespace) -> Outcome:
    m = sample_size(args.a, args.b, args.epsilon, args.z)
    return {}, {"samplesize.json": lambda path: _write_json(path, {"m": m}, indent=None)}, str(m), 0


def _write_outputs(args: argparse.Namespace, inputs: dict[str, str],
                   artifacts: Artifacts) -> None:
    """Write each artifact in order, then ``manifest.json`` (the parsed
    parameters and the SHA-256 of every input and output, each taken as it
    was read, parsed or written), into a fresh staging directory inside
    ``--out-dir``; then remove the old manifest and move each file into
    place, the manifest last. A failed write leaves the out-dir as it was,
    and a failed move no manifest; either removes the staging directory and
    the directories this created."""
    out = Path(args.out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = out / f".staging.{os.getpid()}.{os.urandom(4).hex()}"
    try:
        stage.mkdir()
        outputs = {name: write(stage / name) for name, write in artifacts.items()}
        if args.config:
            inputs = {**inputs, str(Path(args.config)): args.config_sha256}
        _write_json(stage / "manifest.json", {
            "command": args.command,
            "version": __version__,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in ("command", "config_sha256")},
            "inputs": inputs,
            "outputs": outputs,
        })
        (out / "manifest.json").unlink(missing_ok=True)
        for name in [*outputs, "manifest.json"]:
            os.replace(stage / name, out / name)
    except BaseException:
        shutil.rmtree(created[-1] if created else stage, ignore_errors=True)
        raise
    stage.rmdir()


_COMMANDS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "merge": _cmd_merge,
    "index": _cmd_index,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "adapt": _cmd_adapt,
    "samplesize": _cmd_samplesize,
}


def _add_common(sub: argparse.ArgumentParser, out_dir: str | None = ".",
                seeded: bool = False) -> None:
    """``--config`` and ``--out-dir``; ``--seed`` only for the synthetic
    studies, the commands that draw random numbers."""
    if seeded:
        sub.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    sub.add_argument("--config", help="JSON file of parameter defaults")
    sub.add_argument("--out-dir", dest="out_dir", default=out_dir, help="directory for outputs")


def _add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pretrained", help="pretrained checkpoint path")
    sub.add_argument("--task", action=_Repeatable, default=[],
                     help="fine-tuned checkpoint (repeatable)")
    sub.add_argument("--matrix-include", action=_Repeatable, default=[], dest="matrix_include",
                     help="glob of names to keep on the SVD path")
    sub.add_argument("--matrix-exclude", action=_Repeatable, default=[], dest="matrix_exclude",
                     help="glob of names to force onto the averaging path")


def _add_origin_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--origin", choices=["mean", "pretrained", "rankmin"], default="mean",
                     help="origin the task vectors are taken from")
    sub.add_argument("--rankmin-steps", dest="rankmin_steps", type=_positive_int, default=20,
                     help="solver steps of the rankmin origin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmerge",
        description="Training-free model merging with rank-reduced, re-centered task vectors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = subs.add_parser("merge", help="merge checkpoints around a chosen origin")
    _add_checkpoint_flags(p)
    p.add_argument("--ratio", type=_finite, default=0.08, help="retained rank ratio")
    p.add_argument("--lam", type=_finite, default=0.3, help="global merging coefficient")
    _add_origin_flags(p)
    _add_common(p)

    p = subs.add_parser("index", help="reconstruct one task's model from the shared origin")
    _add_checkpoint_flags(p)
    p.add_argument("--ratio", type=_finite, default=0.08, help="retained rank ratio")
    p.add_argument("--task-index", dest="task_index", type=int, default=0, help="task to rebuild")
    _add_common(p)

    p = subs.add_parser("analyze", help="interference and reconstruction diagnostics")
    _add_checkpoint_flags(p)
    _add_origin_flags(p)
    p.add_argument("--ks", type=_CommaList(int),
                   help="comma list of ranks to evaluate; none means every rank")
    _add_common(p)

    p = subs.add_parser("sweep", help="accuracy over a (ratio, lambda) grid on a synthetic suite")
    p.add_argument("--ratios", type=_CommaList(_finite),
                   default=[0.0, 0.04, 0.08, 0.16, 0.32, 1.0], help="comma list of rank ratios")
    p.add_argument("--lambdas", type=_CommaList(_finite), default=[1.0],
                   help="comma list of merging coefficients")
    _add_common(p, seeded=True)

    p = subs.add_parser("certify", help="evaluate the interference bound on random suites")
    p.add_argument("--suites", type=_positive_int, default=100, help="number of synthetic instances")
    _add_common(p, seeded=True)

    p = subs.add_parser("adapt", help="entropy-descend merging coefficients on a synthetic suite")
    p.add_argument("--iters", type=_positive_int, default=30, help="descent steps")
    p.add_argument("--lr", type=_finite, default=0.01, help="descent step size")
    p.add_argument("--ratio", type=_finite, default=1.0, help="rank ratio for the adapted deltas")
    _add_common(p, seeded=True)

    p = subs.add_parser("samplesize", help="evaluation samples needed for a CLT interval")
    p.add_argument("--a", type=_finite, default=0.0, help="metric lower bound")
    p.add_argument("--b", type=_finite, default=1.0, help="metric upper bound")
    p.add_argument("--epsilon", type=_finite, default=0.05, help="interval half-width")
    p.add_argument("--z", type=_finite, default=1.96, help="standard-error multiplier")
    _add_common(p, out_dir=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "ratio" in args:
            _check_ratio(args.ratio)
        inputs, artifacts, line, status = _COMMANDS[args.command](args)
        if args.out_dir is not None:
            _write_outputs(args, inputs, artifacts)
        print(line)
        return status
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RankmergeError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
