"""rankmerge benchmark: run the CLI as a user would and report what it cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from ``--seed``, then acts as one closed-loop client: it
runs the workload's commands one after another, each in a fresh
interpreter, and repeats that pass until ``--seconds`` have gone by (at
least once). Wall time, CPU time and peak RSS of each command come from
``os.wait4`` on that child alone. Every output is checked by the
benchmark's own code outside the timed region, and repeated commands must
write byte-identical files.

With ``--trace 1`` one extra pass runs each command under ``trace_cli.py``,
which wraps every layer's public functions in spans; the per-layer metrics
come from that pass, and ``trace.overhead_s`` is its total minus the median
untraced total. End-to-end metrics are only ever taken with tracing off.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Human-readable detail goes before
it, and the full record (environment, input digests, every sample, spans)
goes to ``.perfbench_work/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread for the program and for the benchmark's own numpy work: on
# a small machine shared with other work, one thread keeps timings steadier
# and makes added threads visible in cpu_s.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Every run must end well inside 180 s; commands still running at this
# point are killed and count as failed.
DEADLINE_S = 165.0
# Each set-up burst regenerates the inputs for at least this long; one burst
# runs before the first pass and one after every pass, so set-up time is
# sampled across the whole run, like the passes it is compared with.
SETUP_BURST_S = 0.3
TASKS = 4


@dataclass
class Command:
    label: str
    args: list[str]
    out_dir: Path


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    problems: list[str]


def checkpoint_args(pre: Path, tasks: list[Path]) -> list[str]:
    args = ["--pretrained", str(pre)]
    for path in tasks:
        args += ["--task", str(path)]
    return args


class Workload:
    """Inputs written under ``work/inputs`` from ``seed``, the commands of one
    pass, and the check of each command's output."""

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def write_inputs(
        self, subdir: str, layers, dtype: str, rank: int, decay: float
    ) -> tuple[Path, list[Path]]:
        pre, tasks = inputs.planted_checkpoints(
            self.seed, f"{self.name}/{subdir}", layers, TASKS, dtype, rank=rank, decay=decay)
        return inputs.write_set(self.work / "inputs" / subdir, pre, tasks)


class VitMerge(Workload):
    """merge --origin mean and index on one ViT-B block, T=4 float32 tasks."""

    name = "vit-merge"
    ratio, lam = 0.08, 0.3

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        matrices = sorted(n for n, s in inputs.VIT_B_BLOCK.items() if len(s) == 2)
        # One matrix layer per run is recomputed exactly; seeds rotate it.
        self.layer = matrices[seed % len(matrices)]
        self.task_index = seed % TASKS

    def generate(self) -> list[Path]:
        self.pre, self.tasks = self.write_inputs(
            "vit", inputs.VIT_B_BLOCK, "float32", rank=128, decay=0.96)
        return [self.pre, *self.tasks]

    def commands(self) -> list[Command]:
        ckpts = checkpoint_args(self.pre, self.tasks)
        return [
            Command("merge", ["merge", *ckpts, "--origin", "mean", "--ratio", str(self.ratio),
                              "--lam", str(self.lam)], self.work / "merge"),
            Command("index", ["index", *ckpts, "--ratio", str(self.ratio),
                              "--task-index", str(self.task_index)], self.work / "index"),
        ]

    def prepare_checks(self) -> None:
        tasks = [inputs.read_checkpoint(p) for p in self.tasks]
        self.names = set(tasks[0])
        self.expected = {
            "merge": checks.merge_expected(tasks, self.layer, self.ratio, self.lam),
            "index": checks.index_expected(tasks, self.layer, self.ratio, self.task_index),
        }

    def check(self, command: Command) -> list[str]:
        target = {"merge": "merged.ckpt", "index": "indexed.ckpt"}[command.label]
        return checks.check_checkpoint(
            command.out_dir / target, self.names, self.expected[command.label])


class SyntheticStudies(Workload):
    """analyze with default ks, certify, sweep, adapt and a rankmin merge:
    many small matrices."""

    name = "synthetic-studies"
    suites = 1000
    ratios = [round(i / 24, 6) for i in range(25)]
    lambdas = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    iters = 300
    steps = 100

    def generate(self) -> list[Path]:
        self.curve = self.write_inputs("curve", inputs.CURVE_LAYERS, "float32", rank=24, decay=0.85)
        self.rankmin = self.write_inputs(
            "rankmin", inputs.RANKMIN_LAYERS, "float64", rank=16, decay=0.8)
        return [self.curve[0], *self.curve[1], self.rankmin[0], *self.rankmin[1]]

    def commands(self) -> list[Command]:
        seed = ["--seed", str(self.seed)]
        return [
            Command("analyze", ["analyze", *checkpoint_args(*self.curve)], self.work / "analyze"),
            Command("certify", ["certify", "--suites", str(self.suites), *seed],
                    self.work / "certify"),
            Command("sweep", ["sweep", "--ratios", ",".join(map(str, self.ratios)),
                              "--lambdas", ",".join(map(str, self.lambdas)), *seed],
                    self.work / "sweep"),
            Command("adapt", ["adapt", "--iters", str(self.iters), *seed], self.work / "adapt"),
            Command("merge", ["merge", *checkpoint_args(*self.rankmin),
                              "--origin", "rankmin", "--rankmin-steps", str(self.steps)],
                    self.work / "rankmin"),
        ]

    def prepare_checks(self) -> None:
        self.curve_maps = [inputs.read_checkpoint(p) for p in self.curve[1]]
        self.rankmin_maps = [inputs.read_checkpoint(p) for p in self.rankmin[1]]

    def check(self, command: Command) -> list[str]:
        out = command.out_dir
        if command.label == "analyze":
            return checks.check_analyze(out / "interference.json", self.curve_maps)
        if command.label == "certify":
            return checks.check_certify(out / "certificates.jsonl", self.suites)
        if command.label == "sweep":
            return checks.check_sweep(out / "sweep.csv", self.ratios, self.lambdas)
        if command.label == "adapt":
            return checks.check_adapt(out, self.iters)
        return checks.check_rankmin(out, self.rankmin_maps, self.steps)


WORKLOADS = {w.name: w for w in (VitMerge, SyntheticStudies)}


def environment(paths: list[Path], digests: list[str]) -> dict:
    """What the numbers depend on: interpreter, numpy and BLAS, cores, LLC, inputs."""
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg['name']} {blas_cfg['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        getconf = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
        llc = int(getconf.stdout.strip() or -1)
    except (OSError, ValueError):
        llc = -1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "machine": platform.machine(),
        "input_bytes": sum(p.stat().st_size for p in paths),
        "input_sha256": {str(p.relative_to(p.parents[1])): d for p, d in zip(paths, digests)},
    }


def run_command(argv: list[str], log: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run one child; wall seconds, user+sys seconds, peak RSS in MiB, exit code.

    ``os.wait4`` reports the rusage of this child alone. A child still
    running at ``deadline`` (``time.monotonic``), or when the benchmark is
    interrupted, is killed and waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


CLI = [sys.executable, "-c", "import sys; from rankmerge.cli import main; sys.exit(main())"]


class Runner:
    """Runs passes of a workload's commands and judges every output."""

    def __init__(self, workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.first_digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, command: Command, returncode: int) -> list[str]:
        """Problems with one command's run; counts it as attempted/failed."""
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit status {returncode}"]
        else:
            digests = checks.digests(command.out_dir)
            first = self.first_digests.get(command.label)
            if first is None:
                try:
                    problems = self.workload.check(command)
                except Exception as exc:  # a check must never stop the run
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if not problems:
                    self.first_digests[command.label] = digests
            else:
                problems = [] if digests == first else ["outputs differ from the first run"]
        if problems:
            self.failed += 1
        return problems

    def run_pass(self, tag: str, traced: bool = False) -> tuple[list[Sample], list[dict]]:
        samples, traces = [], []
        for command in self.workload.commands():
            shutil.rmtree(command.out_dir, ignore_errors=True)
            command.out_dir.mkdir(parents=True)
            argv = CLI + command.args + ["--out-dir", str(command.out_dir)]
            trace_file = command.out_dir.parent / f"spans-{tag}-{command.label}.json"
            if traced:
                argv = [sys.executable, str(HERE / "trace_cli.py"), str(trace_file)] + argv[3:]
            log = command.out_dir.parent / f"log-{tag}-{command.label}.txt"
            wall, cpu, rss, code = run_command(argv, log, self.deadline)
            samples.append(Sample(command.label, wall, cpu, rss, code, self.judge(command, code)))
            if traced and trace_file.exists():
                run_id = f"{self.workload.name}-seed{self.workload.seed}-{tag}-{command.label}"
                traces.append({"run_id": run_id, **json.loads(trace_file.read_text())})
                trace_file.unlink()
        return samples, traces


def percentile_summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def setup(workload, digests: list[str] | None = None) -> tuple[list[float], list[Path], list[str]]:
    """One burst of input generation; the bytes must never change."""
    times: list[float] = []
    while not times or (sum(times) < SETUP_BURST_S and len(times) < 50):
        shutil.rmtree(workload.work / "inputs", ignore_errors=True)
        start = time.perf_counter()
        paths = workload.generate()
        times.append(time.perf_counter() - start)
        got = [inputs.sha256_file(p) for p in paths]
        if digests is None:
            digests = got
        elif got != digests:
            raise RuntimeError("the input generator gave different bytes for one seed")
    return times, paths, digests


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rankmerge" / "cli.py").is_file():
        print(f"error: no rankmerge sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, started: float) -> int:
    workload = WORKLOADS[args.workload](args.seed, work)
    setup_times, paths, digests = setup(workload)
    env = environment(paths, digests)
    workload.prepare_checks()
    runner = Runner(workload, started + DEADLINE_S)

    passes: list[list[Sample]] = []
    begin = time.monotonic()
    # A traced pass costs about two untraced ones; keep room for it.
    reserve = 2.5 if args.trace else 1.2
    while True:
        samples, _ = runner.run_pass(f"pass{len(passes)}")
        passes.append(samples)
        setup_times += setup(workload, digests)[0]
        now = time.monotonic()
        last = sum(s.wall_s for s in samples)
        if now - begin >= args.seconds or now + reserve * last > started + DEADLINE_S:
            break

    totals = [sum(s.wall_s for s in p) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "total_s": (statistics.median(totals), "s"),
        "cpu_s": (statistics.median(sum(s.cpu_s for s in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(s.rss_mb for s in p) for p in passes), "MB"),
    }
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "setup_s": setup_times, "passes": [[vars(s) for s in p] for p in passes]}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced: list[Sample] = []
    traces: list[dict] = []
    if args.trace:
        traced, traces = runner.run_pass("traced", traced=True)
        layer = spans.layer_metrics(traces)
        layer["trace.overhead_s"] = sum(s.wall_s for s in traced) - statistics.median(totals)
        record["traced_pass"] = [vars(s) for s in traced]
        record["layer_metrics"] = layer
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")
    report(env, setup_times, passes, traced, runner, metrics)
    for trace in traces:
        counters = trace["counters"]
        print(f"{trace['run_id']}: kernels.svd_calls {counters.get('kernels.svd_calls', 0)}, "
              f"distinct inputs {counters.get('kernels.svd_distinct_inputs', 0)}")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(traces, separators=(",", ":")))

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(env, setup_times, passes, traced, runner, metrics) -> None:
    print("environment " + json.dumps({k: v for k, v in env.items() if k != "input_sha256"}))
    print(f"setup_s {percentile_summary(setup_times)}")
    for label in [s.label for s in passes[0]]:
        walls = [s.wall_s for p in passes for s in p if s.label == label]
        rss = max(s.rss_mb for p in passes for s in p if s.label == label)
        print(f"{label}_s {percentile_summary(walls)}, peak RSS {rss:.1f} MB")
    print(f"total_s {percentile_summary([sum(s.wall_s for s in p) for p in passes])}")
    print(f"failed_frac {runner.failed}/{runner.attempted}")
    for p in passes + [traced]:
        for s in p:
            for problem in s.problems:
                print(f"FAILED {s.label}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


if __name__ == "__main__":
    sys.exit(main())
