"""Command-line driver tests, run in process through ``main(argv)``.

Covers the exit-code contract (0 success / 1 domain error / 2 usage error),
the flag > config > default resolution order, and the manifest that makes
runs auditable and reproducible.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from rankmerge import (
    TensorMap,
    build_task_vectors,
    load_checkpoint,
    merge,
    save_checkpoint,
    select_origin,
    weight_average,
)
from rankmerge import cli, tensor_store
from rankmerge.cli import _COMMANDS, build_parser, main
from rankmerge.rng import stream

from conftest import random_tensor_map

SHAPES = {"enc.0.weight": (8, 6), "enc.1.weight": (5, 5), "enc.0.bias": (8,)}


@pytest.fixture
def checkpoints(tmp_path):
    g = stream(0, "cli-tests")
    paths = []
    for i, name in enumerate(["pre", "task0", "task1", "task2"]):
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(random_tensor_map(g, SHAPES), path)
        paths.append(str(path))
    return paths[0], paths[1:]


def _merge_args(pretrained, tasks, out, extra=()):
    argv = ["merge", "--pretrained", pretrained]
    for t in tasks:
        argv += ["--task", t]
    return argv + ["--out-dir", str(out), *extra]


def _config(tmp_path, entries) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return str(path)


def _parameters(out) -> dict:
    return json.loads((out / "manifest.json").read_text())["parameters"]


# ---------------------------------------------------------------------------
# exit codes


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "rankmerge" in capsys.readouterr().out


def test_merge_without_inputs_is_a_usage_error(tmp_path, capsys):
    assert main(["merge", "--out-dir", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_missing_checkpoint_file_is_a_domain_error(tmp_path, capsys):
    argv = _merge_args(str(tmp_path / "nope.ckpt"), [str(tmp_path / "nope2.ckpt")], tmp_path)
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_bad_samplesize_range_is_a_domain_error(capsys):
    assert main(["samplesize", "--a", "1.0", "--b", "1.0"]) == 1
    capsys.readouterr()


def test_out_of_range_task_index_is_a_domain_error(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    argv = ["index", "--pretrained", pretrained, "--task", tasks[0],
            "--task-index", "5", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("index", ["5", "-1"])
def test_out_of_range_task_index_is_rejected_before_any_input_is_read(tmp_path, capsys,
                                                                      monkeypatch, index):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_hashed", unread)
    out = tmp_path / "out"
    argv = ["index", "--pretrained", str(tmp_path / "pre.ckpt"), "--task",
            str(tmp_path / "task0.ckpt"), "--task-index", index, "--out-dir", str(out)]
    assert main(argv) == 1
    assert f"--task-index {index} outside [0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["merge", "index", "analyze"])
@pytest.mark.parametrize("holder", ["pretrained", "task"])
def test_non_finite_bias_is_a_domain_error(checkpoints, tmp_path, capsys, holder, command):
    pretrained, tasks = checkpoints
    path = pretrained if holder == "pretrained" else tasks[1]
    ckpt = load_checkpoint(path)
    bias = ckpt["enc.0.bias"].copy()
    bias[3] = np.nan
    save_checkpoint(TensorMap({**dict(ckpt.items()), "enc.0.bias": bias}), path)
    out = tmp_path / "out"
    assert main([command, *_merge_args(pretrained, tasks, out)[1:]]) == 1
    assert "enc.0.bias" in capsys.readouterr().err
    assert not out.exists()


def test_samplesize_overflow_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "ss"
    assert main(["samplesize", "--epsilon", "1e-300", "--out-dir", str(out)]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["merge", "--lam", "nan"], None),
        (["merge", "--lam", "inf"], None),
        (["samplesize", "--z", "inf"], None),
        (["certify"], {"suites": 2.5}),
        (["index"], {"task_index": 1.7}),
        (["adapt"], {"iters": True}),
        (["merge"], {"origin": "bogus"}),
        (["analyze", "--ks", "1.5"], None),
        (["merge"], {"lam": float("nan")}),
        (["merge"], {"ratio": [0.1]}),
        (["sweep", "--ratios", ""], None),
        (["sweep", "--lambdas", " , "], None),
        (["analyze", "--ks", ""], None),
        (["sweep"], {"lambdas": []}),
        (["certify", "--suites", "0"], None),
        (["adapt", "--iters", "0"], None),
        (["adapt"], {"iters": -2}),
        (["merge", "--origin", "rankmin", "--rankmin-steps", "0"], None),
    ],
    ids=["lam-nan", "lam-inf", "z-inf", "config-suites-2.5", "config-task-index-1.7",
         "config-iters-true", "config-origin-bogus", "ks-1.5", "config-lam-nan",
         "config-ratio-list", "ratios-empty", "lambdas-blank", "ks-empty",
         "config-lambdas-empty", "suites-0", "iters-0", "config-iters-negative",
         "rankmin-steps-0"],
)
def test_bad_parameter_values_are_usage_errors(argv, config, checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    if argv[0] in ("merge", "index", "analyze"):
        argv = argv + ["--pretrained", pretrained] + [x for t in tasks for x in ("--task", t)]
    if config is not None:
        argv = argv + ["--config", _config(tmp_path, config)]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["--rankmin-step-size", "1"], None, "--rankmin-step-size"),
        ([], {"rankmin_step_size": 1}, "rankmin_step_size"),
    ],
    ids=["flag", "config-key"],
)
def test_the_removed_step_size_is_a_usage_error(checkpoints, tmp_path, capsys, argv, config,
                                               named):
    pretrained, tasks = checkpoints
    out = tmp_path / "out"
    argv = _merge_args(pretrained, tasks, out, ["--origin", "rankmin", *argv])
    if config is not None:
        argv += ["--config", _config(tmp_path, config)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# merge / index / analyze on real files


def test_merge_writes_checkpoint_plan_and_manifest(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "merged"
    assert main(_merge_args(pretrained, tasks, out, ["--ratio", "1.0", "--lam", "0.3"])) == 0
    capsys.readouterr()

    merged = load_checkpoint(out / "merged.ckpt")
    expected = weight_average([load_checkpoint(p) for p in tasks])
    for name in merged.names():
        np.testing.assert_allclose(merged[name], expected[name], atol=1e-12)

    assert (out / "plan.json").read_text() == '{\n  "coefficients": {\n    "global": 0.3\n  }\n}\n'

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["ratio"] == 1.0
    assert set(manifest) == {"command", "version", "parameters", "inputs", "outputs"}
    assert manifest["command"] == "merge"
    assert set(manifest["outputs"]) == {"merged.ckpt", "plan.json"}
    for digest in {**manifest["inputs"], **manifest["outputs"]}.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_merge_rankmin_origin_writes_traces(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "rm"
    argv = _merge_args(pretrained, tasks, out,
                       ["--origin", "rankmin", "--rankmin-steps", "10"])
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "trace_enc.0.weight.csv").exists()
    assert (out / "trace_enc.1.weight.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trace_enc.0.weight.csv" in manifest["outputs"]


def test_rankmin_traces_get_one_file_per_layer_name(tmp_path, capsys):
    g = stream(0, "cli-trace-names")
    shapes = {"a/b": (6, 4), "a__b": (6, 4), "a%2Fb": (6, 4)}
    paths = []
    for name in ["pre", "task0", "task1", "task2"]:
        paths.append(str(tmp_path / f"{name}.ckpt"))
        save_checkpoint(random_tensor_map(g, shapes), paths[-1])
    out = tmp_path / "rm"
    argv = _merge_args(paths[0], paths[1:], out, ["--origin", "rankmin", "--rankmin-steps", "3"])
    assert main(argv) == 0
    capsys.readouterr()
    # "%" is escaped first, so no two names meet in one file.
    traces = {"trace_a%2Fb.csv", "trace_a__b.csv", "trace_a%252Fb.csv"}
    assert {p.name for p in out.glob("trace_*")} == traces
    assert traces <= set(json.loads((out / "manifest.json").read_text())["outputs"])
    assert len({(out / name).read_bytes() for name in traces}) == 3


def test_index_full_rank_recovers_the_task(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "idx"
    argv = ["index", "--pretrained", pretrained, "--ratio", "1.0",
            "--task-index", "1", "--out-dir", str(out)]
    for t in tasks:
        argv += ["--task", t]
    assert main(argv) == 0
    capsys.readouterr()
    indexed = load_checkpoint(out / "indexed.ckpt")
    wanted = load_checkpoint(tasks[1])
    for name in ("enc.0.weight", "enc.1.weight"):
        np.testing.assert_allclose(indexed[name], wanted[name], atol=1e-10)


def test_analyze_reports_matrix_layers(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "an"
    argv = ["analyze", "--pretrained", pretrained, "--out-dir", str(out), "--ks", "1,2"]
    for t in tasks:
        argv += ["--task", t]
    assert main(argv) == 0
    capsys.readouterr()
    payload = json.loads((out / "interference.json").read_text())
    assert set(payload["layers"]) == {"enc.0.weight", "enc.1.weight"}
    assert (out / "interference.csv").exists()


def _analyze_args(pretrained, tasks, out, extra=()):
    return ["analyze", *_merge_args(pretrained, tasks, out, extra)[1:]]


@pytest.mark.parametrize("k, layer", [("-1", "enc.0.weight"), ("6", "enc.1.weight")])
def test_analyze_rank_outside_a_layer_is_a_domain_error(k, layer, checkpoints, tmp_path,
                                                        capsys, svd_calls, eigh_calls):
    pretrained, tasks = checkpoints
    out = tmp_path / "an"
    for origin in ("mean", "rankmin"):
        extra = ["--ks", k, "--origin", origin, "--rankmin-steps", "5"]
        assert main(_analyze_args(pretrained, tasks, out, extra)) == 1
        assert layer in capsys.readouterr().err
        # Rejected before the origin is solved or any delta factored.
        assert svd_calls == [] and eigh_calls == []
        assert not out.exists()


@pytest.mark.parametrize("origin", ["mean", "rankmin"])
def test_analyze_of_one_task_is_a_domain_error_before_any_svd(origin, checkpoints, tmp_path,
                                                              capsys, svd_calls, eigh_calls):
    pretrained, tasks = checkpoints
    out = tmp_path / "an"
    for ks in ([], ["--ks", "0,2"]):
        assert main(_analyze_args(pretrained, tasks[:1], out, ["--origin", origin, *ks])) == 1
        assert "enc.0.weight: interference is defined over task pairs" in capsys.readouterr().err
        assert svd_calls == [] and eigh_calls == []
        assert not out.exists()
    # One task is a valid input when only R(0) is asked for, or no layer is a Matrix.
    for extra in (["--ks", "0"], ["--matrix-exclude", "*"]):
        assert main(_analyze_args(pretrained, tasks[:1], out, ["--origin", origin, *extra])) == 0
    capsys.readouterr()


# Two ways to keep only enc.0.weight on the SVD path.
NARROWING = [
    pytest.param(["--matrix-exclude", "enc.1.*"], id="exclude"),
    pytest.param(["--matrix-include", "enc.0.*"], id="include"),
]


@pytest.mark.parametrize("narrowing", NARROWING)
def test_analyze_respects_matrix_excludes(narrowing, checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "anx"
    argv = ["analyze", "--pretrained", pretrained, "--out-dir", str(out), *narrowing]
    for t in tasks:
        argv += ["--task", t]
    assert main(argv) == 0
    capsys.readouterr()
    payload = json.loads((out / "interference.json").read_text())
    assert set(payload["layers"]) == {"enc.0.weight"}


@pytest.mark.parametrize("narrowing", NARROWING)
def test_merge_rankmin_skips_the_solver_on_excluded_layers(narrowing, checkpoints, tmp_path,
                                                           capsys):
    pretrained, tasks = checkpoints
    rankmin = ["--origin", "rankmin", "--rankmin-steps", "10"]
    full, narrowed = tmp_path / "full", tmp_path / "narrowed"
    assert main(_merge_args(pretrained, tasks, full, rankmin)) == 0
    assert main(_merge_args(pretrained, tasks, narrowed, [*rankmin, *narrowing])) == 0
    capsys.readouterr()
    assert (narrowed / "trace_enc.0.weight.csv").exists()
    assert not (narrowed / "trace_enc.1.weight.csv").exists()
    manifest = json.loads((narrowed / "manifest.json").read_text())
    assert "trace_enc.1.weight.csv" not in manifest["outputs"]

    merged = load_checkpoint(narrowed / "merged.ckpt")
    mean = weight_average([load_checkpoint(p) for p in tasks])
    np.testing.assert_array_equal(merged["enc.1.weight"], mean["enc.1.weight"])
    np.testing.assert_array_equal(
        merged["enc.0.weight"], load_checkpoint(full / "merged.ckpt")["enc.0.weight"]
    )


def test_mean_that_overflows_float64_is_a_domain_error_naming_the_layer(tmp_path, capsys):
    pieces = {"a.weight": np.ones((3, 3)), "b.bias": np.ones(3), "b.weight": np.ones((4, 3))}
    huge = TensorMap({**pieces, "b.weight": np.full((4, 3), 1.7e308)})
    paths = [str(tmp_path / f"{name}.ckpt") for name in ("pre", "task0", "task1")]
    for path, tmap in zip(paths, (TensorMap(pieces), huge, huge)):
        save_checkpoint(tmap, path)
    out = tmp_path / "out"
    assert main(_merge_args(paths[0], paths[1:], out, ["--origin", "mean"])) == 1
    assert "error: b.weight: " in capsys.readouterr().err
    assert not out.exists()


def test_merge_that_overflows_the_checkpoint_dtype_is_a_domain_error(checkpoints, tmp_path,
                                                                      capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "out"
    assert main(_merge_args(pretrained, tasks, out, ["--lam", "1.7e308", "--ratio", "0.5"])) == 1
    assert "enc.0.weight: the merged layer is not finite in float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def huge_checkpoints(checkpoints):
    """The float64 checkpoints scaled by 1e160: finite, but their squared
    entries, and so the Gram matrices and |FIP| sums, overflow float64."""
    for path in [checkpoints[0], *checkpoints[1]]:
        ckpt = load_checkpoint(path)
        save_checkpoint(TensorMap({name: 1e160 * arr for name, arr in ckpt.items()}), path)
    return checkpoints


def test_merge_of_huge_checkpoints_takes_the_full_svd(huge_checkpoints, tmp_path, capsys):
    pretrained, tasks = huge_checkpoints
    out = tmp_path / "out"
    assert main(_merge_args(pretrained, tasks, out, ["--ratio", "0.5"])) == 0
    capsys.readouterr()
    merged = load_checkpoint(out / "merged.ckpt")
    assert all(np.all(np.isfinite(arr)) for _, arr in merged.items())


def test_rankmin_trace_that_overflows_is_a_domain_error(huge_checkpoints, tmp_path, capsys):
    pretrained, tasks = huge_checkpoints
    out = tmp_path / "out"
    argv = _merge_args(pretrained, tasks, out, ["--origin", "rankmin", "--ratio", "1"])
    assert main(argv) == 1
    assert ("enc.0.weight: the rank-minimization trace is not finite in float64"
            in capsys.readouterr().err)
    assert not out.exists()


def test_out_of_range_ratio_is_a_domain_error_without_matrix_layers(checkpoints, tmp_path,
                                                                    capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "out"
    argv = _merge_args(pretrained, tasks, out, ["--ratio", "1.5", "--matrix-exclude", "*"])
    assert main(argv) == 1
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    pytest.param("merge", [], id="merge-mean"),
    pytest.param("merge", ["--origin", "rankmin"], id="merge-rankmin"),
    pytest.param("index", [], id="index"),
    pytest.param("adapt", None, id="adapt"),
])
@pytest.mark.parametrize("ratio", ["1.5", "-0.25"])
def test_out_of_range_ratio_is_rejected_before_any_work(checkpoints, tmp_path, capsys, svd_calls,
                                                        command, extra, ratio):
    pretrained, tasks = checkpoints
    out = tmp_path / "out"
    if extra is None:
        argv = [command, "--out-dir", str(out)]
    else:
        argv = [command, *_merge_args(pretrained, tasks, out, extra)[1:]]
    assert main([*argv, "--ratio", ratio]) == 1
    assert f"rank_ratio must lie in [0, 1], got {float(ratio)}" in capsys.readouterr().err
    assert svd_calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["merge", "index"])
def test_several_factoring_workers_write_the_same_bytes(checkpoints, tmp_path, capsys,
                                                        blas_setting, command):
    pretrained, tasks = checkpoints
    runs = {}
    for label, variables in (("one", {}), ("several", {"OMP_NUM_THREADS": "1"})):
        blas_setting(4, **variables)
        out = tmp_path / label
        assert main([command, *_merge_args(pretrained, tasks, out, ["--ratio", "0.5"])[1:]]) == 0
        runs[label] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        runs[label]["outputs"] = json.loads((out / "manifest.json").read_text())["outputs"]
    capsys.readouterr()
    assert runs["several"] == runs["one"]


LONG_FORM_SHAPES = {"a.weight": (20, 13), "b.weight": (12, 12), "a.bias": (20,)}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("task_count", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("command, origin", [
    ("merge", "mean"), ("merge", "pretrained"), ("merge", "rankmin"), ("index", "mean"),
])
def test_merge_and_index_write_the_long_form_bit_for_bit(tmp_path, capsys, blas_setting, workers,
                                                         task_count, dtype, command, origin):
    """Each layer, assembled on the pool as soon as its factors exist, is
    ``merge(build_task_vectors(...))``'s to the byte."""
    g = stream(0, "cli-long-form")
    maps = [random_tensor_map(g, LONG_FORM_SHAPES, dtype=dtype) for _ in range(task_count + 1)]
    paths = [str(tmp_path / f"{i}.ckpt") for i in range(len(maps))]
    for tmap, path in zip(maps, paths):
        save_checkpoint(tmap, path)
    pretrained, finetuned = maps[0], maps[1:]
    start = select_origin(origin, pretrained, finetuned, rankmin_steps=3)
    blas_setting(workers, OMP_NUM_THREADS="1")
    if command == "index":
        runs = [(["--task-index", str(t)], [finetuned[t]], 1.0) for t in range(task_count)]
    else:
        runs = [(["--origin", origin, "--rankmin-steps", "3", "--lam", str(lam)], finetuned, lam)
                for lam in (0.3, 0.0)]
    out, expected = tmp_path / "out", tmp_path / "expected.ckpt"
    for ratio in (0.0, 0.08, 1.0):
        for extra, tasks, lam in runs:
            argv = _merge_args(paths[0], paths[1:], out, [*extra, "--ratio", str(ratio)])
            assert main([command, *argv[1:]]) == 0
            save_checkpoint(merge(build_task_vectors(start, tasks, rank_ratio=ratio), lam),
                            expected)
            written = out / ("indexed.ckpt" if command == "index" else "merged.ckpt")
            assert written.read_bytes() == expected.read_bytes()
    capsys.readouterr()


# One small successful run of each subcommand; checkpoint commands get the
# ``checkpoints`` fixture's files appended.
SMALL_RUNS = {
    "merge": ["merge", "--origin", "rankmin", "--rankmin-steps", "3"],
    "index": ["index", "--task-index", "1"],
    "analyze": ["analyze", "--ks", "1,2"],
    "sweep": ["sweep", "--ratios", "0,1", "--lambdas", "1"],
    "certify": ["certify", "--suites", "2"],
    "adapt": ["adapt", "--iters", "2"],
    "samplesize": ["samplesize"],
}


def _small_run(command, checkpoints, out) -> list[str]:
    argv = [*SMALL_RUNS[command], "--out-dir", str(out)]
    if command in ("merge", "index", "analyze"):
        pretrained, tasks = checkpoints
        argv += ["--pretrained", pretrained] + [x for t in tasks for x in ("--task", t)]
    return argv


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_manifest_lists_every_file_written(command, checkpoints, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_small_run(command, checkpoints, out)) == 0
    capsys.readouterr()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs
    assert set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_commands_compute_and_leave_the_writing_to_main(command, checkpoints, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    args = build_parser().parse_args(_small_run(command, checkpoints, out))
    inputs, artifacts, line, status = _COMMANDS[command](args)
    assert not out.exists()
    assert status == 0 and line and artifacts
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["merge", "index", "analyze"])
def test_manifest_input_digests_are_of_the_files_read_once(command, checkpoints, tmp_path,
                                                          capsys, monkeypatch):
    pretrained, tasks = checkpoints
    inputs = [pretrained, *tasks]
    real_open = open
    opened: list[str] = []

    def counted_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    for module in (cli, tensor_store):
        monkeypatch.setattr(module, "open", counted_open, raising=False)
    out = tmp_path / "out"
    assert main(_small_run(command, checkpoints, out)) == 0
    capsys.readouterr()
    assert sorted(path for path in opened if path in inputs) == sorted(inputs)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
    }


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_outputs_are_hashed_as_they_are_written_not_reopened(command, checkpoints, tmp_path,
                                                             capsys, monkeypatch):
    real_open = open
    read: list[Path] = []

    def recorded_open(path, mode="r", *args, **kwargs):
        if "r" in mode:
            read.append(Path(path))
        return real_open(path, mode, *args, **kwargs)

    for module in (cli, tensor_store):
        monkeypatch.setattr(module, "open", recorded_open, raising=False)
    out = tmp_path / "out"
    assert main(_small_run(command, checkpoints, out)) == 0
    capsys.readouterr()
    if command in ("merge", "index", "analyze"):
        assert read, "the recorder sees the inputs being read"
    assert not [path for path in read if out in path.parents]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir() if path.name != "manifest.json"
    }


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_failed_manifest_write_keeps_the_previous_one(checkpoints, tmp_path, capsys,
                                                      fail_writes_to):
    pretrained, tasks = checkpoints
    out = tmp_path / "merged"
    assert main(_merge_args(pretrained, tasks, out)) == 0
    before = _files(out)
    fail_writes_to("manifest.json")
    assert main(_merge_args(pretrained, tasks, out, ["--lam", "0.5"])) == 1
    capsys.readouterr()
    assert _files(out) == before


def test_failed_plan_write_keeps_the_previous_one(checkpoints, tmp_path, capsys,
                                                  fail_writes_to):
    pretrained, tasks = checkpoints
    out = tmp_path / "merged"
    assert main(_merge_args(pretrained, tasks, out)) == 0
    before = _files(out)
    assert sorted(before) == ["manifest.json", "merged.ckpt", "plan.json"]
    # merged.ckpt is written before plan.json fails, and differs at --lam 0.5.
    fail_writes_to("plan.json")
    assert main(_merge_args(pretrained, tasks, out, ["--lam", "0.5"])) == 1
    capsys.readouterr()
    assert _files(out) == before


def test_failed_move_into_the_out_dir_leaves_no_stale_manifest(checkpoints, tmp_path, capsys,
                                                              monkeypatch):
    pretrained, tasks = checkpoints
    out = tmp_path / "merged"
    assert main(_merge_args(pretrained, tasks, out)) == 0
    real_replace = os.replace
    moves: list[str] = []

    def second_move_fails(src, dst):
        if Path(dst).parent == out:
            moves.append(Path(dst).name)
            if len(moves) == 2:
                raise OSError(errno.EIO, "input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_move_fails)
    assert main(_merge_args(pretrained, tasks, out, ["--lam", "0.5"])) == 1
    assert "input/output error" in capsys.readouterr().err
    assert moves == ["merged.ckpt", "plan.json"]
    # The new merged.ckpt is in place; the old plan.json is left, but no
    # manifest names it, and the staging directory is gone.
    assert sorted(p.name for p in out.iterdir()) == ["merged.ckpt", "plan.json"]


def _rankmin_checkpoints(tmp_path, layers: list[str]) -> list[str]:
    g = stream(0, "cli-long-layer-name")
    paths = []
    for name in ["pre", "task0", "task1"]:
        paths.append(str(tmp_path / f"{name}.ckpt"))
        save_checkpoint(random_tensor_map(g, {layer: (6, 4) for layer in layers}), paths[-1])
    return paths


def test_failed_write_removes_the_out_dir_it_created(tmp_path, capsys, fail_writes_to):
    paths = _rankmin_checkpoints(tmp_path, ["w"])
    out = tmp_path / "new" / "merged"
    argv = _merge_args(paths[0], paths[1:], out, ["--origin", "rankmin", "--rankmin-steps", "2"])
    # The layer's trace fails midway; by then merged.ckpt and plan.json are written.
    fail_writes_to("trace_w.csv")
    assert main(argv) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted(Path(p) for p in paths)
    # A directory that was there before is kept.
    out.mkdir(parents=True)
    assert main(argv) == 1
    capsys.readouterr()
    assert out.is_dir()


def test_rankmin_trace_of_a_long_layer_name_gets_a_short_file_name(tmp_path, capsys):
    layer = "w" * 300
    paths = _rankmin_checkpoints(tmp_path, [layer])
    out = tmp_path / "merged"
    argv = _merge_args(paths[0], paths[1:], out, ["--origin", "rankmin", "--rankmin-steps", "2"])
    assert main(argv) == 0
    capsys.readouterr()
    name = f"trace_{'w' * 173}~{hashlib.sha256(layer.encode()).hexdigest()[:16]}.csv"
    assert len(name) == 200
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "merged.ckpt", "plan.json", name]
    assert name in json.loads((out / "manifest.json").read_text())["outputs"]


def test_trace_file_names_are_checked_before_the_solve(tmp_path, capsys, svd_calls, eigh_calls):
    # The second name is the file name that the first is shortened to.
    long = "w" * 300
    short = f"{'w' * 173}~{hashlib.sha256(long.encode()).hexdigest()[:16]}"
    paths = _rankmin_checkpoints(tmp_path, [long, short])
    out = tmp_path / "merged"
    argv = _merge_args(paths[0], paths[1:], out, ["--origin", "rankmin", "--rankmin-steps", "2"])
    assert main(argv) == 1
    assert "share one trace file name" in capsys.readouterr().err
    assert (svd_calls, eigh_calls) == ([], [])
    assert not out.exists()


# ---------------------------------------------------------------------------
# parameter resolution


def test_samplesize_prints_the_default_answer(capsys):
    assert main(["samplesize"]) == 0
    assert capsys.readouterr().out.strip() == "385"


def test_config_supplies_defaults_and_cli_wins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.1}))

    assert main(["samplesize", "--config", str(config)]) == 0
    assert capsys.readouterr().out.strip() == "97"

    assert main(["samplesize", "--config", str(config), "--epsilon", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "385"


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilonn": 0.1}))
    assert main(["samplesize", "--config", str(config)]) == 2
    assert "epsilonn" in capsys.readouterr().err
    # The manifest keeps the config's digest, but no parameter holds it.
    config.write_text(json.dumps({"config_sha256": "0" * 64}))
    assert main(["samplesize", "--config", str(config)]) == 2
    assert "config_sha256" in capsys.readouterr().err


def test_config_that_repeats_a_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"epsilon": 0.5, "epsilon": 0.1}')
    out = tmp_path / "out"
    assert main(["samplesize", "--config", str(config), "--out-dir", str(out)]) == 2
    assert "'epsilon'" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_is_a_usage_error(tmp_path, capsys):
    assert main(["samplesize", "--config", str(tmp_path / "none.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["samplesize", "--config", str(broken)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["merge", "index", "analyze", "samplesize"])
def test_seed_is_a_usage_error_where_nothing_is_random(command, checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    argv = [command, "--out-dir", str(tmp_path / "out")]
    if command != "samplesize":
        argv += ["--pretrained", pretrained] + [x for t in tasks for x in ("--task", t)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "seed" not in manifest["parameters"]

    assert main(argv + ["--seed", "1"]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    assert main(argv + ["--config", str(config)]) == 2
    assert "['seed']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sweep", "--ratios", "0.0,1.0"], ["certify", "--suites", "2"], ["adapt", "--iters", "2"]]
)
def test_studies_take_a_seed(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--seed", "3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["parameters"]["seed"] == 3


def test_help_shows_each_default(capsys):
    assert main(["merge", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--ratio RATIO retained rank ratio (default: 0.08)" in text
    assert "--lam LAM global merging coefficient (default: 0.3)" in text


def test_config_list_for_a_repeatable_flag_yields_to_the_command_line(checkpoints, tmp_path,
                                                                    capsys):
    pretrained, tasks = checkpoints
    config = _config(tmp_path, {"pretrained": pretrained, "task": tasks[:2]})
    from_config, from_cli = tmp_path / "config", tmp_path / "cli"
    assert main(["merge", "--config", config, "--out-dir", str(from_config)]) == 0
    assert main(["merge", "--config", config, "--task", tasks[2],
                 "--out-dir", str(from_cli)]) == 0
    capsys.readouterr()
    assert _parameters(from_config)["task"] == tasks[:2]
    assert _parameters(from_cli)["task"] == [tasks[2]]


def test_config_string_for_a_repeatable_flag_is_one_entry(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    out = tmp_path / "out"
    config = _config(tmp_path, {"task": tasks[0], "matrix_exclude": "enc.1.*"})
    assert main(["merge", "--pretrained", pretrained, "--config", config,
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert _parameters(out)["task"] == [tasks[0]]
    assert _parameters(out)["matrix_exclude"] == ["enc.1.*"]


def test_config_null_means_the_built_in_default(checkpoints, tmp_path, capsys):
    pretrained, tasks = checkpoints
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    config = _config(tmp_path, {"ratio": None, "lam": None, "task": None})
    assert main(_merge_args(pretrained, tasks, plain)) == 0
    assert main(_merge_args(pretrained, tasks, configured, ["--config", config])) == 0
    capsys.readouterr()
    assert (plain / "merged.ckpt").read_bytes() == (configured / "merged.ckpt").read_bytes()
    assert _parameters(configured)["ratio"] == 0.08
    assert _parameters(configured)["lam"] == 0.3


@pytest.mark.parametrize("source", ["flag", "config-list", "config-string"])
def test_sweep_manifest_records_the_parsed_lists(source, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--lambdas", "1", "--out-dir", str(out)]
    if source == "flag":
        argv += ["--ratios", "0,1"]
    else:
        ratios = [0, 1] if source == "config-list" else "0,1"
        argv += ["--config", _config(tmp_path, {"ratios": ratios})]
    assert main(argv) == 0
    capsys.readouterr()
    for key, want in (("ratios", [0.0, 1.0]), ("lambdas", [1.0])):
        got = _parameters(out)[key]
        assert got == want and all(isinstance(x, float) for x in got)


def test_config_file_is_hashed_into_the_manifest(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.1}))
    out = tmp_path / "ss"
    assert main(["samplesize", "--config", str(config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(config): hashlib.sha256(config.read_bytes()).hexdigest()}
    assert "config_sha256" not in manifest["parameters"]
    assert json.loads((out / "samplesize.json").read_text()) == {"m": 97}


def test_manifest_hashes_the_config_bytes_that_were_parsed(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    parsed = json.dumps({"epsilon": 0.1}).encode()
    config.write_bytes(parsed)
    command = _COMMANDS["samplesize"]

    def rewrite_then_run(args):
        config.write_text(json.dumps({"epsilon": 0.2}))
        return command(args)

    monkeypatch.setitem(_COMMANDS, "samplesize", rewrite_then_run)
    out = tmp_path / "ss"
    assert main(["samplesize", "--config", str(config), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "97"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(config): hashlib.sha256(parsed).hexdigest()}


# ---------------------------------------------------------------------------
# synthetic-study commands


def test_certify_writes_holding_certificates(tmp_path, capsys):
    out = tmp_path / "certs"
    assert main(["certify", "--suites", "3", "--out-dir", str(out)]) == 0
    assert "3/3" in capsys.readouterr().out
    lines = (out / "certificates.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(l)["holds"] for l in lines)


def test_sweep_writes_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--ratios", "0.0,1.0", "--lambdas", "1.0", "--out-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "ratio,lambda,task,accuracy"
    assert len(rows) == 1 + 2 * 4  # 2 cells x (3 tasks + mean)


def test_adapt_writes_history_and_a_loadable_plan(tmp_path, capsys):
    out = tmp_path / "adapt"
    assert main(["adapt", "--iters", "3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    history = (out / "adaptation.csv").read_text().splitlines()
    assert history[0] == "iter,entropy,mean_lambda"
    assert len(history) == 1 + 4  # steps 0..2 plus the final row
    table = json.loads((out / "coefficients.json").read_text())["coefficients"]["per_task_layer"]
    assert set(table) == {"0", "1"}
    assert table["0"].keys() == table["1"].keys() and table["0"]
    assert all(isinstance(v, float) for layers in table.values() for v in layers.values())
