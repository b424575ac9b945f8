"""Smoke tests: every script under ``demos/``, and README's library example,
run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankmerge

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _library_block() -> str:
    """The first Python code block under README's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    g = np.random.default_rng(0)
    for name in ("pre", "a", "b", "c"):
        tensors = {"enc.weight": g.standard_normal((12, 10)), "enc.bias": g.standard_normal(12)}
        rankmerge.save_checkpoint(rankmerge.TensorMap(tensors), tmp_path / f"{name}.ckpt")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_block(), "README.md", "exec"), namespace)
    assert namespace["merged"].names() == ["enc.bias", "enc.weight"]
