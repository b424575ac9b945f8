"""Every name a module lists in ``__all__`` exists.

A stale entry breaks ``from rankmerge.<module> import *`` and any tool that
walks ``__all__``, such as the benchmark's tracer, which wraps each name.
"""

import importlib
import pkgutil

import pytest

import rankmerge

MODULES = sorted(info.name for info in pkgutil.iter_modules(rankmerge.__path__))


def test_the_package_modules_are_found():
    assert {"kernels", "merge", "adaptation"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"rankmerge.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
