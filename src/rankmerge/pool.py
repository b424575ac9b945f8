"""A pool of threads for independent numpy jobs: one thread per core that
BLAS leaves free.

numpy's LAPACK calls and elementwise loops, file reads and SHA-256 updates
release the GIL, so jobs that spend their time in them run side by side.
:func:`run_jobs` runs the checkpoint commands' stages one job per piece:
each input file, loaded and hashed in one read (:mod:`rankmerge.cli`); each
origin layer, checked and then computed, whether a mean or a rank-minimizing
solve (:func:`~rankmerge.origin.select_origin`); and each (task, layer)
factoring (:func:`~rankmerge.merge.build_task_vectors`), whose last job for
a layer assembles it in :func:`~rankmerge.merge.cart_merge`. Results, and
any error raised, are the same for any number of workers.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["factor_workers", "run_jobs"]

Job = TypeVar("Job")
Result = TypeVar("Result")

# Per-call thread variables of each BLAS that numpy may be built on, keyed
# by a part of its build name, each in the order that library reads them.
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _blas_name() -> str:
    """Lower-cased name of the BLAS numpy was built on; empty where numpy
    does not report it, as in 1.24, whose ``show_config`` takes no ``mode``."""
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]).lower()
    except (TypeError, KeyError):
        return ""


def factor_workers() -> int:
    """Threads that run jobs at once: usable CPUs over BLAS threads per call.

    BLAS threads per call is read from the variables of the BLAS numpy
    reports (:func:`_blas_name`): OpenBLAS's when its name contains
    ``openblas``, MKL's when it contains ``mkl``. For any other name, or none,
    it is the larger of the OpenBLAS and the MKL reading, so a variable that
    only the other library reads cannot start the pool. Each library takes
    the first of its variables that is set; none set, or a value that is not
    a positive integer, counts as every usable CPU: BLAS may then spread
    each call over every core, and a second worker beside it only competes
    for them.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1

    def threads(variables: tuple[str, ...]) -> int:
        setting = next((os.environ[var] for var in variables if var in os.environ), "")
        try:
            value = int(setting)
        except ValueError:
            return cpus
        return value if value >= 1 else cpus

    name = _blas_name()
    libraries = [lib for lib in _BLAS_THREAD_VARS if lib in name] or list(_BLAS_THREAD_VARS)
    return max(1, cpus // max(threads(_BLAS_THREAD_VARS[lib]) for lib in libraries))


def run_jobs(jobs: Sequence[Job], work: Callable[[Job], Result]) -> list[Result]:
    """``[work(job) for job in jobs]``, on :func:`factor_workers` threads.

    The threads take jobs from one queue in list order, so put the largest
    first: the jobs that overlap last, while every other result is held,
    are then the smallest, and peak memory stays near that of one job at a
    time. The calling thread is one of them: a thread of its own would add
    an allocator arena, and with it peak memory. After a job fails no
    further job starts, and the first failure in list order is raised;
    every job before it was started and runs to its end, so it is the same
    failure for any number of workers.
    """
    queue = enumerate(jobs)
    lock, stop = threading.Lock(), threading.Event()
    results: list = [None] * len(jobs)
    failures: dict[int, Exception] = {}

    def run() -> None:
        while not stop.is_set():
            with lock:
                position, job = next(queue, (None, None))
            if position is None:
                return
            try:
                results[position] = work(job)
            except Exception as exc:
                failures[position] = exc
                stop.set()

    helpers = [threading.Thread(target=run) for _ in range(min(factor_workers(), len(jobs)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        run()
    finally:
        stop.set()  # an interrupt of this thread stops the helpers after their current job
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results
