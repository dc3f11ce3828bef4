"""Process-parallel execution of SiDB simulations.

Every ground-state simulation of an operational-domain sweep is
independent of every other one -- across input patterns and across
parameter grid points -- so the sweep is embarrassingly parallel.  This
module provides the plumbing: an ordered ``ProcessPoolExecutor`` map
that degrades to a plain loop for ``workers <= 1`` (the default,
keeping CI deterministic and fork-free).  The picklable task records
live with the functions that consume them.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro import obs
from repro.obs import Span

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request.

    ``None`` or ``0`` selects the machine's CPU count; negative values
    are rejected; anything else passes through.  ``1`` means serial.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def workers_from_env(default: int = 1) -> int:
    """Worker count from the ``REPRO_WORKERS`` environment variable.

    Scripts and benchmarks read their fan-out width from this knob; a
    non-integer value gets a clear error instead of a bare traceback.
    """
    value = os.environ.get("REPRO_WORKERS", "")
    if not value:
        return default
    try:
        workers = int(value)
    except ValueError:
        raise SystemExit(
            f"REPRO_WORKERS must be an integer, got {value!r}"
        ) from None
    return resolve_workers(workers)


def _captured_call(function: Callable[[T], R], task: T) -> tuple[R, dict | None, int]:
    """Run one task under span capture; ships the trace back picklable.

    Runs in the worker process (or inline for serial execution): the
    task's whole span tree lands under one ``parallel.task`` root that
    travels back to the parent as a plain dictionary.
    """
    with obs.capture("parallel.task", enable=True) as cap:
        result = function(task)
    span_dict = cap.span.to_dict() if cap.span is not None else None
    return result, span_dict, os.getpid()


def run_tasks(
    function: Callable[[T], R],
    tasks: Sequence[T],
    workers: int = 1,
    chunksize: int = 1,
    label: str = "parallel.tasks",
) -> list[R]:
    """Apply ``function`` to ``tasks``, preserving order.

    ``workers <= 1`` runs a plain loop in-process; otherwise the tasks
    fan out over a :class:`ProcessPoolExecutor`.  ``function`` must be a
    module-level callable (or a ``functools.partial`` of one) and the
    tasks picklable.  The result
    list is always in task order, so serial and parallel execution are
    interchangeable bit-for-bit (given deterministic tasks).

    When recording is enabled the fan-out traces itself: every task --
    serial or in a worker process -- runs under a captured
    ``parallel.task`` span (workers ship theirs back with the result),
    and all of them merge as children of one ``parallel`` span with
    ``index``/``worker`` attribution.  The merged tree's *structure*
    depends only on the tasks and the parent's ground-state memo
    (:mod:`repro.sidb.operational`), never on the worker count --
    except that an exact ground state a worker solves stays in that
    worker's memo, so a later task of the same isometry class that
    would hit it serially solves it again.  Each completed task also
    ticks ``obs.progress(label, ...)``.
    """
    workers = resolve_workers(workers)
    serial = workers <= 1 or len(tasks) <= 1
    total = len(tasks)
    if not obs.enabled():
        results: list[R] = []
        if serial:
            for index, task in enumerate(tasks):
                results.append(function(task))
                obs.progress(label, index + 1, total)
            return results
        with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
            for result in pool.map(function, tasks, chunksize=chunksize):
                results.append(result)
                obs.progress(label, len(results), total)
        return results

    with obs.span("parallel", label=label, tasks=total) as parent:
        results = []
        if serial:
            for index, task in enumerate(tasks):
                result, _, pid = _captured_call(function, task)
                results.append(result)
                # The captured span attached itself to the live tree as
                # ``parent``'s newest child; attribute it in place.
                child = parent.children[-1]
                child.set("index", index)
                child.set("worker", pid)
                obs.progress(label, index + 1, total)
            return results
        call = functools.partial(_captured_call, function)
        with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
            for index, (result, span_dict, pid) in enumerate(
                pool.map(call, tasks, chunksize=chunksize)
            ):
                results.append(result)
                if span_dict is not None:
                    child = Span.from_dict(span_dict)
                    child.set("index", index)
                    child.set("worker", pid)
                    parent.children.append(child)
                obs.progress(label, index + 1, total)
        return results

