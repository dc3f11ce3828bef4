"""Process-global example-collection hooks for the physics hot paths.

``gatelib.designer.score_design`` and ``sidb.operational.check_operational``
report every physics-labeled candidate here so flow and service jobs
can contribute training examples as a side effect of normal work.

The disabled path mirrors the :mod:`repro.obs` contract: the call
sites guard with a single module-attribute check --

    if _hooks.COLLECTOR is not None:
        _hooks.record_canvas(...)

-- so with no collector installed (the default, always) the hooks cost
one attribute load and one ``is not None`` comparison: no allocation,
no function call.  The 2% disabled-overhead gate of
``benchmarks/bench_obs_overhead.py`` covers these sites (see
``run_learn_hook_overhead_benchmark``).

The collector slot is process-global and *not* inherited by worker
processes; collection therefore sees exactly the evaluations that run
in the installing process (the serial default everywhere).
"""

from __future__ import annotations

from contextlib import contextmanager

#: The installed collector (``repro.learn.dataset.ExampleCollector``)
#: or ``None``.  Call sites read this attribute directly -- keeping it
#: a plain module global is what makes the disabled path free.
COLLECTOR = None


def set_collector(collector):
    """Install ``collector`` (or ``None``); returns the previous one."""
    global COLLECTOR
    previous = COLLECTOR
    COLLECTOR = collector
    return previous


@contextmanager
def collecting(collector):
    """Scoped installation: hooks feed ``collector`` inside the block."""
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


def record_canvas(problem, canvas, correct: int, total: int) -> None:
    """Record one scored designer candidate (called only when enabled)."""
    collector = COLLECTOR
    if collector is None:
        return
    from repro.learn.features import CandidateGeometry

    collector.record_candidate(
        CandidateGeometry.from_canvas_problem(problem, canvas),
        correct=correct,
        total=total,
        kind="canvas",
        parameters=problem.parameters,
    )


def record_operational(
    body_sites,
    input_stimuli,
    output_pairs,
    outputs,
    parameters,
    defects,
    correct: int,
    total: int,
    name: str = "",
) -> None:
    """Record one operational-check outcome (called only when enabled)."""
    collector = COLLECTOR
    if collector is None:
        return
    from repro.learn.features import CandidateGeometry

    collector.record_candidate(
        CandidateGeometry.from_operational(
            body_sites, input_stimuli, output_pairs, outputs, name=name
        ),
        correct=correct,
        total=total,
        kind="operational",
        parameters=parameters,
        defects=defects,
    )
