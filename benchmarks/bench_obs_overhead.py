"""Observability overhead: disabled instrumentation must cost < 2%.

Times three workloads with the :mod:`repro.obs` entry points, the
:mod:`repro.obs.log` logger methods and the :mod:`repro.learn.hooks`
record functions stubbed out (the baseline, approximating a build with
that instrumentation deleted) against the real no-op fast path
(recording disabled, logging unconfigured, no learn collector):

* the full ``par_check`` flow, also with full trace recording;
* a process-parallel operational check (``check_operational`` of the
  2-input ``or_SE`` tile with ``workers=2``), which adds the
  worker-side span capture and progress plumbing;
* a small ``check_operational`` call, which carries the learn hook.

Each disabled overhead must stay below :data:`DISABLED_OVERHEAD_LIMIT`
-- the honesty gate for leaving instrumentation in hot paths.  Writes
``benchmarks/artifacts/BENCH_obs.json``.
"""

import contextlib
import gc
import statistics
import time

from conftest import print_header, write_artifact
from repro import obs
from repro.coords.lattice import LatticeSite
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.gatelib.library import BestagonLibrary
from repro.learn import hooks as learn_hooks
from repro.networks import benchmark_verilog
from repro.networks.truth_table import TruthTable
from repro.obs import _NOOP
from repro.obs import log as obs_log
from repro.sidb.bdl import BdlPair
from repro.sidb.energy import clear_geometry_cache
from repro.sidb.operational import GateUnderTest, check_operational
from repro.synthesis.database import NpnDatabase
from repro.tech.parameters import SiDBSimulationParameters

#: The flow benchmark: the paper's largest trindade16 circuit.
OVERHEAD_BENCHMARK = "par_check"

#: Maximum tolerated slowdown with observability disabled.
DISABLED_OVERHEAD_LIMIT = 0.02


def _stub_span(name, **attributes):
    return _NOOP


def _stub_add(name, value=1.0):
    return None


def _stub_gauge(name, value):
    return None


def _stub_observe(name, value):
    return None


def _stub_event(name, **attributes):
    return None


def _stub_progress(stage, current, total=None, **info):
    return None


def _stub_log(self, event, **fields):
    return None


def _stub_record(*args, **kwargs):
    return None


#: Logger methods neutralized by :class:`_stubbed`.  The disabled
#: logger already early-outs on a single ``_state is None`` check, so
#: the stub baseline must delete even that to keep the 2% comparison
#: honest for the structured-logging call sites too.
_LOG_METHODS = ("debug", "info", "warning", "error")


class _stubbed:
    """Temporarily replace the obs entry points with bare no-ops.

    Covers the trace/metric entry points, the structured-logging
    ``Logger`` methods *and* the :mod:`repro.learn.hooks` record
    functions (with the collector forced off), so the stub variant
    approximates a build with the tracing, logging and learn-collection
    instrumentation deleted.
    """

    def __enter__(self) -> "_stubbed":
        self._saved = (
            obs.span, obs.add, obs.gauge,
            obs.observe, obs.event, obs.progress,
        )
        obs.span = _stub_span  # type: ignore[assignment]
        obs.add = _stub_add  # type: ignore[assignment]
        obs.gauge = _stub_gauge  # type: ignore[assignment]
        obs.observe = _stub_observe  # type: ignore[assignment]
        obs.event = _stub_event  # type: ignore[assignment]
        obs.progress = _stub_progress  # type: ignore[assignment]
        self._saved_log = tuple(
            getattr(obs_log.Logger, name) for name in _LOG_METHODS
        )
        for name in _LOG_METHODS:
            setattr(obs_log.Logger, name, _stub_log)
        self._saved_learn = (
            learn_hooks.COLLECTOR,
            learn_hooks.record_canvas,
            learn_hooks.record_operational,
        )
        learn_hooks.COLLECTOR = None
        learn_hooks.record_canvas = _stub_record  # type: ignore[assignment]
        learn_hooks.record_operational = _stub_record  # type: ignore[assignment]
        return self

    def __exit__(self, *exc_info: object) -> None:
        (
            obs.span, obs.add, obs.gauge,
            obs.observe, obs.event, obs.progress,
        ) = self._saved
        for name, method in zip(_LOG_METHODS, self._saved_log):
            setattr(obs_log.Logger, name, method)
        (
            learn_hooks.COLLECTOR,
            learn_hooks.record_canvas,
            learn_hooks.record_operational,
        ) = self._saved_learn


def measure_overhead(
    run,
    variants: tuple[str, ...],
    repeats: int,
    inner_iterations: int,
    attempts: int,
    clock=time.process_time,
) -> dict:
    """Paired stub-vs-real timing of ``run(variant)``; returns the record.

    ``variants`` starts with ``"stub"`` (run under :class:`_stubbed`);
    every other variant gets a ``<variant>_overhead`` against it.  Four
    noise defenses keep the 2% gate honest:

    * samples use ``clock`` -- **CPU** time by default, since scheduler
      noise on a shared machine dwarfs the effect being measured;
    * each sample runs ``inner_iterations`` back-to-back calls (one warm
      flow is ~15 ms; a single run would put timer jitter on the same
      order as the gate);
    * the overheads are **medians of per-round paired ratios** -- all
      variants run back-to-back within one round, so a slow stretch of
      the machine inflates a round's numerator and denominator together
      and cancels in the ratio, while the median discards the rounds
      where it didn't; the variant order rotates per round so
      in-process drift (allocator growth, GC pressure) has no preferred
      victim;
    * a measurement over the limit is **re-measured up to** ``attempts``
      **times keeping the best**: a genuine fast-path regression
      reproduces on every attempt, a one-off scheduling spike does not.

    The reported per-variant seconds are minima over the repeats.
    """

    def sample(variant: str) -> float:
        stub = _stubbed() if variant == "stub" else contextlib.nullcontext()
        with stub:
            begin = clock()
            for _ in range(inner_iterations):
                run(variant)
            return (clock() - begin) / inner_iterations

    def measure_once() -> dict:
        times: dict[str, list[float]] = {key: [] for key in variants}
        for round_index in range(repeats):
            for offset in range(len(variants)):
                key = variants[(round_index + offset) % len(variants)]
                gc.collect()
                times[key].append(sample(key))

        record: dict = {"repeats": repeats}
        for key in variants:
            record[f"{key}_seconds"] = min(times[key])
        for key in variants[1:]:
            record[f"{key}_overhead"] = statistics.median(
                measured / stub - 1.0
                for stub, measured in zip(times["stub"], times[key])
            )
        record["disabled_overhead_limit"] = DISABLED_OVERHEAD_LIMIT
        record["within_limit"] = (
            record["disabled_overhead"] < DISABLED_OVERHEAD_LIMIT
        )
        return record

    was_enabled = obs.enabled()
    obs.disable()
    try:
        run("disabled")  # warm-up: caches, imports, allocator
        record = measure_once()
        for _ in range(attempts - 1):
            if record["within_limit"]:
                break
            retry = measure_once()
            if retry["disabled_overhead"] < record["disabled_overhead"]:
                record = retry
    finally:
        if was_enabled:
            obs.enable()
    return record


def run_overhead_benchmark() -> dict:
    """Stub/disabled/enabled CPU time of the full flow.

    The NPN database and gate library are shared across all runs so the
    measurement isolates the flow itself.
    """
    name = OVERHEAD_BENCHMARK
    verilog = benchmark_verilog(name)
    database = NpnDatabase()
    library = BestagonLibrary()
    trace_spans = 0

    def run_flow(variant: str) -> None:
        nonlocal trace_spans
        configuration = FlowConfiguration(
            trace=variant == "enabled", database=database, library=library
        )
        result = design_sidb_circuit(verilog, name, configuration)
        if variant == "enabled":
            trace_spans = sum(1 for _ in result.trace.walk())

    record = measure_overhead(
        run_flow,
        ("stub", "disabled", "enabled"),
        repeats=11,
        inner_iterations=10,
        attempts=2,
    )
    return {
        "benchmark": name,
        "covers": "tracing+logging+learn",
        **record,
        "trace_spans": trace_spans,
    }


def run_worker_overhead_benchmark() -> dict:
    """Disabled-path overhead of the *worker-side* capture plumbing.

    The cross-process span shipping adds a ``_captured_call`` wrapper
    and per-task progress ticks around every ``run_tasks`` fan-out --
    all of which must stay no-ops while recording is disabled.  Wall
    time (not CPU) is compared: the work happens in child processes the
    parent's ``process_time`` cannot see.  Pool spawning dominates each
    sample, which is exactly the point -- the plumbing must vanish
    inside real fan-out costs -- but it also makes the samples far
    noisier than the flow benchmark's, hence the extra attempt.
    """
    gate = BestagonLibrary().design("or_SE").under_test

    def run_parallel(variant: str) -> None:
        check_operational(gate, workers=2)

    record = measure_overhead(
        run_parallel,
        ("stub", "disabled"),
        repeats=9,
        inner_iterations=3,
        attempts=3,
        clock=time.perf_counter,
    )
    return {
        "benchmark": "check_operational(or_SE, workers=2)",
        "workers": 2,
        **record,
    }


def run_learn_hook_overhead_benchmark() -> dict:
    """Disabled-path overhead of the learn collection hooks.

    :func:`~repro.gatelib.designer.score_design` and
    :func:`~repro.sidb.operational.check_operational` each gained a
    ``COLLECTOR is not None`` hook after their physics; with no
    collector installed that must stay one attribute check, mirroring
    the obs contract.  This times a small ``check_operational`` (a
    3-pair wire, exact engine).  Every call starts cold: clearing the
    geometry cache also empties the exact ground-state memo, so each call
    simulates its patterns instead of looking them up.
    """
    S = LatticeSite.from_row
    gate = GateUnderTest(
        body=[S(0, r) for r in (0, 2, 6, 8, 12, 14)] + [S(0, 18)],
        input_stimuli=[([S(0, -6)], [S(0, -2)])],
        output_pairs=[BdlPair(S(0, 12), S(0, 14))],
        outputs=[TruthTable(1, 0b10)],
    )
    parameters = SiDBSimulationParameters(mu_minus=-0.32)

    def run_check(variant: str) -> None:
        clear_geometry_cache()
        check_operational(gate, parameters=parameters)

    record = measure_overhead(
        run_check,
        ("stub", "disabled"),
        repeats=9,
        inner_iterations=40,
        attempts=3,
    )
    return {
        "benchmark": "check_operational(wire)",
        "covers": "learn-hooks+tracing+logging",
        **record,
    }


def test_obs_overhead(benchmark):
    record = benchmark.pedantic(
        run_overhead_benchmark, rounds=1, iterations=1
    )
    record["workers2"] = run_worker_overhead_benchmark()
    record["learn_hooks"] = run_learn_hook_overhead_benchmark()
    path = write_artifact(record, "BENCH_obs.json")

    print_header(
        f"Observability overhead on the {record['benchmark']} flow "
        f"(min of {record['repeats']} repeats)"
    )
    print(f"  stubbed out : {record['stub_seconds'] * 1000:8.1f} ms")
    print(
        f"  disabled    : {record['disabled_seconds'] * 1000:8.1f} ms "
        f"({record['disabled_overhead'] * 100:+.2f}%)"
    )
    print(
        f"  enabled     : {record['enabled_seconds'] * 1000:8.1f} ms "
        f"({record['enabled_overhead'] * 100:+.2f}%, "
        f"{record['trace_spans']} spans)"
    )
    for label, sub in (
        ("workers=2", record["workers2"]),
        ("learn hooks", record["learn_hooks"]),
    ):
        print(
            f"  {label:<12}: {sub['disabled_seconds'] * 1000:8.1f} ms "
            f"({sub['disabled_overhead'] * 100:+.2f}% on "
            f"{sub['benchmark']})"
        )
    print(f"  artifact: {path}")

    assert record["trace_spans"] > 10, "enabled run recorded no trace"
    for sub in (record, record["workers2"], record["learn_hooks"]):
        assert sub["disabled_overhead"] < DISABLED_OVERHEAD_LIMIT, (
            f"disabled-mode overhead on {sub['benchmark']} is "
            f"{sub['disabled_overhead'] * 100:.2f}% "
            f"(limit {DISABLED_OVERHEAD_LIMIT * 100:.0f}%); "
            "the no-op fast path regressed"
        )
