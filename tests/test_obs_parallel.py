"""Cross-process telemetry: worker span capture, merge, and progress.

The contract under test: a ``run_tasks`` fan-out (and the operational
domain sweep built on it) produces the *same* merged trace tree
regardless of the worker count -- same span structure, same
attributes, same counter and histogram totals -- differing only in
timings and in which ``worker`` executed each task.
"""

import os

import pytest

from repro import obs
from repro.coords.lattice import LatticeSite
from repro.sidb import operational
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest
from repro.sidb.operational_domain import compute_operational_domain
from repro.sidb.parallel import run_tasks
from repro.sidb.simanneal import SimAnnealParameters

S = LatticeSite.from_row


@pytest.fixture(autouse=True)
def clean_recorder():
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    obs.set_progress(None)
    if was_enabled:
        obs.enable()


def normalized(span) -> dict:
    """A span tree as a dict with timings, worker ids and pids stripped."""
    data = span.to_dict()

    def strip(node: dict) -> None:
        node["wall_seconds"] = 0.0
        node["cpu_seconds"] = 0.0
        node["attributes"].pop("worker", None)
        node["attributes"].pop("pid", None)
        for child in node["children"]:
            strip(child)

    strip(data)
    return data


def _traced_square(task: int) -> int:
    """Module-level (picklable) task that records telemetry and its pid."""
    with obs.span("square", task=task, pid=os.getpid()) as span:
        span.add("work", task)
        obs.observe("task.size", float(task))
    return task * task


COUNTER_KEYS = ("sweeps", "moves.proposed", "moves.accepted", "finalists")


class TestRunTasksCapture:
    def capture_run(self, workers: int):
        with obs.capture("root", enable=True) as cap:
            results = run_tasks(
                _traced_square, list(range(6)), workers=workers, label="sq"
            )
        return results, cap.span

    @pytest.mark.parametrize("workers", [2, 4])
    def test_trace_equal_modulo_timings_and_worker_ids(self, workers):
        serial_results, serial_trace = self.capture_run(1)
        parallel_results, parallel_trace = self.capture_run(workers)
        assert serial_results == parallel_results == [
            t * t for t in range(6)
        ]
        assert normalized(serial_trace) == normalized(parallel_trace)

    def test_merged_tree_shape_and_attribution(self):
        _, trace = self.capture_run(4)
        parallel = trace.find("parallel")
        assert parallel is not None
        assert parallel.attributes["label"] == "sq"
        assert parallel.attributes["tasks"] == 6
        tasks = parallel.children
        assert [child.name for child in tasks] == ["parallel.task"] * 6
        assert [child.attributes["index"] for child in tasks] == list(
            range(6)
        )
        # Each task is attributed to the pool process that ran it, which
        # is never the parent (how tasks spread over workers is up to the
        # pool, so it is not asserted).
        for child in tasks:
            ran_in = child.find("square").attributes["pid"]
            assert child.attributes["worker"] == ran_in != os.getpid()
        # Worker-side spans, counters and histograms all made it back.
        assert trace.total("work") == sum(range(6))
        assert trace.find("square") is not None
        merged = trace.histogram_total("task.size")
        assert merged.count == 6 and merged.sum == sum(range(6))

    def test_disabled_records_nothing(self):
        results = run_tasks(_traced_square, list(range(4)), workers=2)
        assert results == [t * t for t in range(4)]
        assert obs.recorder().roots == []
        assert obs.recorder().current() is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_ticks_per_completed_task(self, workers):
        ticks = []

        class Collector:
            def update(self, stage, current, total=None, **info):
                ticks.append((stage, current, total))

        with obs.progress_scope(Collector()):
            run_tasks(
                _traced_square, list(range(3)), workers=workers, label="sq"
            )
        assert ticks == [("sq", 1, 3), ("sq", 2, 3), ("sq", 3, 3)]


def _annealed_wire() -> GateUnderTest:
    """A 16-pair BDL wire of 34 sites."""
    sites, pairs = [], []
    for k in range(16):
        pair = BdlPair(S(0, 6 * k), S(0, 6 * k + 2))
        sites += [pair.site0, pair.site1]
        pairs.append(pair)
    sites.append(S(0, 6 * 16 + 2))
    return GateUnderTest(
        sites, [([S(0, -6)], [S(0, -2)])], [pairs[-1]], [TruthTable(1, 0b10)]
    )


class TestParallelAnnealTelemetry:
    def test_counter_totals_match_serial_exactly(self, monkeypatch):
        # A domain sweep fans its grid points out over run_tasks.  With
        # no QuickExact budget engine auto anneals both patterns of the
        # wire at every point, so the annealer's telemetry crosses
        # processes; the pool forks, so its workers see the budget too.
        monkeypatch.setattr(operational, "QUICKEXACT_NODE_BUDGET", 0)
        gate = _annealed_wire()
        grid = dict(x_values=(5.6,), y_values=(4.0, 5.0))
        obs.enable()
        with obs.span("serial") as serial_root:
            serial = compute_operational_domain(gate, **grid)
        with obs.span("parallel") as parallel_root:
            parallel = compute_operational_domain(gate, workers=2, **grid)
        assert parallel.points == serial.points
        schedule = SimAnnealParameters()
        assert serial_root.total("sweeps") == (
            2 * 2 * schedule.instances * schedule.sweeps
        )
        for key in COUNTER_KEYS:
            assert parallel_root.total(key) == serial_root.total(key), key
        serial_energy = serial_root.histogram_total("simanneal.energy")
        parallel_energy = parallel_root.histogram_total("simanneal.energy")
        assert parallel_energy.count == serial_energy.count
        assert parallel_energy.sum == pytest.approx(serial_energy.sum)
