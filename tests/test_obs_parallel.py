"""Cross-process telemetry: worker span capture, merge, and progress.

The contract under test: a ``run_tasks`` fan-out (and everything built
on it, up to the defect-aware flow) produces the *same* merged trace
tree regardless of the worker count -- same span structure, same
attributes, same counter and histogram totals -- differing only in
timings and in which ``worker`` executed each task.
"""

import os

import pytest

from repro import obs
from repro.defects import DefectType, SidbDefect, SurfaceDefects
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.networks import benchmark_verilog
from repro.gatelib.library import BestagonLibrary
from repro.sidb.operational import check_operational
from repro.sidb.parallel import run_tasks
from repro.sidb.simanneal import SimAnnealParameters


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

SCHEDULE = SimAnnealParameters(instances=16, sweeps=100, seed=1)


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


class TestParallelAnnealTelemetry:
    def test_counter_totals_match_serial_exactly(self):
        kwargs = dict(
            gate=BestagonLibrary().design("or_SE").under_test,
            engine="simanneal",
            schedule=SCHEDULE,
        )
        obs.enable()
        with obs.span("serial") as serial_root:
            serial = check_operational(**kwargs)
        with obs.span("parallel") as parallel_root:
            parallel = check_operational(**kwargs, workers=2)
        assert [
            (p.pattern, p.observed, p.correct, p.ground_energy)
            for p in parallel.patterns
        ] == [
            (p.pattern, p.observed, p.correct, p.ground_energy)
            for p in serial.patterns
        ]
        assert serial_root.total("sweeps") == 4 * 16 * 100
        for key in COUNTER_KEYS:
            assert parallel_root.total(key) == serial_root.total(key), key
        serial_energy = serial_root.histogram_total("simanneal.energy")
        parallel_energy = parallel_root.histogram_total("simanneal.energy")
        assert parallel_energy.count == serial_energy.count
        assert parallel_energy.sum == pytest.approx(serial_energy.sum)


class TestFlowTraceAcrossWorkers:
    @staticmethod
    def influential_defect(pristine) -> SurfaceDefects:
        """A charged defect in the 10--25 nm ring left of the layout.

        Too far to blacklist any tile (the P&R stays bit-identical to
        the pristine flow) but close enough that the defect-aware
        recheck must re-simulate the adjacent tile.
        """
        from repro.coords.lattice import LatticeSite
        from repro.defects import blocked_tiles
        from repro.defects.exclusion import defects_near_tile
        from repro.gatelib.tile import TileGeometry
        from repro.tech.constants import DEFECT_INFLUENCE_RADIUS_NM

        geometry = TileGeometry()
        occupied = [coord for coord, _ in pristine.layout.occupied()]
        left = min(occupied, key=lambda coord: coord.x)
        _, row0 = geometry.origin_of(left)
        mid = row0 + geometry.height_rows // 2
        for columns_left in range(1, 120):
            site = LatticeSite(-columns_left, mid // 2, mid % 2)
            surface = SurfaceDefects([SidbDefect(site, DefectType.DB)])
            if blocked_tiles(32, 32, surface):
                continue
            if defects_near_tile(
                left, surface, DEFECT_INFLUENCE_RADIUS_NM, geometry
            ):
                return surface
        raise AssertionError("no site in the influence-only ring found")

    def flow_result(self, defects, workers: int):
        return design_sidb_circuit(
            benchmark_verilog("xor2"),
            "xor2",
            FlowConfiguration(defects=defects, workers=workers),
        )

    def test_defect_flow_trace_equal_across_worker_counts(self):
        # The acceptance contract, on the tier-1 budget: a defect-aware
        # flow (the only parallelizable flow step) traced with
        # workers=4 merges per-worker spans into a tree equal to the
        # workers=1 run modulo timings/worker ids -- counter totals
        # (sweeps, SAT conflicts) included.
        pristine = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
        defects = self.influential_defect(pristine)
        serial = self.flow_result(defects, 1)
        parallel = self.flow_result(defects, 4)
        assert serial.defect_report.tiles_checked >= 1
        assert serial.sqd == parallel.sqd  # bit-identical designs
        assert normalized(serial.trace) == normalized(parallel.trace)
        assert parallel.trace.find("parallel") is not None
        workers_seen = {
            span.attributes["worker"]
            for span in parallel.trace.walk()
            if span.name == "parallel.task"
        }
        assert len(workers_seen) > 1
        for key in ("sweeps", "sat.conflicts", "defects.checked"):
            assert parallel.trace.total(key) == serial.trace.total(key), key
