"""Tests for the repro.obs tracing and metrics subsystem."""

import io

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Histogram, LineProgressReporter, Span
from repro.obs.events import Event, EventRing
from repro.obs.render import render_tree, trace_from_json, trace_to_json


class Terminal(io.StringIO):
    """An in-memory stream that reports itself as a terminal."""

    def isatty(self) -> bool:
        return True


@pytest.fixture(autouse=True)
def clean_recorder():
    """Every test starts (and leaves) a pristine, disabled recorder."""
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    obs.set_progress(None)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def busy_wait():
    """Burn a sliver of CPU so both clocks tick measurably."""
    total = 0
    for i in range(20_000):
        total += i
    return total


class TestSpanNesting:
    def test_children_attach_to_innermost(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("first"):
                with obs.span("grandchild"):
                    busy_wait()
            with obs.span("second"):
                pass
        assert [child.name for child in root.children] == ["first", "second"]
        assert root.children[0].children[0].name == "grandchild"
        assert obs.recorder().roots == [root]

    def test_times_recorded_and_nested_monotone(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                busy_wait()
        assert inner.wall_seconds > 0
        assert outer.wall_seconds >= inner.wall_seconds
        assert outer.cpu_seconds >= 0

    def test_attributes_from_kwargs_and_set(self):
        obs.enable()
        with obs.span("candidate", width=4, height=7) as span:
            span.set("outcome", "sat")
        assert span.attributes == {
            "width": 4, "height": 7, "outcome": "sat"
        }

    def test_exception_closes_span(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert obs.recorder().current() is None
        assert obs.recorder().roots[0].name == "doomed"

    def test_defensive_unwind_of_orphaned_children(self):
        # Ending a parent with a child still open must not corrupt the
        # stack: the recorder pops through the orphan.
        obs.enable()
        recorder = obs.recorder()
        parent = recorder.start("parent")
        recorder.start("orphan")
        recorder.end(parent)
        assert recorder.current() is None

    def test_orphaned_children_get_durations_and_truncated_tag(self):
        # Satellite fix: an orphan popped by the defensive unwinding
        # must not report zero-time -- it gets real (cut-short)
        # durations and a "truncated" marker.
        obs.enable()
        recorder = obs.recorder()
        parent = recorder.start("parent")
        orphan = recorder.start("orphan")
        busy_wait()
        recorder.end(parent)
        assert orphan.wall_seconds > 0.0
        assert orphan.cpu_seconds > 0.0
        assert orphan.attributes["truncated"] is True
        assert "truncated" not in parent.attributes
        assert parent.wall_seconds >= orphan.wall_seconds

    def test_ending_a_closed_span_does_not_unwind_the_stack(self):
        obs.enable()
        recorder = obs.recorder()
        parent = recorder.start("parent")
        child = recorder.start("child")
        recorder.end(child)
        recorder.end(child)  # double end: must leave parent open
        assert recorder.current() is parent
        recorder.end(parent)
        assert recorder.current() is None
        assert "truncated" not in child.attributes

    def test_walk_find_total(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("leaf") as leaf:
                leaf.add("sat.conflicts", 3)
            with obs.span("leaf") as second:
                second.add("sat.conflicts", 4)
        assert len(list(root.walk())) == 3
        assert root.find("leaf") is leaf
        assert root.find("missing") is None
        assert root.find_all("leaf") == [leaf, second]
        assert root.total("sat.conflicts") == 7


class TestCounters:
    def test_span_counters_accumulate(self):
        obs.enable()
        with obs.span("work") as span:
            obs.add("moves")
            obs.add("moves")
            obs.add("energy", 2.5)
        assert span.counters == {"moves": 2.0, "energy": 2.5}

    def test_add_targets_innermost_span(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                obs.add("hits")
        assert inner.counters == {"hits": 1.0}
        assert "hits" not in outer.counters

    def test_counter_outside_any_span_lands_on_recorder(self):
        obs.enable()
        obs.add("stray", 5)
        assert obs.recorder().counters == {"stray": 5.0}

    def test_gauge_sets_attribute(self):
        obs.enable()
        with obs.span("work") as span:
            obs.gauge("acceptance_rate", 0.25)
        assert span.attributes["acceptance_rate"] == 0.25

    def test_reset_clears_everything(self):
        obs.enable()
        with obs.span("root"):
            obs.add("hits")
        obs.add("stray")
        obs.reset()
        recorder = obs.recorder()
        assert recorder.roots == [] and recorder.counters == {}
        assert obs.enabled()  # reset keeps the switch


class TestDisabledNoOp:
    def test_span_returns_shared_handle(self):
        handle = obs.span("anything", width=9)
        assert handle is obs.span("something_else")
        with handle as span:
            assert span is NULL_SPAN

    def test_null_span_swallows_mutations(self):
        with obs.span("quiet") as span:
            span.set("key", 1)
            span.add("counter", 2)
        assert not hasattr(span, "attributes")
        assert obs.recorder().roots == []

    def test_add_and_gauge_record_nothing(self):
        obs.add("hits")
        obs.gauge("rate", 0.5)
        recorder = obs.recorder()
        assert recorder.counters == {} and recorder.roots == []

    def test_current_is_null_span(self):
        assert obs.current() is NULL_SPAN


class TestCapture:
    def test_force_enable_and_restore(self):
        assert not obs.enabled()
        with obs.capture("scoped", enable=True) as cap:
            assert obs.enabled()
            with obs.span("inner"):
                busy_wait()
        assert not obs.enabled()
        assert cap.span is not None and cap.span.name == "scoped"
        assert cap.span.children[0].name == "inner"
        assert cap.span.wall_seconds > 0

    def test_enable_none_respects_disabled_state(self):
        with obs.capture("scoped") as cap:
            with obs.span("inner"):
                pass
        assert cap.span is None

    def test_enable_none_respects_enabled_state(self):
        obs.enable()
        with obs.capture("scoped") as cap:
            pass
        assert obs.enabled()
        assert cap.span is not None

    def test_force_disable(self):
        obs.enable()
        with obs.capture("scoped", enable=False) as cap:
            assert not obs.enabled()
        assert obs.enabled()
        assert cap.span is None


class TestJsonRoundTrip:
    def make_trace(self):
        obs.enable()
        with obs.span("root", engine="exact") as root:
            with obs.span("child") as child:
                child.add("sat.conflicts", 14)
                child.set("outcome", "sat")
        return root

    def test_round_trip_preserves_tree(self):
        root = self.make_trace()
        restored = trace_from_json(trace_to_json(root))
        assert restored.to_dict() == root.to_dict()
        assert restored.find("child").counters["sat.conflicts"] == 14

    def test_from_dict_tolerates_missing_fields(self):
        span = Span.from_dict({"name": "bare"})
        assert span.name == "bare"
        assert span.children == [] and span.counters == {}

    def test_render_tree_mentions_every_span(self):
        root = self.make_trace()
        art = render_tree(root)
        assert "root" in art and "child" in art
        assert "wall" in art and "cpu" in art
        assert "outcome=sat" in art and "sat.conflicts=14" in art
        ascii_art = render_tree(root, unicode_art=False)
        assert "`- " in ascii_art


class TestInstrumentedSubsystems:
    def test_solver_reports_sat_counters(self):
        from repro.sat import Cnf, Solver, SolverResult

        cnf = Cnf()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3])
        obs.enable()
        with obs.span("root") as root:
            assert Solver(cnf).solve() is SolverResult.SAT
        solve = root.find("sat.solve")
        assert solve is not None
        assert solve.attributes["result"] == "sat"
        assert solve.counters["sat.propagations"] > 0

    def test_simanneal_reports_counters(self):
        from repro.sidb.bdl import scaling_layout
        from repro.sidb.simanneal import SimAnneal, SimAnnealParameters

        layout = scaling_layout(10)
        schedule = SimAnnealParameters(instances=8, sweeps=20, seed=1)
        obs.enable()
        with obs.span("root") as root:
            SimAnneal(layout, schedule=schedule).run()
        span = root.find("simanneal.run")
        assert span is not None
        assert span.counters["sweeps"] > 0
        assert span.counters["moves.proposed"] > 0
        assert 0.0 <= span.attributes["acceptance_rate"] <= 1.0
        assert span.histograms["simanneal.energy"].count == span.counters[
            "finalists"
        ]


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram()
        for value in [4.0, 1.0, 3.0, 2.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 10.0
        assert histogram.min == 1.0 and histogram.max == 4.0
        assert histogram.mean == 2.5

    def test_quantiles_exact_while_undecimated(self):
        histogram = Histogram()
        for value in range(100):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(0.5) == 50.0
        assert histogram.quantile(1.0) == 99.0

    def test_quantile_input_validation_and_empty(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)

    def test_decimation_is_deterministic_and_bounded(self):
        first = Histogram(max_samples=64)
        second = Histogram(max_samples=64)
        for value in range(10_000):
            first.observe(value)
            second.observe(value)
        assert len(first.samples) < 64
        assert first.stride > 1
        assert first == second  # identical streams, identical state
        assert first.count == 10_000
        # The decimated quantiles stay close to the true ones.
        assert abs(first.quantile(0.5) - 5000) / 10_000 < 0.1

    def test_merge_matches_exact_aggregates(self):
        left, right, reference = Histogram(), Histogram(), Histogram()
        for value in range(50):
            left.observe(value)
            reference.observe(value)
        for value in range(50, 80):
            right.observe(value)
            reference.observe(value)
        left.merge(right)
        assert left.count == reference.count
        assert left.sum == reference.sum
        assert left.min == reference.min and left.max == reference.max

    def test_merge_with_empty_keeps_min_max(self):
        histogram = Histogram()
        histogram.observe(2.0)
        histogram.merge(Histogram())
        assert histogram.min == 2.0 and histogram.max == 2.0

    def test_json_round_trip(self):
        histogram = Histogram()
        for value in range(10):
            histogram.observe(value)
        restored = Histogram.from_dict(histogram.to_dict())
        assert restored == histogram
        assert Histogram.from_dict(Histogram().to_dict()).count == 0

    def test_span_observe_and_histogram_total(self):
        obs.enable()
        with obs.span("root") as root:
            obs.observe("cnf", 100.0)
            with obs.span("child"):
                obs.observe("cnf", 300.0)
        merged = root.histogram_total("cnf")
        assert merged.count == 2 and merged.sum == 400.0
        # Histograms survive the trace JSON round trip.
        restored = trace_from_json(trace_to_json(root))
        assert restored.histogram_total("cnf").count == 2
        assert restored.to_dict() == root.to_dict()

    def test_observe_disabled_is_noop(self):
        obs.observe("cnf", 1.0)
        with obs.span("quiet") as span:
            span.observe("cnf", 2.0)
        assert obs.recorder().roots == []


class TestEventRing:
    def test_drops_oldest_at_capacity(self):
        ring = EventRing(capacity=3)
        for index in range(5):
            ring.append(Event(f"e{index}", float(index)))
        assert len(ring) == 3
        assert [event.name for event in ring.snapshot()] == [
            "e2", "e3", "e4"
        ]
        assert ring.dropped == 2

    def test_clear(self):
        ring = EventRing(capacity=2)
        ring.append(Event("a", 0.0))
        ring.append(Event("b", 1.0))
        ring.append(Event("c", 2.0))
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0
        assert ring.snapshot() == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            EventRing(capacity=0)

    def test_obs_event_gated_on_enabled(self):
        obs.event("ignored")
        assert obs.events() == []
        obs.enable()
        obs.event("kept", detail=7)
        events = obs.events()
        assert [event.name for event in events] == ["kept"]
        assert events[0].attributes == {"detail": 7}
        obs.reset()
        assert obs.events() == []

    def test_set_event_capacity(self):
        obs.enable()
        obs.set_event_capacity(2)
        try:
            for index in range(4):
                obs.event(f"e{index}")
            assert [event.name for event in obs.events()] == ["e2", "e3"]
            assert obs.event_ring().dropped == 2
        finally:
            obs.set_event_capacity(1024)

    def test_record_event_bypasses_the_enabled_gate(self):
        # Service lifecycle events must reach /v1/events on production
        # runs where trace recording is off.
        assert not obs.enabled()
        obs.record_event("service.started", url="http://x")
        events = obs.events()
        assert [event.name for event in events] == ["service.started"]
        assert events[0].attributes == {"url": "http://x"}

    def test_since_returns_only_new_events_and_cursor(self):
        ring = EventRing(capacity=4)
        events, cursor = ring.since(0)
        assert events == [] and cursor == 0
        for index in range(3):
            ring.append(Event(f"e{index}", float(index)))
        events, cursor = ring.since(0)
        assert [event.name for event in events] == ["e0", "e1", "e2"]
        assert cursor == 3
        events, cursor = ring.since(cursor)
        assert events == [] and cursor == 3
        ring.append(Event("e3", 3.0))
        events, cursor = ring.since(cursor)
        assert [event.name for event in events] == ["e3"]

    def test_since_clamps_a_lagging_cursor_to_whats_retained(self):
        # A subscriber that slept through overwrites gets everything
        # still in the ring, not a gap-induced error.
        ring = EventRing(capacity=3)
        for index in range(8):
            ring.append(Event(f"e{index}", float(index)))
        events, cursor = ring.since(1)
        assert [event.name for event in events] == ["e5", "e6", "e7"]
        assert cursor == 8

    def test_since_resets_a_cursor_from_a_replaced_ring(self):
        # set_event_capacity swaps the ring and its sequence restarts;
        # a stale (now-future) cursor must reset, not wedge.
        ring = EventRing(capacity=4)
        ring.append(Event("a", 0.0))
        events, cursor = ring.since(99)
        assert [event.name for event in events] == ["a"]
        assert cursor == 1
        assert ring.since(-5)[0] == events

    def test_concurrent_writers_keep_ordering_and_counts(self):
        import threading

        ring = EventRing(capacity=64)
        writers, per_writer = 8, 100

        def write(writer):
            for index in range(per_writer):
                ring.append(Event(f"w{writer}", float(index)))

        threads = [
            threading.Thread(target=write, args=(writer,))
            for writer in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = writers * per_writer
        assert ring.sequence == total
        assert ring.dropped == total - 64
        snapshot = ring.snapshot()
        assert len(snapshot) == 64
        # Drop-oldest: each writer's surviving events are its *latest*
        # ones, still in its own append order.
        for writer in range(writers):
            timestamps = [
                event.timestamp
                for event in snapshot
                if event.name == f"w{writer}"
            ]
            assert timestamps == sorted(timestamps)
            if timestamps:
                assert timestamps[-1] == per_writer - 1

    def test_capacity_change_mid_stream_resets_cleanly(self):
        obs.enable()
        try:
            for index in range(6):
                obs.event(f"before{index}")
            ring = obs.event_ring()
            _, cursor = ring.since(0)
            assert cursor >= 6  # sequence survives clear(); >= is exact
            obs.set_event_capacity(2)  # new ring, sequence restarts
            ring = obs.event_ring()
            assert ring.sequence == 0
            obs.event("after0")
            obs.event("after1")
            obs.event("after2")
            events, new_cursor = ring.since(cursor)  # stale cursor
            assert [event.name for event in events] == [
                "after1", "after2"
            ]
            assert new_cursor == 3
        finally:
            obs.set_event_capacity(1024)


class TestProgress:
    def test_ticks_reach_installed_reporter(self):
        ticks = []

        class Collector:
            def update(self, stage, current, total=None, **info):
                ticks.append((stage, current, total, info))

        with obs.progress_scope(Collector()):
            obs.progress("stage", 1, 4, width=3)
        obs.progress("stage", 2, 4)  # after the scope: dropped
        assert ticks == [("stage", 1, 4, {"width": 3})]

    def test_progress_without_reporter_is_noop(self):
        obs.progress("stage", 1, 2)  # must not raise

    def test_scope_restores_previous_reporter_and_finishes(self):
        finished = []

        class Outer:
            def update(self, stage, current, total=None, **info):
                pass

        class Inner(Outer):
            def finish(self):
                finished.append(True)

        outer = Outer()
        obs.set_progress(outer)
        try:
            with obs.progress_scope(Inner()):
                pass
            assert finished == [True]
            obs.progress("stage", 1)  # lands on the restored outer
        finally:
            obs.set_progress(None)

    def test_line_reporter_renders_and_clears(self):
        stream = Terminal()
        reporter = LineProgressReporter(stream=stream, min_interval=0.0)
        reporter.update("simanneal.sweeps", 50, 100, instances=8)
        reporter.update("simanneal.sweeps", 100, 100)
        reporter.finish()
        text = stream.getvalue()
        assert "simanneal.sweeps 50/100 (instances=8)" in text
        assert "simanneal.sweeps 100/100" in text
        assert reporter.updates == 2
        assert text.endswith("\r")  # the line is cleared at the end

    def test_line_reporter_writes_lines_to_a_pipe(self):
        stream = io.StringIO()
        reporter = LineProgressReporter(stream=stream, min_interval=0.0)
        reporter.update("operational.patterns", 1, 2)
        reporter.update("operational.patterns", 2, 2)
        reporter.finish()
        assert stream.getvalue() == (
            "operational.patterns 1/2\noperational.patterns 2/2\n"
        )

    def test_line_reporter_throttles_but_renders_final_tick(self):
        stream = io.StringIO()
        reporter = LineProgressReporter(stream=stream, min_interval=3600.0)
        reporter.update("stage", 1, 10)
        reporter.update("stage", 5, 10)  # throttled away
        reporter.update("stage", 10, 10)  # final: always rendered
        text = stream.getvalue()
        assert "stage 1/10" in text
        assert "stage 5/10" not in text
        assert "stage 10/10" in text
