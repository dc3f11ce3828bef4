"""Tests for levelization and the placement & routing engines."""

import argparse

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.cli import _report_failure
from repro.defects import SurfaceDefects
from repro.defects.exclusion import blocked_tiles
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
from repro.physical_design import exact as exact_module
from repro.physical_design.common import placement_conflicts
from repro.physical_design.exact import (
    ExactStatistics,
    HeightBound,
    _Encoding,
    _problem,
    minimum_height,
)
from repro.physical_design.heuristic import HeuristicStatistics
from repro.physical_design.topology_study import (
    CARTESIAN,
    CARTESIAN_DIAGONAL,
    HEXAGONAL,
    port_assignment_feasible,
    wiring_overhead,
)
from repro.networks.xag import Xag
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
        # Except where a node's PIs cannot meet that near row 0:
        # xor5_majority's last gate depends on all 5 PIs, newtag's last
        # NAND on all 8.  The rows are mapped without rewriting, as
        # majority_5_r1's rewrite alone takes ~40 s; TestHeightBound
        # checks the rewritten xor5_majority and newtag.
        above_depth = {"xor5_majority": 6, "newtag": 9}
        for name in TABLE1_REFERENCE:
            network = map_to_bestagon(benchmark_network(name))
            assert minimum_height(network) == above_depth.get(
                name, network.depth() + 1
            ), name
        assert mapped("xor5_majority").depth() + 1 == 5
        assert mapped("newtag").depth() + 1 == 7

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


def _plain_outcome(network, width, height, blocked=frozenset()):
    """(outcome, clauses) of the (W, H) encoding without edge clauses."""
    problem = _problem(
        network,
        width,
        height,
        frozenset((x, y) for x, y in blocked if x < width and y < height),
    )
    if problem is None:
        return "infeasible", 0
    solver = _Encoding(problem).build()
    return solver.solve().value, solver.num_clauses


def _assert_outcomes_kept(network, attempts, blocked=frozenset()):
    for attempt in attempts:
        outcome, clauses = _plain_outcome(
            network, attempt.width, attempt.height, blocked
        )
        assert attempt.outcome == outcome, (attempt.width, attempt.height)
        if outcome != "infeasible":
            assert attempt.sat_clauses == clauses + attempt.edge_columns


@st.composite
def small_mapped_networks(draw):
    """Bestagon-mapped random XAGs over 4 or 5 PIs and one PO.

    Each gate joins the two shallowest signals (ties in drawn order),
    as in a Huffman tree, and up to two gates leave an operand for a
    later gate too.  Fewer than 4 PIs never lift the height bound above
    depth + 1: a node fed by k PIs through two-input gates is at least
    log2(k) levels deep.
    """
    xag = Xag("random")
    pool = [
        (0, xag.create_pi(f"x{i}")) for i in range(draw(st.integers(4, 5)))
    ]
    reused = 0
    while len(pool) > 1:
        pool = sorted(draw(st.permutations(pool)), key=lambda e: e[0])
        (depth_a, a), (depth_b, b) = pool[:2]
        if draw(st.integers(0, 4)) == 0:
            a = xag.create_not(a)
        create = draw(
            st.sampled_from([xag.create_and, xag.create_xor, xag.create_or])
        )
        keep = reused < 2 and draw(st.integers(0, 3)) == 0
        reused += keep
        pool = (
            pool[1:2] * keep
            + pool[2:]
            + [(max(depth_a, depth_b) + 1, create(a, b))]
        )
    xag.create_po(pool[0][1])
    return map_to_bestagon(xag)


class TestHeightBound:
    """No layout is shorter than ``minimum_height``, and on xor5_majority
    and newtag, whose PIs set it, the winner is exactly that tall."""

    @pytest.mark.parametrize("width", [5, 6])
    def test_xor5_majority_has_no_five_row_layout(self, width):
        outcome, _ = _plain_outcome(mapped("xor5_majority"), width, 5)
        assert outcome == "unsat"

    @settings(max_examples=30, deadline=None)
    @given(small_mapped_networks())
    def test_no_layout_below_the_bound(self, network):
        bound = minimum_height(network)
        assume(bound > network.depth() + 1)
        width_min = max(network.num_pis, network.num_pos)
        for height in range(1, bound):
            for width in range(width_min, network.num_pis + 3):
                outcome, _ = _plain_outcome(network, width, height)
                assert outcome in ("unsat", "infeasible"), (width, height)

    @pytest.mark.parametrize(
        "name, size", [("xor5_majority", (5, 6)), ("newtag", (8, 9))]
    )
    def test_winner_sits_at_the_bound(self, name, size):
        network = mapped(name)
        statistics = ExactStatistics()
        layout = ExactPhysicalDesign().run(network, statistics)
        assert (layout.width, layout.height) == size
        assert layout.height == minimum_height(network)
        assert statistics.candidates_tried == [size]

    def test_statistics_and_failures_name_what_sets_it(self):
        network = mapped("newtag")
        statistics = ExactStatistics()
        with pytest.raises(PhysicalDesignTimeoutError) as excinfo:
            ExactPhysicalDesign(time_limit_seconds=0.0).run(
                network, statistics
            )
        assert statistics.height_bound == HeightBound(9, 16, 8)
        assert (
            "heights below 9 are impossible: node 16 depends on 8 PIs; "
            "area lower bound: 72 tiles"
        ) in str(excinfo.value)
        depth_set = ExactStatistics()
        ExactPhysicalDesign().run(mapped("xor2"), depth_set)
        assert str(depth_set.height_bound) == (
            "heights below 3 are impossible: node 3 is 2 levels deep"
        )


# mux21 with all of column 0 and three more tiles blocked: every
# candidate up to 5x7 is UNSAT, and the 5x8 layouts must route a wire,
# not a gate, through column 4.
_MUX21_BLOCKED = frozenset(
    {(0, y) for y in range(9)} | {(2, 4), (3, 2), (4, 0)}
)


class TestUnsatReuse:
    """A candidate one column wider than a proven-UNSAT one must use
    both edge columns (only the right one when tiles are blocked)."""

    def test_xor5_majority_search(self):
        # run starts at 5x6, the bound; the 5-row floor plans below it
        # are attempted directly, with the edge clauses run would add.
        network = mapped("xor5_majority")
        statistics = ExactStatistics()
        engine = ExactPhysicalDesign()
        engine.run(network, statistics)
        engine._attempt(network, 5, 5, statistics)
        engine._attempt(network, 6, 5, statistics, edge_columns=(5, 0))
        assert [
            (a.width, a.height, a.outcome, a.sat_conflicts, a.edge_columns)
            for a in statistics.attempts
        ] == [
            (5, 6, "sat", 0, 0),
            (5, 5, "unsat", 13, 0),
            (6, 5, "unsat", 5, 2),
        ]
        _assert_outcomes_kept(network, statistics.attempts[1:])

    @pytest.mark.parametrize(
        "name", ["t_5", "majority", "1bitAdderAOIG", "b1_r2"]
    )
    def test_edge_clauses_keep_every_outcome(self, name):
        network = mapped(name)
        width_min = max(network.num_pis, network.num_pos)
        statistics = ExactStatistics()
        engine = ExactPhysicalDesign(
            max_width=width_min + 4, extra_rows=0, conflict_limit=None
        )
        with pytest.raises(PhysicalDesignError):
            engine.run(network, statistics)
        assert [a.edge_columns for a in statistics.attempts] == [0] + [2] * 4
        _assert_outcomes_kept(network, statistics.attempts)

    def test_blocked_tiles_get_the_right_edge_clause_only(self, monkeypatch):
        # Only a wire can occupy column 4 of the 5x8 winner, and column 0
        # is blocked: a clause without the segments, or a column-0
        # clause, would refute the one floor plan that has a layout.
        monkeypatch.setattr(
            exact_module, "blocked_tiles", lambda *args: _MUX21_BLOCKED
        )
        xag = benchmark_network("mux21")
        network = map_to_bestagon(cut_rewrite(xag, _DB))
        statistics = ExactStatistics()
        layout = ExactPhysicalDesign(max_width=5).run(network, statistics)
        assert (layout.width, layout.height) == (5, 8)
        assert statistics.attempts[-1].edge_columns == 1
        _assert_outcomes_kept(network, statistics.attempts, _MUX21_BLOCKED)
        assert not {(c.x, c.y) for c, _ in layout.occupied()} & _MUX21_BLOCKED
        assert check_layout(layout) == []
        assert check_layout_against_network(xag, layout).equivalent

    def test_defect_surface_keeps_every_outcome(self):
        defects = SurfaceDefects.sample(
            columns=200,
            rows=200,
            density_per_nm2=5e-4,
            seed=3,
            charged_fraction=1.0,
        )
        network = mapped("par_check")
        statistics = ExactStatistics()
        engine = ExactPhysicalDesign(max_width=8, defects=defects)
        layout = engine.run(network, statistics)
        assert (layout.width, layout.height) == (7, 5)
        assert [a.edge_columns for a in statistics.attempts] == [
            0, 0, 1, 0, 1, 1, 1,
        ]
        blocked = blocked_tiles(8, minimum_height(network) + 3, defects)
        _assert_outcomes_kept(network, statistics.attempts, blocked)

    def test_edge_columns_in_span_and_failure_table(self, capsys):
        engine = ExactPhysicalDesign(
            max_width=4, extra_rows=0, conflict_limit=None
        )
        with obs.capture("search", enable=True) as capture:
            with pytest.raises(PhysicalDesignError) as excinfo:
                engine.run(mapped("majority"))
        spans = capture.span.find_all("exact.candidate")
        assert [span.attributes["edge_columns"] for span in spans] == [0, 2]
        _report_failure(argparse.Namespace(trace=False), excinfo.value)
        lines = capsys.readouterr().err.splitlines()
        assert "heights below 6 are impossible: node 9 is 5 levels deep" in (
            lines[0]
        )
        assert lines[1:] == [
            "  3x6  unsat      7 conflicts",
            "  4x6  unsat      10 conflicts, edge columns 2",
        ]


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
