"""Tests for the operational-domain check, the canvas designer and the
clocked-wire demonstration (Figure 2)."""

import pytest

from repro.coords.lattice import LatticeSite
from repro.gatelib.designer import CanvasSearchProblem, score_design, search_canvas_design
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.clocked import ClockedWire
from repro.sidb.operational import GateUnderTest, check_operational
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)


def wire_fixture(npairs=3):
    """Canonical validated wire + stimuli + output pair."""
    sites, pairs = [], []
    for k in range(npairs):
        sites += [S(0, 6 * k), S(0, 6 * k + 2)]
        pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
    last = 6 * (npairs - 1) + 2
    sites.append(S(0, last + 4))  # output hold perturber
    stimuli = [([S(0, -6)], [S(0, -2)])]
    return sites, stimuli, pairs


def wire_gate(table=TruthTable(1, 0b10)):
    sites, stimuli, pairs = wire_fixture()
    return GateUnderTest(sites, stimuli, [pairs[-1]], [table])


class TestOperationalCheck:
    def test_wire_is_operational(self):
        report = check_operational(wire_gate(), parameters=P32)
        assert report.operational
        assert len(report.patterns) == 2

    def test_wire_as_inverter_fails(self):
        report = check_operational(
            wire_gate(TruthTable(1, 0b01)), parameters=P32
        )
        assert not report.operational

    def test_arity_mismatch_rejected(self):
        sites, stimuli, pairs = wire_fixture()
        with pytest.raises(ValueError):
            GateUnderTest(
                sites, stimuli, [pairs[-1]], [TruthTable(2, 0b0110)]
            )

    def test_missing_truth_table_rejected(self):
        sites, stimuli, pairs = wire_fixture()
        with pytest.raises(ValueError, match="2 output pairs"):
            GateUnderTest(
                sites, stimuli, [pairs[1], pairs[2]], [TruthTable(1, 0b10)]
            )

    def test_second_table_arity_checked(self):
        sites, stimuli, pairs = wire_fixture()
        with pytest.raises(ValueError, match="truth table 1"):
            GateUnderTest(
                sites,
                stimuli,
                [pairs[1], pairs[2]],
                [TruthTable(1, 0b10), TruthTable(2, 0b0110)],
            )

    def test_output_pair_outside_body_rejected(self):
        sites, stimuli, pairs = wire_fixture()
        with pytest.raises(ValueError, match="output pair 0"):
            GateUnderTest(
                sites, stimuli, [BdlPair(S(5, 0), S(5, 2))],
                [TruthTable(1, 0b10)],
            )

    def test_simanneal_engine_agrees(self):
        report = check_operational(wire_gate(), P32, engine="simanneal")
        assert report.operational

    def test_pattern_energies_recorded(self):
        report = check_operational(wire_gate(), P32)
        for pattern in report.patterns:
            assert pattern.ground_energy < 0


class TestDesigner:
    def test_score_of_complete_wire(self):
        sites, stimuli, pairs = wire_fixture()
        problem = CanvasSearchProblem(
            fixed_sites=sites,
            candidate_sites=[S(3, 8)],
            input_stimuli=stimuli,
            output_pairs=[pairs[-1]],
            outputs=[TruthTable(1, 0b10)],
            parameters=P32,
        )
        correct, total = score_design(problem, frozenset())
        assert (correct, total) == (2, 2)

    def test_search_completes_missing_dot(self):
        """Remove the hold perturber; the designer must re-discover it."""
        sites, stimuli, pairs = wire_fixture()
        body = sites[:-1]  # drop the hold perturber
        problem = CanvasSearchProblem(
            fixed_sites=body,
            candidate_sites=[S(0, 16), S(0, 18), S(2, 16), S(0, 20)],
            input_stimuli=stimuli,
            output_pairs=[pairs[-1]],
            outputs=[TruthTable(1, 0b10)],
            parameters=P32,
        )
        result = search_canvas_design(problem, max_dots=2, iterations=60, seed=1)
        assert result is not None
        canvas, correct, total = result
        assert correct == total

    def test_colliding_canvas_scores_zero(self):
        sites, stimuli, pairs = wire_fixture()
        problem = CanvasSearchProblem(
            fixed_sites=sites,
            candidate_sites=[sites[0]],
            input_stimuli=stimuli,
            output_pairs=[pairs[-1]],
            outputs=[TruthTable(1, 0b10)],
            parameters=P32,
        )
        assert score_design(problem, frozenset([sites[0]]))[0] == 0


class TestClockedWire:
    def test_front_propagates_one(self):
        wire = ClockedWire(pairs_per_zone=2, num_zones=4, parameters=P32)
        history = wire.propagate(True)
        assert len(history) == 4
        assert wire.front_arrived(history, True)

    def test_front_propagates_zero(self):
        wire = ClockedWire(pairs_per_zone=2, num_zones=4, parameters=P32)
        history = wire.propagate(False)
        assert wire.front_arrived(history, False)

    def test_deactivated_zones_not_read(self):
        wire = ClockedWire(parameters=P32)
        reads = wire.simulate_phase([0], True)
        assert set(reads) == {0}
        assert all(v is True for v in reads[0])

    def test_phase_activation_grows(self):
        wire = ClockedWire(parameters=P32)
        history = wire.propagate(True)
        for phase, reads in enumerate(history):
            assert set(reads) == set(range(phase + 1))
