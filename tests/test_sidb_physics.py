"""Tests for the SiDB electrostatics engine: energies, stability,
exhaustive ground states, SimAnneal cross-validation and BDL readout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coords.lattice import LatticeSite
from repro.sidb.bdl import BdlPair, read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.sidb.stability import (
    is_configuration_stable,
    is_metastable,
    is_population_stable,
    population_stability_margin,
)
from repro.tech.constants import COULOMB_CONSTANT_EV_NM
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)


def random_layouts(max_sites=8):
    return st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 24)),
        min_size=1,
        max_size=max_sites,
        unique=True,
    ).map(lambda pairs: SidbLayout(S(n, r) for n, r in pairs))


class TestChargeModel:
    def test_duplicate_site_rejected(self):
        layout = SidbLayout([S(0, 0)])
        with pytest.raises(ValueError):
            layout.add(S(0, 0))

    def test_translation(self):
        layout = SidbLayout([S(0, 0), S(1, 2)])
        moved = layout.translated(3, 4)
        assert S(3, 4) in moved and S(4, 6) in moved


class TestEnergyModel:
    def test_screened_coulomb_value(self):
        # Two dots one lattice constant apart.
        layout = SidbLayout([S(0, 0), S(1, 0)])
        model = EnergyModel(layout, P32)
        d = 0.384
        expected = (
            COULOMB_CONSTANT_EV_NM / 5.6 * np.exp(-d / 5.0) / d
        )
        assert model.potential_matrix[0, 1] == pytest.approx(expected)
        assert model.potential_matrix[0, 0] == 0.0

    def test_energy_of_empty_configuration(self):
        layout = SidbLayout([S(0, 0), S(0, 6)])
        model = EnergyModel(layout, P32)
        assert model.energy(np.zeros(2)) == 0.0

    def test_single_electron_energy_is_mu(self):
        layout = SidbLayout([S(0, 0), S(0, 6)])
        model = EnergyModel(layout, P32)
        assert model.energy(np.array([1, 0])) == pytest.approx(-0.32)

    @settings(deadline=None, max_examples=25)
    @given(random_layouts(6), st.integers(0, 63))
    def test_batched_matches_scalar(self, layout, bits):
        model = EnergyModel(layout, P32)
        n = len(layout)
        occupation = np.array([(bits >> i) & 1 for i in range(n)])
        batch = model.batched_energies(occupation[None, :])
        assert batch[0] == pytest.approx(model.energy(occupation))

    def test_coincident_sites_rejected(self):
        layout = SidbLayout([S(0, 0)])
        # Force a duplicate position by an equal physical location.
        layout2 = SidbLayout([S(0, 0), S(0, 0).translated(0, 0).translated(0, 2)])
        EnergyModel(layout2, P32)  # distinct positions fine


class TestStability:
    def test_isolated_db_wants_electron(self):
        layout = SidbLayout([S(0, 0)])
        model = EnergyModel(layout, P32)
        assert is_population_stable(model, np.array([1]))
        assert not is_population_stable(model, np.array([0]))

    def test_close_pair_holds_single_electron(self):
        # 0.543 nm apart: V ~ 0.43 eV > |mu| -> exactly one electron.
        layout = SidbLayout([S(0, 1), S(0, 2)])
        model = EnergyModel(layout, P32)
        assert not is_population_stable(model, np.array([1, 1]))
        assert is_population_stable(model, np.array([1, 0]))

    def test_far_pair_holds_two_electrons(self):
        layout = SidbLayout([S(0, 0), S(0, 20)])
        model = EnergyModel(layout, P32)
        assert is_population_stable(model, np.array([1, 1]))

    def test_configuration_stability_hop(self):
        # Three sites in a row with charges pushed together is unstable.
        layout = SidbLayout([S(0, 0), S(0, 2), S(0, 20)])
        model = EnergyModel(layout, P32)
        squeezed = np.array([1, 1, 0])
        relaxed = np.array([1, 0, 1])
        assert not is_configuration_stable(model, squeezed)
        assert is_configuration_stable(model, relaxed)

    def test_margin_sign(self):
        layout = SidbLayout([S(0, 0)])
        model = EnergyModel(layout, P32)
        assert population_stability_margin(model, np.array([1])) > 0
        assert population_stability_margin(model, np.array([0])) < 0


class TestExhaustive:
    def test_ground_state_is_valid_and_minimal(self):
        layout = SidbLayout([S(0, 0), S(0, 2), S(0, 8), S(0, 10)])
        result = exhaustive_ground_state(layout, P32)
        assert result.ground_states
        model = EnergyModel(layout, P32)
        for gs in result.ground_states:
            assert is_metastable(model, gs)
            assert model.energy(gs) == pytest.approx(result.ground_energy)

    def test_symmetric_pair_is_degenerate(self):
        # 0.543 nm separation: V > |mu|, so the pair holds one electron
        # with two symmetric (degenerate) ground states.
        layout = SidbLayout([S(0, 1), S(0, 2)])
        result = exhaustive_ground_state(layout, P32)
        assert result.degeneracy == 2

    def test_isolated_bdl_pair_saturates(self):
        # At 0.768 nm, V(d) < |mu_minus| = 0.32 eV: an *isolated* pair
        # fills with two electrons -- which is exactly why BDL wires need
        # neighbor/perturber pressure (the paper's close/far input
        # refinement) to stay in the single-electron regime.
        layout = SidbLayout([S(0, 0), S(0, 2)])
        result = exhaustive_ground_state(layout, P32)
        assert result.degeneracy == 1
        assert list(result.occupation()) == [1, 1]

    def test_too_many_sites_rejected(self):
        layout = SidbLayout([S(n, 0) for n in range(0, 80, 3)])
        with pytest.raises(ValueError):
            exhaustive_ground_state(layout, P32)

    def test_empty_layout(self):
        result = exhaustive_ground_state(SidbLayout(), P32)
        assert result.ground_energy == 0.0


class TestSimAnnealCrossValidation:
    @settings(deadline=None, max_examples=10)
    @given(random_layouts(7))
    def test_matches_exhaustive_energy(self, layout):
        exact = exhaustive_ground_state(layout, P32)
        annealed = SimAnneal(
            layout, P32, SimAnnealParameters(instances=8, sweeps=150, seed=3)
        ).run()
        if exact.ground_states and annealed.ground_states:
            assert annealed.ground_energy == pytest.approx(
                exact.ground_energy, abs=1e-6
            )

    def test_wire_ground_state(self):
        # Canonical validated wire motif with a close (logic 1) input.
        sites = []
        pairs = []
        for k in range(3):
            sites += [S(0, 6 * k), S(0, 6 * k + 2)]
            pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
        layout = SidbLayout(sites + [S(0, -2), S(0, 18)])
        result = SimAnneal(layout, P32).run()
        assert result.ground_states
        values = [read_bdl_pair(layout, result.occupation(), p) for p in pairs]
        assert values == [True, True, True]


class TestBdl:
    def test_read_pair_states(self):
        layout = SidbLayout([S(0, 0), S(0, 2)])
        pair = BdlPair(S(0, 0), S(0, 2))
        assert read_bdl_pair(layout, np.array([1, 0]), pair) is False
        assert read_bdl_pair(layout, np.array([0, 1]), pair) is True
        assert read_bdl_pair(layout, np.array([1, 1]), pair) is None
        assert read_bdl_pair(layout, np.array([0, 0]), pair) is None

    def test_pair_separation(self):
        pair = BdlPair(S(0, 0), S(0, 2))
        assert pair.separation_nm == pytest.approx(0.768)
