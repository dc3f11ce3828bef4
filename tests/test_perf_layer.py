"""Tests of the simulation performance layer.

Covers the vectorized batch annealer (cross-validated against the
exhaustive oracle), order-independent per-instance seeding, the shared
geometry cache, and the bit-identity of serial vs process-parallel
sweeps.
"""

import pytest

from repro.coords.lattice import LatticeSite
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair, scaling_layout
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import (
    EnergyModel,
    clear_geometry_cache,
    geometry_cache_stats,
)
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import GateUnderTest, check_operational
from repro.sidb.operational_domain import compute_operational_domain
from repro.sidb.parallel import resolve_workers, run_tasks
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters

S = LatticeSite.from_row

SCHEDULE = SimAnnealParameters(instances=16, sweeps=100, seed=1)


class TestBatchAnnealer:
    @pytest.mark.parametrize("num_sites", [10, 14, 18])
    def test_matches_exhaustive(self, num_sites):
        layout = scaling_layout(num_sites)
        exact = exhaustive_ground_state(layout)
        annealed = SimAnneal(layout, schedule=SCHEDULE).run()
        assert annealed.ground_energy == pytest.approx(
            exact.ground_energy, abs=1e-9
        )
        assert annealed.degeneracy == exact.degeneracy

    def test_reported_energy_is_exact(self):
        # Satellite fix: the reported energy is recomputed from the
        # occupation vector, never accumulated from per-move deltas.
        layout = scaling_layout(12)
        schedule = SimAnnealParameters(instances=8, sweeps=80, seed=2)
        engine = SimAnneal(layout, schedule=schedule)
        result = engine.run()
        assert result.ground_energy == engine.model.energy(
            result.occupation()
        )

    def test_degenerate_states_collected(self):
        # The symmetric wire has a 2-fold degenerate ground state; the
        # annealer must report both states like the exhaustive engine.
        layout = scaling_layout(14)
        exact = exhaustive_ground_state(layout)
        assert exact.degeneracy == 2
        annealed = SimAnneal(layout, schedule=SCHEDULE).run()
        assert annealed.degeneracy == 2
        keys = {state.tobytes() for state in annealed.ground_states}
        assert keys == {state.tobytes() for state in exact.ground_states}


class TestOrderIndependentSeeding:
    def test_seeds_depend_only_on_seed_and_index(self):
        layout = scaling_layout(6)
        engine = SimAnneal(layout, schedule=SCHEDULE)
        first = [s.generate_state(2).tolist() for s in engine.instance_seeds()]
        second = [s.generate_state(2).tolist() for s in engine.instance_seeds()]
        assert first == second


class TestGeometryCache:
    def test_hit_counter_and_rescale(self):
        layout = SidbLayout([S(0, 0), S(0, 2), S(4, 6), S(4, 8)])
        clear_geometry_cache()
        first = EnergyModel(layout)
        after_first = geometry_cache_stats()
        assert after_first["misses"] == 1
        assert after_first["hits"] == 0

        second = EnergyModel(layout)  # same site tuple: cache hit
        after_second = geometry_cache_stats()
        assert after_second["misses"] == 1
        assert after_second["hits"] == 1
        assert after_second["entries"] == 1
        # The hit shares the cached, read-only geometry.
        assert second.distance_matrix is first.distance_matrix
        assert not first.distance_matrix.flags.writeable

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValueError, match="duplicate|coincide"):
            EnergyModel(SidbLayout([S(0, 0), S(0, 0)]))


def _wire_gate():
    sites, pairs = [], []
    for k in range(3):
        sites += [S(0, 6 * k), S(0, 6 * k + 2)]
        pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
    sites.append(S(0, 18))
    return GateUnderTest(
        sites,
        [([S(0, -6)], [S(0, -2)])],
        [pairs[-1]],
        [TruthTable(1, 0b10)],
    )


class TestParallelSweeps:
    def test_check_operational_workers_identical(self):
        gate = _wire_gate()
        serial = check_operational(gate)
        parallel = check_operational(gate, workers=2)
        assert serial.operational and parallel.operational
        assert [
            (p.pattern, p.expected, p.observed, p.ground_energy, p.correct)
            for p in serial.patterns
        ] == [
            (p.pattern, p.expected, p.observed, p.ground_energy, p.correct)
            for p in parallel.patterns
        ]

    def test_domain_sweep_workers_identical(self):
        gate = _wire_gate()
        kwargs = dict(
            x_values=(5.1, 5.6), y_values=(4.0, 5.0),
        )
        serial = compute_operational_domain(gate, **kwargs)
        parallel = compute_operational_domain(gate, workers=2, **kwargs)
        assert serial.points == parallel.points
        assert len(serial.points) == 4

    def test_run_tasks_preserves_order(self):
        tasks = list(range(7))
        assert run_tasks(_square, tasks, workers=1) == [t * t for t in tasks]
        assert run_tasks(_square, tasks, workers=2) == [t * t for t in tasks]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)


def _square(value):
    return value * value
