"""Exhaustive ground-state search (ExGS), and the ground-set rule.

Enumerates all 2^N occupation vectors of an N-site layout, filters for
population (and optionally configuration) stability, and returns the
minimum-energy configurations.  Vectorized with numpy and chunked, this
is practical up to roughly 22 sites and serves as the exact oracle that
QuickExact and SimAnneal are tested against.

The module also states the one rule by which every engine turns scored
states into a result: :class:`GroundStateCollector` keeps the lowest
exact energy offered and every state within :data:`ENERGY_TOLERANCE`
of it, and :func:`empty_layout_result` answers a layout with no sites.
ExGS offers each chunk's stable configurations, QuickExact its leaf
candidates and SimAnneal its finalists, all scored by
:meth:`~repro.sidb.energy.EnergyModel.batched_energies` -- so the
engines report the same ground energy, bit for bit, whenever they find
the same ground set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.stability import configuration_stable, population_stable
from repro.tech.parameters import SiDBSimulationParameters

#: States within this energy window of the lowest are reported as
#: degenerate ground states (eV).
ENERGY_TOLERANCE = 1e-9

_MAX_EXHAUSTIVE_SITES = 24
_CHUNK_BITS = 16


@dataclass
class GroundStateResult:
    """Outcome of a ground-state search.

    ``valid_count`` counts the physically valid configurations the
    search *examined*: population-stable ones, further filtered for
    configuration stability when the search ran with
    ``require_configuration_stability=True`` (i.e. metastable ones).
    For the exhaustive engine and the pruned QuickExact engine
    (:mod:`repro.sidb.quickexact`, whose cuts skip only subtrees
    without such a state) this is the exact number of such states in
    the whole 2^N space.  For SimAnneal it is simply the number of
    distinct ground states reported.
    """

    layout: SidbLayout
    ground_states: list[np.ndarray] = field(default_factory=list)
    ground_energy: float = float("inf")
    valid_count: int = 0
    total_count: int = 0
    #: Engine-specific search statistics (:class:`~repro.sidb.
    #: quickexact.QuickExactStatistics` for the pruned engine, ``None``
    #: otherwise).
    stats: object | None = None

    @property
    def degeneracy(self) -> int:
        return len(self.ground_states)

    def occupation(self) -> np.ndarray:
        """The (first) ground-state occupation vector."""
        if not self.ground_states:
            raise RuntimeError("no valid configuration found")
        return self.ground_states[0]


def empty_layout_result(
    layout: SidbLayout, stats: object | None = None
) -> GroundStateResult:
    """The one state of a layout without sites: no charge, energy 0."""
    return GroundStateResult(
        layout,
        ground_states=[np.zeros(0, dtype=np.int8)],
        ground_energy=0.0,
        valid_count=1,
        total_count=1,
        stats=stats,
    )


class GroundStateCollector:
    """The degenerate ground set among the states offered so far.

    Keeps the lowest exact energy offered (:attr:`energy`) and every
    state within :data:`ENERGY_TOLERANCE` of it, in the order offered.
    A state dropped because it was too far above the lowest energy at
    the time could never rejoin: the lowest energy only falls.
    """

    def __init__(self) -> None:
        self.energy = float("inf")
        self._kept: list[tuple[np.ndarray, float]] = []

    @property
    def states(self) -> list[np.ndarray]:
        return [state for state, _ in self._kept]

    def offer(self, states: np.ndarray, energies: np.ndarray) -> None:
        """Offer configuration rows with their exact energies."""
        if not len(energies):
            return
        self.energy = min(self.energy, float(energies.min()))
        ceiling = self.energy + ENERGY_TOLERANCE
        self._kept = [
            (state, energy) for state, energy in self._kept
            if energy <= ceiling
        ]
        near = energies <= ceiling
        self._kept.extend(zip(states[near], energies[near].tolist()))

    def result(
        self,
        layout: SidbLayout,
        valid_count: int,
        stats: object | None = None,
    ) -> GroundStateResult:
        return GroundStateResult(
            layout,
            ground_states=self.states,
            ground_energy=self.energy,
            valid_count=valid_count,
            total_count=1 << len(layout),
            stats=stats,
        )


def exhaustive_ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters | None = None,
    require_configuration_stability: bool = True,
    model: EnergyModel | None = None,
) -> GroundStateResult:
    """Exact ground state(s) of a small SiDB layout.

    ``model`` lets callers reuse a prebuilt (geometry-cached)
    :class:`EnergyModel` so the chunked enumeration never recomputes the
    pairwise interaction matrix.

    The returned ``valid_count`` matches the stability filter that
    actually ran: with ``require_configuration_stability=True`` it is
    the number of *metastable* configurations (population- and
    configuration-stable); with ``False`` it counts population-stable
    ones only.
    """
    n = len(layout)
    if n > _MAX_EXHAUSTIVE_SITES:
        raise ValueError(
            f"{n} sites exceed the exhaustive limit of {_MAX_EXHAUSTIVE_SITES}"
        )
    if n == 0:
        return empty_layout_result(layout)
    model = model or EnergyModel(layout, parameters)
    mu = model.parameters.mu_minus
    ground = GroundStateCollector()
    valid_count = 0

    chunk = 1 << min(_CHUNK_BITS, n)
    bits = np.arange(n, dtype=np.uint32)
    for start in range(0, 1 << n, chunk):
        indices = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        configs = ((indices[:, None] >> bits[None, :]) & 1).astype(np.int8)
        potentials = model.batched_local_potentials(configs)
        occupied = configs > 0
        stable = population_stable(potentials + mu, occupied)
        if require_configuration_stability:
            stable[stable] = configuration_stable(
                potentials[stable], occupied[stable], model.potential_matrix
            )
        stable_configs = configs[stable]
        valid_count += len(stable_configs)
        ground.offer(stable_configs, model.batched_energies(stable_configs))
    return ground.result(layout, valid_count)
