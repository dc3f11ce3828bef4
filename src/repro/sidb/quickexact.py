"""QuickExact-style pruned exact ground-state search.

The exhaustive engine (:mod:`repro.sidb.exhaustive`) enumerates all
2^N occupation vectors, which caps exact simulation at ~24 sites.
"The Need for Speed: Efficient Exact Simulation of Silicon Dangling
Bond Logic" (Drewniok, Walter, Wille) shows that physically informed
search-space pruning finds the very same ground states orders of
magnitude faster.  This module implements that idea on top of the
repo's :class:`~repro.sidb.energy.EnergyModel`:

* **Negative-charge witness bounds.**  Sites are decided one by one
  (negative or neutral).  Because every pairwise interaction
  ``V_ij >= 0``, the local potential of site *i* over all completions
  of a partial assignment is bracketed by ``base_i`` (contributions of
  the already-decided negatives) and ``base_i + rem_i`` (``rem_i`` =
  total potential the still-undecided sites could add).  A decided
  *negative* site that violates ``v_i + mu <= 0`` even at its minimum
  potential, or a decided *neutral* site that violates
  ``v_i + mu >= 0`` even at its maximum, witnesses that **no**
  completion of the subtree is population stable -- the subtree is cut
  without losing a single stable configuration.

* **Configuration-stability (hop) witness.**  When configuration
  stability is required, a decided negative site *i* and a decided
  neutral site *j* bound the energy change of the hop i -> j over all
  completions: ``v_j - v_i - V_ij <= (w_j - w_i) + sum_k max(0, V_jk -
  V_ik) - V_ij`` with *k* over the undecided sites and ``w = base + mu
  + external potential``.  A bound below the stability tolerance means
  the hop lowers the energy in every completion, so none is
  metastable.  The visiting order is fixed, so the sums depend only on
  the depth and are tabulated once per search.

* **Branch-and-bound energy pruning.**  The incumbent is the best
  exact leaf energy found so far (or a caller-supplied upper bound).
  The search branches the likelier ground-state value first, so its
  first leaves already reach a low-energy state.  Each partial
  assignment carries an energy lower bound -- the decided part's exact
  energy plus ``min(0, mu + ext_j + base_j)`` per undecided site, valid
  because cross-terms among undecided negatives are repulsive -- and
  subtrees provably above the incumbent (plus the degeneracy
  tolerance) are skipped.  Disable with ``energy_pruning=False`` to
  enumerate *every* stable configuration (then ``valid_count`` matches
  ExGS exactly).

* **Vectorized leaf enumeration.**  Once only ``leaf_bits`` sites
  remain undecided, the whole 2^leaf_bits subtree is evaluated as one
  numpy batch -- the same chunked formulation as the exhaustive engine
  -- so the Python-level recursion only ever runs over the pruned
  prefix tree.  Every leaf sits at the same depth, so the suffix
  patterns' potentials, occupancy masks and pair energies are computed
  once per search; a leaf screens its rows on the suffix columns
  first and tests the decided prefix only on the rows that survive.

Candidate energies are *recomputed* through the shared
:meth:`~repro.sidb.energy.EnergyModel.batched_energies` before they are
compared or reported, so the returned ground energy and degenerate
state set are bit-identical to the exhaustive engine's (the
incrementally maintained decomposition is only used for pruning, with
a small slack guarding against last-ulp drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import GroundStateResult
from repro.sidb.stability import (
    POPULATION_TOLERANCE,
    batched_configuration_stable,
)
from repro.tech.parameters import SiDBSimulationParameters

#: Hard site ceiling of the pruned engine.  Beyond this even the pruned
#: prefix tree can degenerate; the automatic engine selection hands
#: larger systems to SimAnneal.
MAX_QUICKEXACT_SITES = 32

#: Remaining-site count at which the recursion hands the subtree to the
#: vectorized leaf enumeration.  Small enough that the witness cuts get
#: a deep prefix to prune, large enough that the numpy batches stay
#: efficient.
DEFAULT_LEAF_BITS = 10

#: Slack added wherever the search's decomposed (incrementally
#: maintained) energies are compared against exactly recomputed ones;
#: covers last-ulp differences between the two summation orders.
_DECOMPOSITION_SLACK = 1e-12

#: Cached (2^m, m) suffix occupation patterns, keyed on m.
_SUFFIX_PATTERNS: dict[int, np.ndarray] = {}


def _suffix_patterns(m: int) -> np.ndarray:
    patterns = _SUFFIX_PATTERNS.get(m)
    if patterns is None:
        indices = np.arange(1 << m, dtype=np.uint32)
        bits = np.arange(m, dtype=np.uint32)
        patterns = ((indices[:, None] >> bits[None, :]) & 1).astype(np.int8)
        patterns.setflags(write=False)
        _SUFFIX_PATTERNS[m] = patterns
    return patterns


@dataclass
class QuickExactStatistics:
    """Pruning telemetry of one QuickExact search.

    ``nodes_visited`` counts interior partial assignments explored,
    ``configurations_enumerated`` the full occupation vectors the
    vectorized leaves evaluated; their relation to ``search_space``
    (2^N) is the engine's whole speed story.  The ``cut_*`` counters
    attribute every pruned subtree to the bound that fired.
    """

    num_sites: int = 0
    search_space: int = 0
    nodes_visited: int = 0
    leaves_evaluated: int = 0
    configurations_enumerated: int = 0
    cut_witness_occupied: int = 0
    cut_witness_empty: int = 0
    cut_witness_hop: int = 0
    cut_energy_bound: int = 0
    incumbent_energy: float = float("inf")

    @property
    def enumerated_fraction(self) -> float:
        """Leaf configurations evaluated as a fraction of 2^N."""
        if not self.search_space:
            return 0.0
        return self.configurations_enumerated / self.search_space

    def cut_histogram(self) -> dict[str, int]:
        """Pruned-subtree attribution by the bound that cut it."""
        return {
            "witness_occupied": self.cut_witness_occupied,
            "witness_empty": self.cut_witness_empty,
            "witness_hop": self.cut_witness_hop,
            "energy_bound": self.cut_energy_bound,
        }


def _site_order(layout: SidbLayout) -> np.ndarray:
    """Spatial (x, then y) visiting order of the sites.

    Deciding sites in spatial order keeps the decided prefix
    geometrically contiguous, so a decided site's strongest interaction
    partners are decided soon after it -- which is what makes the
    witness bounds tight early in the recursion.
    """
    positions = np.asarray(
        [site.position_nm for site in layout.sites()], dtype=float
    )
    if positions.size == 0:
        return np.zeros(0, dtype=np.intp)
    return np.lexsort((positions[:, 1], positions[:, 0]))


def quickexact_ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters | None = None,
    require_configuration_stability: bool = True,
    energy_tolerance: float = 1e-9,
    model: EnergyModel | None = None,
    leaf_bits: int = DEFAULT_LEAF_BITS,
    energy_pruning: bool = True,
    incumbent: float | None = None,
) -> GroundStateResult:
    """Exact ground state(s) of an SiDB layout via pruned search.

    Drop-in replacement for :func:`~repro.sidb.exhaustive.
    exhaustive_ground_state` with the site ceiling raised from 24 to
    :data:`MAX_QUICKEXACT_SITES`: same ground energy, same degenerate
    state set (collection order may differ), computed from the same
    :class:`EnergyModel` arithmetic.  ``valid_count`` counts the
    (meta)stable configurations the pruned search enumerated -- equal
    to the exhaustive count when ``energy_pruning=False`` (the witness
    cuts alone never skip a stable configuration), a lower bound
    otherwise.

    ``incumbent`` optionally injects a known upper bound on the ground
    energy (e.g. from a previous simulation of a related layout); with
    ``None`` the search starts unbounded and its incumbent is the best
    exact leaf energy found so far.  The result's
    ``stats`` field carries a :class:`QuickExactStatistics` record with
    node/cut attribution.
    """
    n = len(layout)
    if n > MAX_QUICKEXACT_SITES:
        raise ValueError(
            f"{n} sites exceed the QuickExact limit of "
            f"{MAX_QUICKEXACT_SITES}"
        )
    if not 1 <= leaf_bits <= 16:
        raise ValueError(f"leaf_bits must be in [1, 16], got {leaf_bits}")
    model = model or EnergyModel(layout, parameters)
    stats = QuickExactStatistics(num_sites=n, search_space=1 << n)
    result = GroundStateResult(layout, total_count=1 << n, stats=stats)
    if n == 0:
        result.ground_states = [np.zeros(0, dtype=np.int8)]
        result.ground_energy = 0.0
        result.valid_count = 1
        return result

    with obs.span("quickexact.run") as span:
        span.set("sites", n)
        search = _QuickExactSearch(
            model=model,
            order=_site_order(layout),
            require_configuration_stability=require_configuration_stability,
            energy_tolerance=energy_tolerance,
            leaf_bits=min(leaf_bits, n),
            energy_pruning=energy_pruning,
            incumbent_energy=(
                float("inf") if incumbent is None else float(incumbent)
            ),
            stats=stats,
        )
        search.run()

        result.valid_count = search.valid_count
        result.ground_energy = search.best_energy
        result.ground_states = search.ground_states()
        span.add("quickexact.nodes", stats.nodes_visited)
        span.add("quickexact.leaves", stats.leaves_evaluated)
        span.add("quickexact.configs", stats.configurations_enumerated)
        span.add("quickexact.cut.witness_occupied", stats.cut_witness_occupied)
        span.add("quickexact.cut.witness_empty", stats.cut_witness_empty)
        span.add("quickexact.cut.witness_hop", stats.cut_witness_hop)
        span.add("quickexact.cut.energy_bound", stats.cut_energy_bound)
        span.set("enumerated_fraction", round(stats.enumerated_fraction, 6))
    return result


class _QuickExactSearch:
    """One pruned depth-first search over the permuted site order."""

    def __init__(
        self,
        model: EnergyModel,
        order: np.ndarray,
        require_configuration_stability: bool,
        energy_tolerance: float,
        leaf_bits: int,
        energy_pruning: bool,
        incumbent_energy: float,
        stats: QuickExactStatistics,
    ) -> None:
        self.model = model
        self.order = order
        self.require_configuration_stability = require_configuration_stability
        self.tolerance = energy_tolerance
        self.energy_pruning = energy_pruning
        self.stats = stats
        self._set_incumbent(incumbent_energy)

        n = model.num_sites
        self.n = n
        # Permuted-space views of the model: Vp[i, j] couples the i-th
        # and j-th *visited* sites; c = mu + external potential is the
        # full on-site term, so w = base + c is exactly v + mu.
        self.matrix = model.potential_matrix[np.ix_(order, order)].copy()
        onsite = np.full(n, model.parameters.mu_minus)
        if model.external_potential is not None:
            onsite = onsite + model.external_potential[order]
        self.onsite = onsite
        self.onsite_values = onsite.tolist()
        self.external = (
            model.external_potential[order]
            if model.external_potential is not None
            else None
        )

        # Mutable DFS state (permuted space).  The hop witness reads
        # the charge states as masks: 0 on the decided negatives (hop
        # sources) and neutrals (hop targets) respectively, inf elsewhere.
        self.occupied = np.zeros(n, dtype=bool)
        self.base = np.zeros(n)
        self.rem = self.matrix.sum(axis=1)
        self.source_mask = np.full(n, np.inf)
        self.target_mask = np.full(n, np.inf)

        # Every leaf sits at the same depth, so everything that depends
        # on the suffix patterns alone is computed once per search.
        depth = n - leaf_bits
        self.leaf_depth = depth
        suffixes = _suffix_patterns(leaf_bits)
        suffix_float = suffixes.astype(float)
        self.suffix_float = suffix_float
        self.suffix_occupied = suffixes > 0
        self.leaf_configurations = 1 << leaf_bits
        # Local-potential contribution of every suffix pattern to all n
        # sites, plus its suffix columns transposed so that the first
        # per-leaf screen reduces over contiguous rows.
        self.suffix_potentials = suffix_float @ self.matrix[depth:, :]
        self.suffix_potentials_t = np.ascontiguousarray(
            self.suffix_potentials[:, depth:].T
        )
        # +1 on occupied, -1 on empty suffix sites: sign * w <= tol is
        # exactly the population-stability test of either charge state.
        self.suffix_sign_t = np.where(self.suffix_occupied.T, 1.0, -1.0)
        self.suffix_pair_energies = 0.5 * np.einsum(
            "ki,ij,kj->k",
            suffix_float,
            self.matrix[depth:, depth:],
            suffix_float,
        )
        # hop_bounds[d, i, j] = sum_{k >= d} max(0, V_jk - V_ik) - V_ij;
        # plus w_j - w_i it bounds the energy of the hop i -> j from
        # above over every completion of a depth-d assignment.
        self.hop_bounds = None
        if require_configuration_stability:
            gains = np.maximum(
                0.0, self.matrix[None, :, :] - self.matrix[:, None, :]
            )
            suffix_gains = np.cumsum(gains[:, :, ::-1], axis=2)[:, :, ::-1]
            self.hop_bounds = np.ascontiguousarray(
                suffix_gains[:, :, : depth + 1].transpose(2, 0, 1)
            ) - self.matrix

        self.valid_count = 0
        self.best_energy = float("inf")
        #: (original-order int8 config, exact energy) candidates.
        self.candidates: list[tuple[np.ndarray, float]] = []

    def _set_incumbent(self, energy: float) -> None:
        self.incumbent_energy = energy
        self.stats.incumbent_energy = energy
        self.cut_energy = energy + self.tolerance + _DECOMPOSITION_SLACK

    # --- result assembly --------------------------------------------------
    def ground_states(self) -> list[np.ndarray]:
        """Degenerate ground set from the collected candidates."""
        if not self.candidates:
            return []
        floor = self.best_energy + self.tolerance
        return [
            config
            for config, energy in self.candidates
            if energy <= floor
        ]

    # --- search -----------------------------------------------------------
    def run(self) -> None:
        self._descend(0, 0.0)

    def _descend(self, site: int, energy_decided: float) -> None:
        if site == self.leaf_depth:
            self._evaluate_leaf(energy_decided)
            return
        base = self.base
        rem = self.rem
        occupied = self.occupied
        source_mask = self.source_mask
        target_mask = self.target_mask
        column = self.matrix[site]
        stats = self.stats
        # Branch the likelier ground-state value first so the incumbent
        # tightens as early as possible.
        onsite = self.onsite_values[site]
        first = 1 if onsite + base.item(site) <= 0.0 else 0
        for value in (first, 1 - first):
            stats.nodes_visited += 1
            if value:
                child_energy = energy_decided + onsite + base.item(site)
                occupied[site] = True
                source_mask[site] = 0.0
                target_mask[site] = np.inf
                base += column
            else:
                child_energy = energy_decided
                source_mask[site] = np.inf
                target_mask[site] = 0.0
            rem -= column
            if not self._cut(site + 1, value, child_energy):
                self._descend(site + 1, child_energy)
            rem += column
            if value:
                base -= column
                occupied[site] = False

    def _cut(self, decided: int, value: int, energy_decided: float) -> bool:
        """True when the just-extended partial assignment is hopeless."""
        base = self.base
        onsite = self.onsite
        stats = self.stats
        # Witness bounds.  Assigning a negative only *raises* decided
        # potentials (base), so only the occupied-side criterion can
        # newly fail; assigning a neutral only *lowers* the attainable
        # maximum (base + rem), so only the empty-side criterion can.
        w = base[:decided] + onsite[:decided]
        if value:
            if (w[self.occupied[:decided]] > POPULATION_TOLERANCE).any():
                stats.cut_witness_occupied += 1
                return True
        else:
            maximum_w = base[:decided] + self.rem[:decided] + onsite[:decided]
            if (
                maximum_w[~self.occupied[:decided]] < -POPULATION_TOLERANCE
            ).any():
                stats.cut_witness_empty += 1
                return True
        # Hop witness.  Every decided site's w moves and every pair
        # loses an undecided site from its sum, so the whole decided
        # block is rechecked; the masks leave only negative -> neutral
        # pairs finite.
        if self.hop_bounds is not None:
            hops = self.hop_bounds[decided, :decided, :decided] + (
                w + self.target_mask[:decided]
            )
            hops += (self.source_mask[:decided] - w)[:, None]
            if (
                np.minimum.reduce(hops, axis=None)
                < -POPULATION_TOLERANCE - _DECOMPOSITION_SLACK
            ):
                stats.cut_witness_hop += 1
                return True
        # Branch-and-bound: undecided negatives each contribute at
        # least min(0, mu + ext + base); cross-terms among them are
        # repulsive and only add energy.
        if self.energy_pruning and self.incumbent_energy < float("inf"):
            undecided_floor = np.add.reduce(
                np.minimum(0.0, onsite[decided:] + base[decided:])
            )
            if energy_decided + undecided_floor > self.cut_energy:
                stats.cut_energy_bound += 1
                return True
        return False

    def _evaluate_leaf(self, energy_decided: float) -> None:
        depth = self.leaf_depth
        base = self.base
        stats = self.stats
        stats.leaves_evaluated += 1
        stats.configurations_enumerated += self.leaf_configurations
        # Population stability in two screens: the suffix columns of
        # every completion first, then the decided prefix of the rows
        # that survive.  w = (base + suffix potential) + onsite, exactly
        # as it would be computed for the whole row at once.
        w = (self.suffix_potentials_t + base[depth:, None]) + (
            self.onsite[depth:, None]
        )
        w *= self.suffix_sign_t
        rows = np.flatnonzero(
            np.maximum.reduce(w, axis=0) <= POPULATION_TOLERANCE
        )
        if depth and rows.size:
            w = (base[:depth] + self.suffix_potentials[rows, :depth]) + (
                self.onsite[:depth]
            )
            w *= np.where(self.occupied[:depth], 1.0, -1.0)
            rows = rows[np.maximum.reduce(w, axis=1) <= POPULATION_TOLERANCE]
        if not rows.size:
            return
        occupied = np.empty((rows.size, self.n), dtype=bool)
        occupied[:, :depth] = self.occupied[:depth]
        occupied[:, depth:] = self.suffix_occupied[rows]
        if self.require_configuration_stability:
            externals = (
                self.external[None, :] if self.external is not None else 0.0
            )
            configuration_stable = batched_configuration_stable(
                base + self.suffix_potentials[rows] + externals,
                occupied,
                self.matrix,
            )
            rows = rows[configuration_stable]
            occupied = occupied[configuration_stable]
        self.valid_count += int(rows.size)
        if not rows.size:
            return

        # Decomposed energies of the surviving configurations: decided
        # part + on-site/decided coupling of the suffix + suffix pairs.
        suffix_onsite = self.onsite[depth:] + base[depth:]
        energies = (
            energy_decided
            + self.suffix_float[rows] @ suffix_onsite
            + self.suffix_pair_energies[rows]
        )
        window = (
            self.best_energy + self.tolerance + _DECOMPOSITION_SLACK
        )
        near = energies <= window
        if not near.any():
            return
        # Exact recomputation (identical arithmetic to the exhaustive
        # engine) for everything that could join the degenerate set.
        originals = np.empty((int(near.sum()), self.n), dtype=np.int8)
        originals[:, self.order] = occupied[near]
        exact = self.model.batched_energies(originals)
        for position in np.argsort(exact, kind="stable"):
            energy = float(exact[position])
            if energy > self.best_energy + self.tolerance:
                break
            if energy < self.best_energy - self.tolerance:
                self.best_energy = energy
                self.candidates = [(originals[position].copy(), energy)]
            else:
                self.best_energy = min(self.best_energy, energy)
                self.candidates.append(
                    (originals[position].copy(), energy)
                )
        if self.best_energy < self.incumbent_energy:
            self._set_incumbent(self.best_energy)
