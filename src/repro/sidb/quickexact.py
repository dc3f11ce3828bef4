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
  metastable.  Any set of pairs gives a sound witness; the search
  tests a fixed list, each visited site paired in both hop directions
  with its :data:`HOP_PARTNERS` strongest earlier-visited partners
  (largest ``V``), which is where a hop pays most.  The list is sorted
  by its later site, so a depth tests a prefix of it, and the sums
  depend only on the depth: one ``(depth + 1) x pairs`` table per
  search.

* **Level-synchronous expansion.**  The search tree is grown one depth
  at a time: every surviving partial assignment of a depth is extended
  by both values of the next site at once, as ``(frontier x n)``
  arrays, and all children are tested against both witnesses in one
  batch.  Children stay in depth-first order -- parent order, the
  likelier ground-state value first -- so the leaves reach the ground
  set in the order a depth-first recursion would visit them.  A
  frontier wider than :data:`FRONTIER_CAP` is split and finished chunk
  by chunk, in the same order, so memory stays bounded.  The witnesses
  cut only subtrees without a single stable configuration, so
  ``valid_count`` equals the exhaustive count.

* **Vectorized leaf enumeration.**  Once only ``leaf_bits`` sites
  remain undecided (:data:`DEFAULT_LEAF_BITS`, or
  :data:`SMALL_SYSTEM_LEAF_BITS` in a system of at most
  :data:`SMALL_SYSTEM_SITES` sites), the whole 2^leaf_bits subtree of
  every surviving assignment is evaluated in numpy batches -- the same
  formulation as the exhaustive engine.  Every leaf sits at the same
  depth, so the suffix patterns' potentials, occupancy masks and pair
  energies are computed once per search; the leaves screen their rows
  on the suffix columns first and test the decided prefix only on the
  rows that survive.  When one leaf holds the whole system there is no
  interior search, and its hop table is not built.

* **Node budget.**  ``node_budget`` caps the partial assignments a
  search may visit.  A level is expanded only if its children fit, so
  a search finishes exactly when its whole tree has at most that many
  nodes, and raises :class:`BudgetExhausted` otherwise -- a
  deterministic limit that does not depend on the host's load.

Leaf candidates are rescored with the shared
:meth:`~repro.sidb.energy.EnergyModel.batched_energies` and offered to
the shared :class:`~repro.sidb.exhaustive.GroundStateCollector`, so the
returned ground energy and degenerate state set are bit-identical to
the exhaustive engine's (the incrementally maintained decomposition is
only used for pruning, with a small slack guarding against last-ulp
drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import (
    ENERGY_TOLERANCE,
    GroundStateCollector,
    GroundStateResult,
    empty_layout_result,
)
from repro.sidb.stability import POPULATION_TOLERANCE, configuration_stable
from repro.tech.parameters import SiDBSimulationParameters

#: Remaining-site count at which the search hands a subtree to the
#: vectorized leaf enumeration, in a system of more than
#: :data:`SMALL_SYSTEM_SITES` sites.  Small enough that the witness
#: cuts get a deep prefix to prune, large enough that the numpy batches
#: stay efficient.
DEFAULT_LEAF_BITS = 6

#: Leaf size in a system of at most :data:`SMALL_SYSTEM_SITES` sites (the
#: whole system when it has at most this many).  Its frontiers are
#: narrow, so an interior level costs more NumPy dispatch than the leaf
#: configurations it saves: on the design scans' 11-15-site systems,
#: 6-site leaves took 5-72% more CPU than 10-site ones.
SMALL_SYSTEM_LEAF_BITS = 10

#: Largest system searched with :data:`SMALL_SYSTEM_LEAF_BITS`; on the
#: library's 16-site tiles, 6-site leaves are already 9% faster.
SMALL_SYSTEM_SITES = 15

#: Earlier-visited partners (largest ``V``) each site's hops are tested
#: against by the hop witness, in both directions.
HOP_PARTNERS = 2

#: Widest frontier (partial assignments) expanded in one batch; the
#: hop witness then holds at most ``2 * FRONTIER_CAP * pairs`` floats
#: (``pairs`` < ``2 * HOP_PARTNERS * n``).
#: Batches of a few MB keep NumPy's temporaries from fragmenting the
#: heap: at 256 the ``tile_library`` benchmark read ~12 MB more peak RSS.
FRONTIER_CAP = 64

#: Leaf configurations (2^leaf_bits per leaf) screened in one batch.
_LEAF_BATCH_CONFIGURATIONS = 1 << 13

#: Slack added wherever the search's decomposed (incrementally
#: maintained) energies are compared against exactly recomputed ones;
#: covers last-ulp differences between the two summation orders.
_DECOMPOSITION_SLACK = 1e-12

#: Cached suffix tables, keyed on m: see :func:`_suffix_patterns`.
_SUFFIX_PATTERNS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _suffix_patterns(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^m occupation patterns of m sites, read-only.

    As ``(2^m, m)`` floats and booleans, and as the transposed ``(m,
    2^m)`` sign table: +1 on occupied, -1 on empty sites, so that
    ``sign * w <= tol`` is the population-stability test of either
    charge state.
    """
    tables = _SUFFIX_PATTERNS.get(m)
    if tables is None:
        indices = np.arange(1 << m, dtype=np.uint32)
        bits = np.arange(m, dtype=np.uint32)
        occupied = ((indices[:, None] >> bits[None, :]) & 1) > 0
        tables = (
            occupied.astype(float),
            occupied,
            np.ascontiguousarray(np.where(occupied.T, 1.0, -1.0)),
        )
        for table in tables:
            table.setflags(write=False)
        _SUFFIX_PATTERNS[m] = tables
    return tables


@dataclass
class QuickExactStatistics:
    """Pruning telemetry of one QuickExact search.

    ``nodes_visited`` counts interior partial assignments explored,
    ``configurations_enumerated`` the full occupation vectors the
    vectorized leaves evaluated; their relation to ``search_space``
    (2^N) is the engine's whole speed story.  The ``cut_*`` counters
    attribute every pruned subtree to the witness that fired.
    """

    num_sites: int = 0
    search_space: int = 0
    nodes_visited: int = 0
    leaves_evaluated: int = 0
    configurations_enumerated: int = 0
    cut_witness_occupied: int = 0
    cut_witness_empty: int = 0
    cut_witness_hop: int = 0

    @property
    def enumerated_fraction(self) -> float:
        """Leaf configurations evaluated as a fraction of 2^N."""
        if not self.search_space:
            return 0.0
        return self.configurations_enumerated / self.search_space

    def cut_histogram(self) -> dict[str, int]:
        """Pruned-subtree attribution by the witness that cut it."""
        return {
            "witness_occupied": self.cut_witness_occupied,
            "witness_empty": self.cut_witness_empty,
            "witness_hop": self.cut_witness_hop,
        }


class BudgetExhausted(RuntimeError):
    """A QuickExact search needed more nodes than its budget allowed.

    ``stats`` holds the counts of the search up to the level it did not
    expand; ``nodes_visited`` never exceeds the budget.
    """

    def __init__(self, budget: int, stats: QuickExactStatistics) -> None:
        super().__init__(
            f"QuickExact spent its budget of {budget} nodes on "
            f"{stats.num_sites} sites"
        )
        self.stats = stats


def _site_order(layout: SidbLayout) -> np.ndarray:
    """Spatial (x, then y) visiting order of the sites.

    Deciding sites in spatial order keeps the decided prefix
    geometrically contiguous, so a decided site's strongest interaction
    partners are decided soon after it -- which is what makes the
    witness bounds tight early in the search.
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
    model: EnergyModel | None = None,
    leaf_bits: int | None = None,
    node_budget: int | None = None,
) -> GroundStateResult:
    """Exact ground state(s) of an SiDB layout via pruned search.

    Drop-in replacement for :func:`~repro.sidb.exhaustive.
    exhaustive_ground_state` without its 24-site ceiling: same ground
    energy, same degenerate state set (collection order may differ),
    computed from the same :class:`EnergyModel` arithmetic, and the
    same ``valid_count`` (the witness cuts never skip a stable
    configuration).

    ``leaf_bits`` (``None``: :data:`SMALL_SYSTEM_LEAF_BITS` in a system
    of at most :data:`SMALL_SYSTEM_SITES` sites, else
    :data:`DEFAULT_LEAF_BITS`) is the number of undecided sites at which
    a subtree is enumerated.
    ``node_budget`` (``None``: unlimited) caps the nodes the search may
    visit; a search that needs more raises :class:`BudgetExhausted`.
    The result's ``stats`` field carries a :class:`QuickExactStatistics`
    record with node/cut attribution.
    """
    n = len(layout)
    if leaf_bits is None:
        leaf_bits = (
            SMALL_SYSTEM_LEAF_BITS if n <= SMALL_SYSTEM_SITES
            else DEFAULT_LEAF_BITS
        )
    if not 1 <= leaf_bits <= 16:
        raise ValueError(f"leaf_bits must be in [1, 16], got {leaf_bits}")
    stats = QuickExactStatistics(num_sites=n, search_space=1 << n)
    if n == 0:
        return empty_layout_result(layout, stats)
    model = model or EnergyModel(layout, parameters)

    with obs.span("quickexact.run") as span:
        span.set("sites", n)
        search = _QuickExactSearch(
            model=model,
            order=_site_order(layout),
            require_configuration_stability=require_configuration_stability,
            leaf_bits=min(leaf_bits, n),
            node_budget=node_budget,
            stats=stats,
        )
        try:
            search.run()
        finally:
            span.add("quickexact.nodes", stats.nodes_visited)
            span.add("quickexact.leaves", stats.leaves_evaluated)
            span.add("quickexact.configs", stats.configurations_enumerated)
            span.add(
                "quickexact.cut.witness_occupied", stats.cut_witness_occupied
            )
            span.add("quickexact.cut.witness_empty", stats.cut_witness_empty)
            span.add("quickexact.cut.witness_hop", stats.cut_witness_hop)
            span.set(
                "enumerated_fraction", round(stats.enumerated_fraction, 6)
            )
    return search.ground.result(layout, search.valid_count, stats)


def _hop_pairs(
    matrix: np.ndarray, depth: int, partners: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hop witness's (source, target) pairs among the first sites.

    Each visited site ``b < depth`` is paired with its ``partners``
    strongest earlier-visited sites ``a < b`` (largest ``V_ab``, the
    earlier site first on a tie), in both hop directions.  Pairs are
    sorted by ``b``, so ``prefix[d]`` pairs lie among the first ``d``
    sites, for every ``d`` in ``0..depth``.
    """
    sources: list[int] = []
    targets: list[int] = []
    prefix = [0, 0]
    for b in range(1, depth):
        for a in np.argsort(-matrix[b, :b], kind="stable")[:partners]:
            sources += [a, b]
            targets += [b, a]
        prefix.append(len(sources))
    return (
        np.asarray(sources, dtype=np.intp),
        np.asarray(targets, dtype=np.intp),
        np.asarray(prefix[: depth + 1], dtype=np.intp),
    )


def _hop_bounds(
    matrix: np.ndarray, sources: np.ndarray, targets: np.ndarray, depth: int
) -> np.ndarray:
    """``bounds[d, p] = sum_{k >= d} max(0, V_jk - V_ik) - V_ij``.

    For pair ``p`` = (``i``, ``j``) = (``sources[p]``, ``targets[p]``)
    and ``d`` in ``0..depth``.  Plus ``w_j - w_i``, it bounds the energy
    of the hop i -> j from above over every completion of a depth-``d``
    assignment.
    """
    gains = np.maximum(0.0, matrix[targets] - matrix[sources])
    suffix_gains = np.cumsum(gains[:, ::-1], axis=1)[:, ::-1]
    return (
        np.ascontiguousarray(suffix_gains[:, : depth + 1].T)
        - matrix[sources, targets]
    )


@dataclass
class _Frontier:
    """Partial assignments of one depth, in depth-first order.

    Row ``r`` holds one assignment of the first ``depth`` visited
    sites: its occupancy (only the decided columns are meaningful), the
    local potential ``base`` its negatives put on every site, and the
    energy of its decided part.
    """

    occupied: np.ndarray
    base: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.energy)

    def rows(self, selection) -> "_Frontier":
        return _Frontier(
            self.occupied[selection], self.base[selection],
            self.energy[selection],
        )


class _QuickExactSearch:
    """One pruned, level-synchronous search over the permuted site order."""

    def __init__(
        self,
        model: EnergyModel,
        order: np.ndarray,
        require_configuration_stability: bool,
        leaf_bits: int,
        node_budget: int | None,
        stats: QuickExactStatistics,
    ) -> None:
        self.model = model
        self.order = order
        self.require_configuration_stability = require_configuration_stability
        self.node_budget = node_budget
        self.stats = stats

        n = model.num_sites
        self.n = n
        # Permuted-space views of the model: Vp[i, j] couples the i-th
        # and j-th *visited* sites; c = mu + external potential is the
        # full on-site term, so w = base + c is exactly v + mu.
        self.matrix = model.potential_matrix[np.ix_(order, order)]
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

        # Every leaf sits at the same depth, so everything that depends
        # on the suffix patterns alone is computed once per search.
        depth = n - leaf_bits
        self.leaf_depth = depth
        self.leaf_batch = max(
            1, min(FRONTIER_CAP, _LEAF_BATCH_CONFIGURATIONS >> leaf_bits)
        )
        self.suffix_float, self.suffix_occupied, self.suffix_sign_t = (
            _suffix_patterns(leaf_bits)
        )
        self.leaf_configurations = 1 << leaf_bits
        # Local-potential contribution of every suffix pattern to all n
        # sites, plus its suffix columns transposed so that the first
        # leaf screen reduces over contiguous rows.
        self.suffix_potentials = self.suffix_float @ self.matrix[depth:, :]
        self.suffix_potentials_t = np.ascontiguousarray(
            self.suffix_potentials[:, depth:].T
        )
        self.suffix_pair_energies = 0.5 * np.einsum(
            "ij,ij->i", self.suffix_potentials[:, depth:], self.suffix_float
        )
        # rem[d]: the potential sites d, d+1, ... could still add, the
        # row sums less each decided site's column in visiting order.
        self.rem = np.subtract.accumulate(
            np.vstack([self.matrix.sum(axis=1), self.matrix[:depth]])
        )
        # The hop witness's pairs and bounds (see _hop_pairs and
        # _hop_bounds).  A search that is one leaf (depth 0) never tests
        # them.
        self.hop_bounds = None
        if require_configuration_stability and depth:
            self.hop_sources, self.hop_targets, self.hop_prefix = _hop_pairs(
                self.matrix, depth, HOP_PARTNERS
            )
            self.hop_bounds = _hop_bounds(
                self.matrix, self.hop_sources, self.hop_targets, depth
            )

        self.valid_count = 0
        self.ground = GroundStateCollector()

    # --- search -----------------------------------------------------------
    def run(self) -> None:
        n = self.n
        root = _Frontier(
            np.zeros((1, n), dtype=bool), np.zeros((1, n)), np.zeros(1)
        )
        self._finish(0, root)

    def _finish(self, depth: int, frontier: _Frontier) -> None:
        """Search every subtree below ``frontier``, in its row order."""
        while depth < self.leaf_depth:
            cap = FRONTIER_CAP
            if len(frontier) > cap:
                for start in range(0, len(frontier), cap):
                    chunk = frontier.rows(slice(start, start + cap))
                    self._finish(depth, chunk)
                return
            frontier = self._expand(depth, frontier)
            if not len(frontier):
                return
            depth += 1
        for start in range(0, len(frontier), self.leaf_batch):
            self._evaluate_leaves(
                frontier.rows(slice(start, start + self.leaf_batch))
            )

    def _expand(self, site: int, frontier: _Frontier) -> _Frontier:
        """Both children of every assignment, less the witnessed ones."""
        stats = self.stats
        count = 2 * len(frontier)
        if (
            self.node_budget is not None
            and stats.nodes_visited + count > self.node_budget
        ):
            raise BudgetExhausted(self.node_budget, stats)
        stats.nodes_visited += count
        # Branch the likelier ground-state value first: child 2r of
        # parent r takes it, child 2r + 1 the other one.
        onsite = self.onsite_values[site]
        parent_base = frontier.base[:, site]
        negative = np.empty(count, dtype=bool)
        negative[0::2] = onsite + parent_base <= 0.0
        negative[1::2] = ~negative[0::2]
        parents = np.arange(count) >> 1
        children = frontier.rows(parents)
        children.occupied[:, site] = negative
        children.base[negative] += self.matrix[site]
        children.energy[negative] = (
            children.energy[negative] + onsite
        ) + parent_base[parents[negative]]

        # Witness bounds.  Assigning a negative only *raises* decided
        # potentials (base), so only the occupied-side criterion can
        # newly fail; assigning a neutral only *lowers* the attainable
        # maximum (base + rem), so only the empty-side criterion can.
        decided = site + 1
        occupied = children.occupied[:, :decided]
        base = children.base[:, :decided]
        w = base + self.onsite[:decided]
        cut_occupied = negative & (occupied & (w > POPULATION_TOLERANCE)).any(
            axis=1
        )
        maximum_w = (base + self.rem[decided, :decided]) + (
            self.onsite[:decided]
        )
        cut_empty = ~negative & (
            ~occupied & (maximum_w < -POPULATION_TOLERANCE)
        ).any(axis=1)
        stats.cut_witness_occupied += int(cut_occupied.sum())
        stats.cut_witness_empty += int(cut_empty.sum())
        keep = np.flatnonzero(~(cut_occupied | cut_empty))
        # Hop witness.  Every decided site's w moves and every pair
        # loses an undecided site from its sum, so every listed pair
        # among the decided sites is rechecked; +inf masks leave only
        # negative -> neutral hops finite.
        pairs = self.hop_prefix[decided] if self.hop_bounds is not None else 0
        if pairs and keep.size:
            w = w[keep]
            occupied = occupied[keep]
            sources = np.where(occupied, 0.0, np.inf)
            targets = np.where(occupied, np.inf, 0.0)
            hops = self.hop_bounds[decided, :pairs] + (w + targets)[
                :, self.hop_targets[:pairs]
            ]
            hops += (sources - w)[:, self.hop_sources[:pairs]]
            cut_hop = (
                hops.min(axis=1) < -POPULATION_TOLERANCE - _DECOMPOSITION_SLACK
            )
            stats.cut_witness_hop += int(cut_hop.sum())
            keep = keep[~cut_hop]
        return children.rows(keep)

    def _evaluate_leaves(self, leaves: _Frontier) -> None:
        depth = self.leaf_depth
        stats = self.stats
        stats.leaves_evaluated += len(leaves)
        stats.configurations_enumerated += (
            len(leaves) * self.leaf_configurations
        )
        # Population stability in two screens: the suffix columns of
        # every completion first, then the decided prefix of the rows
        # that survive.  w = (base + suffix potential) + onsite, exactly
        # as it would be computed for the whole row at once.
        w = (self.suffix_potentials_t + leaves.base[:, depth:, None]) + (
            self.onsite[depth:, None]
        )
        w *= self.suffix_sign_t
        leaf, rows = np.nonzero(
            np.maximum.reduce(w, axis=1) <= POPULATION_TOLERANCE
        )
        if depth and rows.size:
            w = (
                leaves.base[leaf, :depth]
                + self.suffix_potentials[rows, :depth]
            ) + self.onsite[:depth]
            w *= np.where(leaves.occupied[leaf, :depth], 1.0, -1.0)
            survive = np.maximum.reduce(w, axis=1) <= POPULATION_TOLERANCE
            leaf, rows = leaf[survive], rows[survive]
        if not rows.size:
            return
        occupied = np.empty((rows.size, self.n), dtype=bool)
        occupied[:, :depth] = leaves.occupied[leaf, :depth]
        occupied[:, depth:] = self.suffix_occupied[rows]
        if self.require_configuration_stability:
            potentials = leaves.base[leaf] + self.suffix_potentials[rows]
            if self.external is not None:
                potentials += self.external
            stable = configuration_stable(potentials, occupied, self.matrix)
            leaf, rows, occupied = leaf[stable], rows[stable], occupied[stable]
        self.valid_count += int(rows.size)
        if not rows.size:
            return

        # Decomposed energies of the surviving configurations: decided
        # part + on-site/decided coupling of the suffix + suffix pairs.
        suffix_onsite = self.onsite[depth:] + leaves.base[leaf, depth:]
        energies = (
            leaves.energy[leaf]
            + np.einsum("ij,ij->i", self.suffix_float[rows], suffix_onsite)
            + self.suffix_pair_energies[rows]
        )
        ground = self.ground
        near = energies <= (
            ground.energy + ENERGY_TOLERANCE + _DECOMPOSITION_SLACK
        )
        if not near.any():
            return
        # Exact rescoring (the exhaustive engine's arithmetic) of
        # everything that could join the degenerate set.
        originals = np.empty((int(near.sum()), self.n), dtype=np.int8)
        originals[:, self.order] = occupied[near]
        ground.offer(originals, self.model.batched_energies(originals))
