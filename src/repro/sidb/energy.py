"""Electrostatic energy model of SiDB systems.

Charges interact through a Thomas-Fermi-screened Coulomb potential

    V_ij = e^2 / (4 pi eps_0 eps_r) * exp(-d_ij / lambda_TF) / d_ij

(in eV with d in nm).  A charge configuration assigns each site an
electron occupation ``n_i`` (1 = DB-, 0 = DB0); its energy functional is

    E(n) = sum_{i<j} V_ij n_i n_j  +  mu_minus * sum_i n_i

whose single-site local optimality conditions are exactly the
*population stability* criteria of SiQAD's engines: occupied sites must
satisfy ``v_i + mu_minus <= 0`` and empty sites ``v_i + mu_minus >= 0``,
where ``v_i = sum_j V_ij n_j`` is the local potential.

The pairwise geometry (the O(n^2) distance matrix) depends only on the
site set, not on the physical parameters, so it is computed once per
site set and shared through a process-wide LRU cache
(:class:`GeometryCache`).  A parameter point then only pays the cheap
``exp(-d/lambda_TF)/d * 1/eps_r`` rescale -- which is what makes
operational-domain sweeps over (eps_r, lambda_TF, mu_minus) grids
affordable.  The exact ground states solved from that geometry are
memoised beside it (:data:`GROUND_STATE_MEMO`, and the searches that
spent their node budget in :data:`SPENT_SEARCHES`), and
:func:`clear_geometry_cache` empties them all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.coords.lattice import LatticeSite
from repro.sidb.charge import SidbLayout
from repro.tech.constants import COULOMB_CONSTANT_EV_NM
from repro.tech.parameters import SiDBSimulationParameters

if TYPE_CHECKING:  # avoid a runtime repro.defects <-> repro.sidb cycle
    from repro.defects.model import SidbDefect


class LruCache:
    """Bounded LRU map with ``hits``/``misses`` counters.

    The caches are process-wide and concurrent design flows may run in
    sibling threads (the design service does); the lock keeps the
    get/move-to-end/evict sequence atomic.  The value itself is built
    outside the lock, between :meth:`lookup` and :meth:`store`.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def lookup(self, key):
        """The entry under ``key`` (counted as a hit), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def store(self, key, entry):
        """Insert ``entry``, evicting the least recently used; returns it."""
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry


class GeometryCache(LruCache):
    """LRU cache of pairwise distance matrices, keyed on the site tuple.

    One entry per distinct (ordered) site set; the stored matrices are
    marked read-only so every :class:`EnergyModel` sharing an entry sees
    the same immutable array.  ``hits``/``misses`` counters let tests
    (and benchmarks) verify that a sweep reuses the geometry instead of
    rebuilding it at every parameter point.
    """

    def distance_matrix(
        self, sites: tuple[LatticeSite, ...]
    ) -> tuple[np.ndarray, float]:
        """(distance matrix, minimal pair distance) of a site set."""
        entry = self.lookup(sites)
        if entry is None:
            entry = self.store(sites, self._compute(sites))
        return entry

    @staticmethod
    def _compute(
        sites: tuple[LatticeSite, ...]
    ) -> tuple[np.ndarray, float]:
        positions = np.asarray(
            [site.position_nm for site in sites], dtype=float
        )
        n = len(sites)
        if n == 0:
            distances = np.zeros((0, 0))
            distances.setflags(write=False)
            return distances, float("inf")
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        if n > 1:
            min_distance = float(distances[~np.eye(n, dtype=bool)].min())
        else:
            min_distance = float("inf")
        distances.setflags(write=False)
        return distances, min_distance


#: Process-wide geometry cache shared by every :class:`EnergyModel`.
GEOMETRY_CACHE = GeometryCache()

#: Exact ground states solved from that geometry, one per isometry
#: class of system and parameter point; filled by
#: :mod:`repro.sidb.operational`.
GROUND_STATE_MEMO = LruCache()

#: The counts of each QuickExact search that spent its node budget,
#: under its :data:`GROUND_STATE_MEMO` key extended by the budget; filled
#: by :mod:`repro.sidb.operational`, so that a repeat of its class does
#: not search again.
SPENT_SEARCHES = LruCache()


def geometry_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the shared geometry cache."""
    return {
        "hits": GEOMETRY_CACHE.hits,
        "misses": GEOMETRY_CACHE.misses,
        "entries": len(GEOMETRY_CACHE),
    }


def clear_geometry_cache() -> None:
    """Drop all cached distance matrices and memoised ground states."""
    GEOMETRY_CACHE.clear()
    GROUND_STATE_MEMO.clear()
    SPENT_SEARCHES.clear()


def external_potential_vector(
    sites: tuple[LatticeSite, ...],
    defects: "Iterable[SidbDefect]",
    parameters: SiDBSimulationParameters,
) -> np.ndarray | None:
    """Per-site potential from fixed defect charges (eV), or ``None``.

    Each charged defect contributes a Thomas-Fermi-screened Coulomb term
    with its own screening overrides when set; the sign convention makes
    a negatively charged defect (charge -1, like a stray DB-) *repel*
    the DB- electrons of the logic, i.e. contribute positively, matching
    the pairwise ``V_ij`` convention.  Returns ``None`` when no charged
    defect is present, keeping the pristine path untouched.
    """
    charged = [d for d in defects if d.charge]
    if not charged or not sites:
        return None
    positions = np.asarray([site.position_nm for site in sites], dtype=float)
    potential = np.zeros(len(sites))
    for defect in charged:
        epsilon_r = (
            defect.epsilon_r
            if defect.epsilon_r is not None
            else parameters.epsilon_r
        )
        lambda_tf = (
            defect.lambda_tf
            if defect.lambda_tf is not None
            else parameters.lambda_tf
        )
        deltas = positions - np.asarray(defect.position_nm, dtype=float)
        distances = np.sqrt((deltas**2).sum(axis=1))
        if float(distances.min()) < 1e-9:
            raise ValueError(
                f"charged defect at {defect.site} coincides with an SiDB"
            )
        potential += (
            -defect.charge
            * COULOMB_CONSTANT_EV_NM
            / epsilon_r
            * np.exp(-distances / lambda_tf)
            / distances
        )
    return potential


class EnergyModel:
    """Interaction matrix of one SiDB layout at one parameter point.

    The distance matrix comes from the shared :data:`GEOMETRY_CACHE`;
    only the screened-Coulomb rescale is computed per instance, so
    constructing many models of the same layout at different
    (eps_r, lambda_TF, mu_minus) points is cheap.

    ``defects`` folds charged surface defects in as *fixed* point
    charges: their screened potential at every site becomes the
    ``external_potential`` vector added to all local potentials and to
    the energy functional's on-site term.  With no charged defect the
    vector is ``None`` and every computation follows the exact pristine
    code path.
    """

    def __init__(
        self,
        layout: SidbLayout,
        parameters: SiDBSimulationParameters | None = None,
        defects: "Iterable[SidbDefect]" = (),
    ) -> None:
        self.layout = layout
        self.parameters = parameters or SiDBSimulationParameters()
        self.defects = tuple(defects)
        sites = tuple(layout.sites())
        distances, min_distance = GEOMETRY_CACHE.distance_matrix(sites)
        if min_distance < 1e-9:
            raise ValueError("two SiDBs coincide")
        self.distance_matrix = distances
        self.potential_matrix = self._rescale(distances, self.parameters)
        self.external_potential = external_potential_vector(
            sites, self.defects, self.parameters
        )

    @staticmethod
    def _rescale(
        distances: np.ndarray, parameters: SiDBSimulationParameters
    ) -> np.ndarray:
        """Screened-Coulomb potential matrix from a distance matrix."""
        if distances.size == 0:
            return np.zeros_like(distances)
        with np.errstate(divide="ignore", invalid="ignore"):
            matrix = (
                COULOMB_CONSTANT_EV_NM
                / parameters.epsilon_r
                * np.exp(-distances / parameters.lambda_tf)
                / distances
            )
        np.fill_diagonal(matrix, 0.0)
        return matrix

    @property
    def num_sites(self) -> int:
        return len(self.layout)

    def batched_energies(self, occupations: np.ndarray) -> np.ndarray:
        """Energies of many configurations at once (rows = configs).

        The one energy sum every engine scores its states with; a single
        state is a 1-row batch.  A row gets the same bits alone and in
        any batch: the defects' term is an elementwise sum, since a
        matrix-vector product's last bit depends on the batch size.
        """
        n = np.asarray(occupations, dtype=float)
        interaction = 0.5 * np.einsum(
            "ki,ij,kj->k", n, self.potential_matrix, n
        )
        total = interaction + self.parameters.mu_minus * n.sum(axis=1)
        if self.external_potential is not None:
            total = total + (n * self.external_potential).sum(axis=1)
        return total

    def batched_local_potentials(self, occupations: np.ndarray) -> np.ndarray:
        """Local potentials of many configurations (rows = configs)."""
        potentials = np.asarray(occupations, dtype=float) @ self.potential_matrix
        if self.external_potential is not None:
            potentials = potentials + self.external_potential
        return potentials
