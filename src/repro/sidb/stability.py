"""Metastability criteria for charge configurations.

A configuration is *population stable* when no single site wants to gain
or lose an electron, and *configuration stable* when no single electron
hop to an empty site lowers the energy.  Configurations satisfying both
are the physically meaningful (meta)stable states among which the ground
state is selected -- the same notion SiQAD's engines use.

Both tests work row-wise on a batch of configurations, and every engine
goes through them: ExGS applies both to each chunk's potentials,
SimAnneal :func:`population_stable` to the ``w`` it holds at the end of
a sweep and :func:`metastable` (both tests, from scratch) to its
finalists, and QuickExact :func:`configuration_stable` to the leaf rows
that pass its own two-stage population screen.
"""

from __future__ import annotations

import numpy as np

from repro.sidb.energy import EnergyModel

# Numerical tolerance for the stability inequalities (eV).
POPULATION_TOLERANCE = 1e-9

#: Upper bound on ``configs * n * n`` elements materialized per slice of
#: the configuration-stability check (keeps peak memory low even for
#: very large stable sets).
_CONFIGURATION_BATCH_ELEMENTS = 1 << 22


def population_stable(w: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """No site can lower the energy by gaining or losing one electron.

    ``w`` is each site's local potential plus its on-site term
    (``mu_minus`` and any fixed defect potential), row by row; the
    last axis runs over the sites.  Occupied sites must keep
    ``w <= 0`` and empty ones ``w >= 0``, both within
    :data:`POPULATION_TOLERANCE`.
    """
    return ~(
        (occupied & (w > POPULATION_TOLERANCE))
        | (~occupied & (w < -POPULATION_TOLERANCE))
    ).any(axis=-1)


def configuration_stable(
    potentials: np.ndarray, occupied: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """No single electron hop to an empty site lowers the energy.

    ``potentials`` are the local potentials of each configuration row
    (including any fixed external contribution) and ``matrix`` the
    pairwise interaction matrix.  The hop energies are one
    outer-difference array, ``delta[c, s, t] = v_c[t] - v_c[s] -
    V[s, t]``, masked down to occupied sources and empty targets; it
    is sliced internally so peak memory stays bounded regardless of
    how many configurations are passed.
    """
    count, n = occupied.shape
    stable = np.empty(count, dtype=bool)
    step = max(1, _CONFIGURATION_BATCH_ELEMENTS // max(1, n * n))
    for start in range(0, count, step):
        stop = min(start + step, count)
        occ = occupied[start:stop]
        pot = potentials[start:stop]
        deltas = pot[:, None, :] - pot[:, :, None] - matrix[None, :, :]
        relevant = occ[:, :, None] & ~occ[:, None, :]
        stable[start:stop] = ~np.any(
            relevant & (deltas < -POPULATION_TOLERANCE), axis=(1, 2)
        )
    return stable


def metastable(model: EnergyModel, occupations: np.ndarray) -> np.ndarray:
    """Population and configuration stability of occupation rows."""
    occupations = np.asarray(occupations)
    occupied = occupations > 0
    potentials = model.batched_local_potentials(occupations)
    return population_stable(
        potentials + model.parameters.mu_minus, occupied
    ) & configuration_stable(potentials, occupied, model.potential_matrix)
