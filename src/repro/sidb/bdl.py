"""Binary-dot logic (BDL) pairs: detection and readout.

BDL encodes one bit in a *pair* of SiDBs sharing a single excess
electron (Figure 1a): the dot the electron localizes on determines the
logic state.  For gate I/O we follow the convention that the electron on
the pair's designated ``site1`` means logic 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coords.lattice import LatticeSite, SurfaceLattice
from repro.sidb.charge import SidbLayout


@dataclass(frozen=True)
class BdlPair:
    """A binary-dot logic pair; charge on ``site1`` encodes logic 1."""

    site0: LatticeSite
    site1: LatticeSite

    @property
    def separation_nm(self) -> float:
        return SurfaceLattice.distance_nm(self.site0, self.site1)

    def translated(self, dn: int, drow: int) -> "BdlPair":
        return BdlPair(
            self.site0.translated(dn, drow), self.site1.translated(dn, drow)
        )


def read_bdl_pair(
    layout: SidbLayout, occupation: np.ndarray, pair: BdlPair
) -> bool | None:
    """Logic value of a pair in a charge configuration.

    Returns None when the pair holds zero or two electrons (no valid BDL
    state).
    """
    index0 = layout.index_of(pair.site0)
    index1 = layout.index_of(pair.site1)
    charge0 = int(occupation[index0])
    charge1 = int(occupation[index1])
    if charge0 + charge1 != 1:
        return None
    return bool(charge1)


def detect_bdl_pairs(
    layout: SidbLayout, max_separation_nm: float = 1.0
) -> list[tuple[LatticeSite, LatticeSite]]:
    """Greedy proximity pairing of a layout's sites into BDL pairs.

    Sites are matched to their nearest unpaired neighbor within the
    threshold; unpaired leftovers (perturbers, isolated dots) are simply
    not reported.  Used for diagnostics and for importing foreign
    layouts whose pair structure is unknown.
    """
    sites = layout.sites()
    unpaired = set(range(len(sites)))
    candidates: list[tuple[float, int, int]] = []
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            distance = SurfaceLattice.distance_nm(sites[i], sites[j])
            if distance <= max_separation_nm:
                candidates.append((distance, i, j))
    candidates.sort()
    pairs = []
    for _, i, j in candidates:
        if i in unpaired and j in unpaired:
            pairs.append((sites[i], sites[j]))
            unpaired.discard(i)
            unpaired.discard(j)
    return pairs


def scaling_layout(num_sites: int) -> SidbLayout:
    """A BDL wire with ``num_sites`` dots (the paper's workhorse).

    Dimers are spaced like the canonical Bestagon wire segments: two
    dots two columns apart, six columns between dimers.
    """
    sites = []
    column = 0
    for _ in range((num_sites + 1) // 2):
        sites.append(LatticeSite(column, 0, 0))
        sites.append(LatticeSite(column + 2, 0, 0))
        column += 6
    return SidbLayout(sites[:num_sites])
