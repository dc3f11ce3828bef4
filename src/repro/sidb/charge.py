"""SiDB layouts and charge configurations.

In the demonstrated system SiDBs may hold 0, 1 or 2 electrons
(positive, neutral, negative).  As in the paper, positive charge states
"are not relevant to the configuration of interest", so the simulation
engines work in the two-state {neutral, negative} regime.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.coords.lattice import LatticeSite, SurfaceLattice


class SidbLayout:
    """An ordered collection of SiDB sites (dot-accurate layout)."""

    def __init__(self, sites: Iterable[LatticeSite] = ()) -> None:
        self._sites: list[LatticeSite] = []
        self._index: dict[LatticeSite, int] = {}
        for site in sites:
            self.add(site)

    def add(self, site: LatticeSite) -> int:
        """Add a site; returns its index.  Duplicates are rejected."""
        if site in self._index:
            raise ValueError(f"duplicate SiDB at {site}")
        self._index[site] = len(self._sites)
        self._sites.append(site)
        return self._index[site]

    def extend(self, sites: Iterable[LatticeSite]) -> None:
        for site in sites:
            self.add(site)

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, site: LatticeSite) -> bool:
        return site in self._index

    def sites(self) -> list[LatticeSite]:
        return list(self._sites)

    def index_of(self, site: LatticeSite) -> int:
        return self._index[site]

    def bounding_box_nm(self) -> tuple[float, float, float, float]:
        return SurfaceLattice.bounding_box_nm(self._sites)

    def translated(self, dn: int, drow: int) -> "SidbLayout":
        """The layout shifted by whole lattice offsets."""
        return SidbLayout(site.translated(dn, drow) for site in self._sites)

    def __repr__(self) -> str:
        return f"SidbLayout({len(self._sites)} SiDBs)"


ChargeConfiguration = Sequence[int]
"""Electron occupation per site: 1 = negatively charged, 0 = neutral."""
