"""The H-Si(100)-2x1 surface lattice.

SiDBs can only be fabricated at discrete hydrogen sites of the
hydrogen-passivated silicon(100) 2x1 surface (Figure 1b).  The surface has
a rectangular unit cell of ``a x b`` (3.84 A x 7.68 A) containing a *dimer
pair* of two hydrogen sites separated by 2.25 A along the row direction.

Following SiQAD conventions, a site is addressed as ``(n, m, l)``:

* ``n`` -- dimer column index (x direction, pitch ``a`` = 3.84 A),
* ``m`` -- dimer row index (y direction, pitch ``b`` = 7.68 A),
* ``l`` -- 0 or 1, selecting the upper or lower atom of the dimer pair
  (intra-pair offset ``c`` = 2.25 A along y).

For bounding-box and floor-plan arithmetic the paper's Table 1 uses a
uniform half-pitch grid in y (46 rows per tile at 3.84 A); that area model
lives in :mod:`repro.tech.area`.  This module provides exact physical
positions for the electrostatics engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.tech.constants import (
    LATTICE_A_NM,
    LATTICE_B_NM,
    LATTICE_C_NM,
)


@dataclass(frozen=True, order=True)
class LatticeSite:
    """A single hydrogen site of the H-Si(100)-2x1 surface."""

    n: int
    m: int
    l: int = 0

    def __post_init__(self) -> None:
        if self.l not in (0, 1):
            raise ValueError(f"dimer index l must be 0 or 1, got {self.l}")

    @property
    def position_nm(self) -> tuple[float, float]:
        """Physical (x, y) position of the site in nanometers."""
        x = self.n * LATTICE_A_NM
        y = self.m * LATTICE_B_NM + self.l * LATTICE_C_NM
        return x, y

    @property
    def row(self) -> int:
        """Linearized row index (two rows per dimer unit cell)."""
        return 2 * self.m + self.l

    @classmethod
    def from_row(cls, n: int, row: int) -> "LatticeSite":
        """Build a site from a column and a linearized row index."""
        return cls(n, row // 2, row % 2)

    def translated(self, dn: int, drow: int) -> "LatticeSite":
        """The site shifted by ``dn`` columns and ``drow`` linearized rows."""
        return LatticeSite.from_row(self.n + dn, self.row + drow)

    def __str__(self) -> str:
        return f"({self.n},{self.m},{self.l})"


class SurfaceLattice:
    """Helper for geometric queries over collections of lattice sites."""

    @staticmethod
    def distance_nm(a: LatticeSite, b: LatticeSite) -> float:
        """Euclidean distance between two sites in nanometers."""
        ax, ay = a.position_nm
        bx, by = b.position_nm
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    @staticmethod
    def bounding_box_nm(
        sites: Iterable[LatticeSite],
    ) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of the sites' physical positions."""
        positions = [s.position_nm for s in sites]
        if not positions:
            return 0.0, 0.0, 0.0, 0.0
        xs = [p[0] for p in positions]
        ys = [p[1] for p in positions]
        return min(xs), min(ys), max(xs), max(ys)

    @staticmethod
    def extent_nm(sites: Iterable[LatticeSite]) -> tuple[float, float]:
        """(width, height) of the physical bounding box in nanometers."""
        min_x, min_y, max_x, max_y = SurfaceLattice.bounding_box_nm(sites)
        return max_x - min_x, max_y - min_y


@dataclass(frozen=True)
class CanonicalForm:
    """A system of sites moved to its isometry class's representative.

    ``sites[j]`` is the image of input site ``order[j]``; ``marks[j]``
    is the image of input mark ``mark_order[j]``.
    """

    sites: tuple[LatticeSite, ...]
    order: tuple[int, ...]
    marks: tuple[tuple[LatticeSite, Hashable], ...]
    mark_order: tuple[int, ...]


def canonical_form(
    sites: Sequence[LatticeSite],
    marks: Sequence[tuple[LatticeSite, Hashable]] = (),
) -> CanonicalForm:
    """The representative of ``sites`` under the lattice's isometries.

    Every pairwise distance, and so every screened-Coulomb energy, is
    unchanged by a whole-dimer shift (any ``dn``, any ``dm``) and by the
    mirror ``n -> -n``.  A shift by an odd number of rows is not an
    isometry (``l=0`` and ``l=1`` sites would move by different
    distances), nor is a mirror in y (``c != b - c``).  The
    representative is the lexicographically smaller of the sorted
    system and its mirror, each shifted to ``min n = 0`` and
    ``min m = 0`` over ``sites``.  ``marks`` are ``(site, label)`` pairs
    with orderable labels, such as fixed charges; they move with the
    sites and take part in the comparison, so two systems get the same
    form exactly when one is an isometric image of the other.
    """
    best = None
    for sign in (1, -1):
        dn = -min((sign * site.n for site in sites), default=0)
        dm = -min((site.m for site in sites), default=0)

        def move(site: LatticeSite) -> LatticeSite:
            return LatticeSite(sign * site.n + dn, site.m + dm, site.l)

        image = sorted(
            (move(site), index) for index, site in enumerate(sites)
        )
        mark_image = sorted(
            (move(site), label, index)
            for index, (site, label) in enumerate(marks)
        )
        key = (
            tuple(site for site, _ in image),
            tuple((site, label) for site, label, _ in mark_image),
        )
        if best is None or key < best[0]:
            best = (key, image, mark_image)
    (moved, moved_marks), image, mark_image = best
    return CanonicalForm(
        sites=moved,
        order=tuple(index for _, index in image),
        marks=moved_marks,
        mark_order=tuple(index for _, _, index in mark_image),
    )
