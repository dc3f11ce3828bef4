"""Clocking floor plans for hexagonal SiDB layouts.

FCN circuits require external clocking to stabilize signals and direct
information flow (Figure 2): four clock phases alternately *activate*
regions (which hold logic states) and *deactivate* them (which act as
separators).  The paper restricts layouts to feed-forward linear schemes
-- Columnar [Lent/Tougaw'97] and 2DDWave [Vankamamidi'06] -- because
super-tile clock electrodes cannot realize intricate zone patterns; USE
[Campos'16] is provided for the ablation study but flagged as requiring
intra-super-tile routing (the paper's future work).

The paper's own layouts use "the Columnar clocking scheme rotated by 90
degrees yielding a row-based configuration where tile (x, y) is driven by
clock zone y mod 4" (Section 4.1); that scheme is
:func:`columnar_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coords.hexagonal import HexCoord, offset_to_axial
from repro.tech.constants import CLOCK_PHASES


@dataclass(frozen=True)
class ClockingScheme:
    """A tile -> clock-zone assignment."""

    name: str
    zone_function: Callable[[HexCoord], int]
    num_phases: int = CLOCK_PHASES
    feed_forward: bool = True

    def zone_of(self, coord: HexCoord) -> int:
        """Clock zone driving the given tile."""
        return self.zone_function(coord) % self.num_phases

    def is_valid_hop(self, source: HexCoord, target: HexCoord) -> bool:
        """Whether information may flow from ``source`` to ``target``.

        A hop is valid if the target tile is clocked one phase after the
        source tile (the FCN pipeline rule).
        """
        return self.zone_of(target) == (self.zone_of(source) + 1) % self.num_phases


def columnar_rows() -> ClockingScheme:
    """Row-based Columnar: tile (x, y) in zone ``y mod 4``; flow top->bottom.

    This is the scheme used for all layouts in the paper's evaluation.
    """
    return ClockingScheme("columnar-rows", lambda c: c.y)


def columnar_columns() -> ClockingScheme:
    """Classic Columnar: zone ``x mod 4``; flow left->right.

    Unsuitable for the Y-shaped port discipline (inputs enter from the
    north), provided for the topology ablation.
    """
    return ClockingScheme("columnar-columns", lambda c: c.x)


def two_d_d_wave() -> ClockingScheme:
    """2DDWave adapted to the hexagonal grid via axial coordinates.

    Zone = (q + r) mod 4; only south-east hops advance the clock phase,
    so this scheme is strictly more restrictive than row-based Columnar
    on hexagons (quantified in the clocking ablation bench).
    """

    def zone(coord: HexCoord) -> int:
        q, r = offset_to_axial(coord)
        return q + r

    return ClockingScheme("2ddwave-hex", zone)


def use_scheme() -> ClockingScheme:
    """USE [Campos'16] pattern mapped onto offset coordinates.

    USE is *not* feed-forward: its zone pattern contains backward phase
    steps that would require detailed routing inside super-tiles, which
    the paper defers to future work.  The scheme is provided so the
    ablation bench can demonstrate exactly that incompatibility.
    """
    pattern = (
        (0, 1, 2, 3),
        (3, 2, 1, 0),
        (2, 3, 0, 1),
        (1, 0, 3, 2),
    )

    def zone(coord: HexCoord) -> int:
        return pattern[coord.y % 4][coord.x % 4]

    return ClockingScheme("use-hex", zone, feed_forward=False)


def open_clocking() -> ClockingScheme:
    """Degenerate single-zone clocking (unclocked small structures)."""
    return ClockingScheme("open", lambda c: 0, num_phases=1)


SCHEMES: dict[str, Callable[[], ClockingScheme]] = {
    "columnar-rows": columnar_rows,
    "columnar-columns": columnar_columns,
    "2ddwave-hex": two_d_d_wave,
    "use-hex": use_scheme,
    "open": open_clocking,
}


def scheme_by_name(name: str) -> ClockingScheme:
    """Look up a clocking scheme by its registry name."""
    if name not in SCHEMES:
        raise KeyError(f"unknown clocking scheme {name!r}; know {sorted(SCHEMES)}")
    return SCHEMES[name]()
