"""Pointy-top hexagonal coordinates in odd-row offset form.

The paper proposes hexagonal floor plans because the experimentally
demonstrated SiDB gates are Y-shaped: two inputs arrive at the upper-left
and upper-right tile borders and the output leaves towards one of the two
lower borders (Figure 3b).  A pointy-top hexagonal grid realizes exactly
this port discipline.

We follow the *odd-r* offset convention (after Red Blob Games, credited in
the paper's acknowledgments): coordinates are ``(x, y)`` with ``y`` growing
downwards and odd rows shifted half a tile to the right.  Conversions to
axial and cube coordinates are provided for distance computations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator


class HexDirection(enum.Enum):
    """The six neighbor directions of a pointy-top hexagon.

    Under the feed-forward clocking schemes used in this work, information
    enters a tile via ``NORTH_WEST``/``NORTH_EAST`` and leaves via
    ``SOUTH_WEST``/``SOUTH_EAST``; ``EAST``/``WEST`` neighbors share a clock
    zone row and never exchange signals.
    """

    NORTH_WEST = "NW"
    NORTH_EAST = "NE"
    EAST = "E"
    WEST = "W"
    SOUTH_WEST = "SW"
    SOUTH_EAST = "SE"

    @property
    def is_incoming(self) -> bool:
        """True for directions through which a tile may receive a signal."""
        return self in (HexDirection.NORTH_WEST, HexDirection.NORTH_EAST)

    @property
    def is_outgoing(self) -> bool:
        """True for directions through which a tile may emit a signal."""
        return self in (HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST)

    @property
    def opposite(self) -> "HexDirection":
        """The direction pointing back at this one."""
        return _OPPOSITE[self]


_OPPOSITE = {
    HexDirection.NORTH_WEST: HexDirection.SOUTH_EAST,
    HexDirection.NORTH_EAST: HexDirection.SOUTH_WEST,
    HexDirection.EAST: HexDirection.WEST,
    HexDirection.WEST: HexDirection.EAST,
    HexDirection.SOUTH_WEST: HexDirection.NORTH_EAST,
    HexDirection.SOUTH_EAST: HexDirection.NORTH_WEST,
}

# Offset deltas (dx, dy), keyed by row parity (0 = even row, 1 = odd row).
_NEIGHBOR_DELTAS = {
    0: {
        HexDirection.NORTH_WEST: (-1, -1),
        HexDirection.NORTH_EAST: (0, -1),
        HexDirection.EAST: (1, 0),
        HexDirection.WEST: (-1, 0),
        HexDirection.SOUTH_WEST: (-1, 1),
        HexDirection.SOUTH_EAST: (0, 1),
    },
    1: {
        HexDirection.NORTH_WEST: (0, -1),
        HexDirection.NORTH_EAST: (1, -1),
        HexDirection.EAST: (1, 0),
        HexDirection.WEST: (-1, 0),
        HexDirection.SOUTH_WEST: (0, 1),
        HexDirection.SOUTH_EAST: (1, 1),
    },
}


@dataclass(frozen=True, order=True)
class HexCoord:
    """A tile position on the hexagonal floor plan (odd-row offset)."""

    x: int
    y: int

    def neighbor(self, direction: HexDirection) -> "HexCoord":
        """The adjacent tile in the given direction."""
        dx, dy = _NEIGHBOR_DELTAS[self.y & 1][direction]
        return HexCoord(self.x + dx, self.y + dy)

    def neighbors(self) -> Iterator[tuple[HexDirection, "HexCoord"]]:
        """All six (direction, neighbor) pairs."""
        for direction in HexDirection:
            yield direction, self.neighbor(direction)

    def direction_to(self, other: "HexCoord") -> HexDirection | None:
        """The direction of an adjacent tile, or None if not adjacent."""
        for direction, coord in self.neighbors():
            if coord == other:
                return direction
        return None

    def distance(self, other: "HexCoord") -> int:
        """Hex-grid (cube) distance between two tiles."""
        return cube_distance(offset_to_cube(self), offset_to_cube(other))

    def to_pixel(self, size: float = 1.0) -> tuple[float, float]:
        """Center of the hexagon in Euclidean coordinates.

        ``size`` is the hexagon's circumradius; pointy-top orientation.
        """
        q, r = offset_to_axial(self)
        px = size * math.sqrt(3.0) * (q + r / 2.0)
        py = size * 1.5 * r
        return px, py

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def offset_to_axial(coord: HexCoord) -> tuple[int, int]:
    """Convert odd-row offset coordinates to axial (q, r)."""
    q = coord.x - (coord.y - (coord.y & 1)) // 2
    return q, coord.y


def axial_to_offset(q: int, r: int) -> HexCoord:
    """Convert axial (q, r) coordinates to odd-row offset."""
    x = q + (r - (r & 1)) // 2
    return HexCoord(x, r)


def offset_to_cube(coord: HexCoord) -> tuple[int, int, int]:
    """Convert odd-row offset coordinates to cube (x, y, z)."""
    q, r = offset_to_axial(coord)
    return q, -q - r, r


def cube_distance(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """Distance between two cube coordinates."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))

