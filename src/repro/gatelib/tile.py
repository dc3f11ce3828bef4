"""Bestagon standard-tile geometry.

Each tile spans 60 lattice columns x 46 lattice rows (reverse-engineered
from the paper's Table 1 area model, see ``repro.tech.constants``) and
follows the Y-shaped port discipline of Figure 3b/4:

* inputs arrive at the top border, at the **NW port** (column 15) and the
  **NE port** (column 45);
* outputs leave at the bottom border via the **SW port** (column 15) and
  the **SE port** (column 45);
* the central region is the *logic design canvas*.

Because odd tile rows of the hexagonal floor plan are shifted right by
half a tile (30 columns), the SE port of a tile is vertically aligned
with the NW port of its south-east neighbor (and SW with the neighbor's
NE), so inter-tile signals continue straight down in lattice space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.tech.constants import (
    BOUNDING_BOX_PITCH_NM,
    MIN_CANVAS_SEPARATION_NM,
    TILE_HEIGHT_ROWS,
    TILE_WIDTH_COLUMNS,
)


class Port(enum.Enum):
    """The four signal ports of a Bestagon tile."""

    NW = "NW"
    NE = "NE"
    SW = "SW"
    SE = "SE"

    @property
    def direction(self) -> HexDirection:
        return {
            Port.NW: HexDirection.NORTH_WEST,
            Port.NE: HexDirection.NORTH_EAST,
            Port.SW: HexDirection.SOUTH_WEST,
            Port.SE: HexDirection.SOUTH_EAST,
        }[self]

    @classmethod
    def from_direction(cls, direction: HexDirection) -> "Port":
        return {
            HexDirection.NORTH_WEST: cls.NW,
            HexDirection.NORTH_EAST: cls.NE,
            HexDirection.SOUTH_WEST: cls.SW,
            HexDirection.SOUTH_EAST: cls.SE,
        }[direction]


# Port columns within the tile (lattice columns relative to tile origin).
PORT_COLUMNS = {Port.NW: 15, Port.NE: 45, Port.SW: 15, Port.SE: 45}

# Rows (relative to the tile origin) of the canvas region; I/O wires live
# above/below, keeping >= 10 nm between canvases of vertically adjacent
# tiles per the design rules.
CANVAS_FIRST_ROW = 16
CANVAS_LAST_ROW = 30


@dataclass(frozen=True)
class TileGeometry:
    """Geometry helper for mapping tiles onto the surface lattice."""

    width_columns: int = TILE_WIDTH_COLUMNS
    height_rows: int = TILE_HEIGHT_ROWS

    def origin_of(self, coord: HexCoord) -> tuple[int, int]:
        """(column, row) lattice origin of a hexagonal tile position.

        Odd rows are shifted right by half a tile width.
        """
        column = coord.x * self.width_columns
        if coord.y % 2 == 1:
            column += self.width_columns // 2
        row = coord.y * self.height_rows
        return column, row

    def port_position(self, coord: HexCoord, port: Port) -> tuple[int, int]:
        """(column, row) of a port's reference position on the lattice."""
        column, row = self.origin_of(coord)
        port_row = 0 if port in (Port.NW, Port.NE) else self.height_rows - 1
        return column + PORT_COLUMNS[port], row + port_row

    def canvas_separation_nm(self) -> float:
        """Vertical distance between canvases of vertically adjacent tiles."""
        rows_between = (self.height_rows - CANVAS_LAST_ROW) + CANVAS_FIRST_ROW
        return rows_between * BOUNDING_BOX_PITCH_NM

    def canvas_separation_ok(self) -> bool:
        return self.canvas_separation_nm() >= MIN_CANVAS_SEPARATION_NM
