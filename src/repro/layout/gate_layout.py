"""Clocked hexagonal gate-level layouts.

A gate-level layout assigns Bestagon standard tiles to hexagon positions:
logic gates, wire segments, 1-in-2-out fan-outs, wire crossings, primary
input pins (top row) and primary output pins (bottom row).  Information
flows strictly from the north-west/north-east borders to the
south-west/south-east borders of every tile, so under the row-based
Columnar clocking of the paper each row is one pipeline stage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.layout.clocking import ClockingScheme, columnar_rows
from repro.networks.logic_network import GateType
from repro.tech.area import layout_area_nm2, layout_extent_nm


class TileKind(enum.Enum):
    """What occupies a tile."""

    GATE = "gate"  # any single-signal tile: gates, wires, fanouts, pins
    CROSS = "cross"  # two signals: NW->SE and NE->SW (they cross)
    DOUBLE_WIRE = "double"  # two signals: NW->SW and NE->SE (parallel)


_IN = (HexDirection.NORTH_WEST, HexDirection.NORTH_EAST)
_OUT = (HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST)


@dataclass(frozen=True)
class TileContent:
    """Occupancy of one hexagonal tile.

    ``nodes`` holds the technology-network node(s) realized here: one id
    for GATE tiles, two for CROSS/DOUBLE_WIRE tiles (first the signal
    entering at NW, then the one entering at NE).  ``input_dirs`` lists,
    in fanin order, the borders through which the gate's operands arrive;
    ``output_dirs`` the borders through which the result leaves.
    """

    kind: TileKind
    gate_type: GateType | None = None
    nodes: tuple[int, ...] = ()
    input_dirs: tuple[HexDirection, ...] = ()
    output_dirs: tuple[HexDirection, ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        for direction in self.input_dirs:
            if not direction.is_incoming:
                raise ValueError(f"{direction} cannot be an input border")
        for direction in self.output_dirs:
            if not direction.is_outgoing:
                raise ValueError(f"{direction} cannot be an output border")
        if self.kind is TileKind.GATE:
            if self.gate_type is None:
                raise ValueError("GATE tiles need a gate_type")
            if len(self.nodes) != 1:
                raise ValueError("GATE tiles carry exactly one node")
        else:
            if len(self.nodes) != 2:
                raise ValueError("two-signal tiles carry exactly two nodes")

    def signal_through(self, in_dir: HexDirection) -> HexDirection:
        """Exit border of the signal entering a two-signal tile."""
        if self.kind is TileKind.CROSS:
            return (
                HexDirection.SOUTH_EAST
                if in_dir is HexDirection.NORTH_WEST
                else HexDirection.SOUTH_WEST
            )
        if self.kind is TileKind.DOUBLE_WIRE:
            return (
                HexDirection.SOUTH_WEST
                if in_dir is HexDirection.NORTH_WEST
                else HexDirection.SOUTH_EAST
            )
        raise ValueError("signal_through only applies to two-signal tiles")


def wire_tile(node: int, in_dir: HexDirection, out_dir: HexDirection) -> TileContent:
    """A single wire segment passing through a tile."""
    return TileContent(
        TileKind.GATE, GateType.BUF, (node,), (in_dir,), (out_dir,)
    )


def cross_tile(nw_node: int, ne_node: int) -> TileContent:
    """A wire crossing: NW->SE and NE->SW."""
    return TileContent(TileKind.CROSS, None, (nw_node, ne_node), _IN, _OUT)


def double_wire_tile(nw_node: int, ne_node: int) -> TileContent:
    """Two parallel wires: NW->SW and NE->SE."""
    return TileContent(TileKind.DOUBLE_WIRE, None, (nw_node, ne_node), _IN, _OUT)


class GateLevelLayout:
    """A ``width x height`` hexagonal floor plan of Bestagon tiles."""

    def __init__(
        self,
        width: int,
        height: int,
        clocking: ClockingScheme | None = None,
        name: str = "layout",
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("layout dimensions must be positive")
        self.width = width
        self.height = height
        self.clocking = clocking or columnar_rows()
        self.name = name
        self._tiles: dict[HexCoord, TileContent] = {}

    # --- tile access -----------------------------------------------------
    def in_bounds(self, coord: HexCoord) -> bool:
        return 0 <= coord.x < self.width and 0 <= coord.y < self.height

    def place(self, coord: HexCoord, content: TileContent) -> None:
        """Occupy a tile; placing on an occupied tile is an error."""
        if not self.in_bounds(coord):
            raise ValueError(f"tile {coord} outside {self.width}x{self.height}")
        if coord in self._tiles:
            raise ValueError(f"tile {coord} already occupied")
        self._tiles[coord] = content

    def tile(self, coord: HexCoord) -> TileContent | None:
        return self._tiles.get(coord)

    def is_empty(self, coord: HexCoord) -> bool:
        return coord not in self._tiles

    def occupied(self) -> list[tuple[HexCoord, TileContent]]:
        """All occupied tiles, sorted row-major."""
        return sorted(self._tiles.items(), key=lambda kv: (kv[0].y, kv[0].x))

    def clock_zone(self, coord: HexCoord) -> int:
        return self.clocking.zone_of(coord)

    # --- statistics -----------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Layout area in tiles (the ``A`` column of Table 1)."""
        return self.width * self.height

    def area_nm2(self) -> float:
        """Physical bounding-box area per the paper's Table-1 model."""
        return layout_area_nm2(self.width, self.height)

    def extent_nm(self) -> tuple[float, float]:
        return layout_extent_nm(self.width, self.height)

    def gate_census(self) -> dict[str, int]:
        """Count of tiles by content kind / gate type."""
        census: dict[str, int] = {}

        def bump(key: str) -> None:
            census[key] = census.get(key, 0) + 1

        for _, content in self._tiles.items():
            if content.kind is TileKind.GATE:
                assert content.gate_type is not None
                bump(content.gate_type.value)
            else:
                bump(content.kind.value)
        return census

    def num_wire_tiles(self) -> int:
        """Tiles used purely for wiring (BUF, crossings, double wires)."""
        census = self.gate_census()
        return (
            census.get(GateType.BUF.value, 0)
            + census.get(TileKind.CROSS.value, 0)
            + census.get(TileKind.DOUBLE_WIRE.value, 0)
        )

    def num_crossings(self) -> int:
        return self.gate_census().get(TileKind.CROSS.value, 0)

    # --- pins -----------------------------------------------------------
    def primary_inputs(self) -> list[tuple[HexCoord, TileContent]]:
        return [
            (coord, content)
            for coord, content in self.occupied()
            if content.kind is TileKind.GATE
            and content.gate_type is GateType.PI
        ]

    def primary_outputs(self) -> list[tuple[HexCoord, TileContent]]:
        return [
            (coord, content)
            for coord, content in self.occupied()
            if content.kind is TileKind.GATE
            and content.gate_type is GateType.PO
        ]

    # --- connectivity -----------------------------------------------------
    def driver_of(
        self, coord: HexCoord, in_dir: HexDirection
    ) -> tuple[HexCoord, TileContent] | None:
        """The neighboring tile driving ``coord`` through ``in_dir``."""
        source = coord.neighbor(in_dir)
        content = self.tile(source)
        if content is None:
            return None
        expected_out = in_dir.opposite
        if expected_out not in content.output_dirs:
            return None
        return source, content

    def is_path_balanced(self) -> bool:
        """Whether all PIs sit in the first and all POs in the last row.

        Together with the strict one-row-per-hop flow discipline this
        implies that every PI-to-PO path has identical length, i.e. the
        layout achieves the paper's 1/1 throughput.
        """
        pis = self.primary_inputs()
        pos = self.primary_outputs()
        if not pis or not pos:
            return True
        return all(c.y == 0 for c, _ in pis) and all(
            c.y == self.height - 1 for c, _ in pos
        )

    def __repr__(self) -> str:
        return (
            f"GateLevelLayout({self.name!r}, {self.width}x{self.height}, "
            f"clocking={self.clocking.name}, occupied={len(self._tiles)})"
        )
