"""JSON save/load for gate-level layouts.

The fiction framework persists gate-level layouts in its own formats;
this module provides the equivalent capability so placed-and-routed
designs can be archived and re-verified without re-running the SAT
engine.
"""

from __future__ import annotations

import json

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.layout.clocking import scheme_by_name
from repro.layout.gate_layout import GateLevelLayout, TileContent, TileKind
from repro.networks.logic_network import GateType

_FORMAT_VERSION = 1


def layout_to_json(layout: GateLevelLayout) -> str:
    """Serialize a gate-level layout to a JSON document."""
    tiles = []
    for coord, content in layout.occupied():
        tiles.append(
            {
                "x": coord.x,
                "y": coord.y,
                "kind": content.kind.value,
                "gate": content.gate_type.value if content.gate_type else None,
                "nodes": list(content.nodes),
                "inputs": [d.value for d in content.input_dirs],
                "outputs": [d.value for d in content.output_dirs],
                "label": content.label,
            }
        )
    document = {
        "format": _FORMAT_VERSION,
        "name": layout.name,
        "width": layout.width,
        "height": layout.height,
        "clocking": layout.clocking.name,
        "tiles": tiles,
    }
    return json.dumps(document, indent=1)


def layout_from_json(text: str) -> GateLevelLayout:
    """Deserialize a gate-level layout from JSON."""
    document = json.loads(text)
    if document.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported layout format {document.get('format')!r}"
        )
    layout = GateLevelLayout(
        document["width"],
        document["height"],
        scheme_by_name(document["clocking"]),
        document.get("name", "layout"),
    )
    directions = {d.value: d for d in HexDirection}
    gate_types = {g.value: g for g in GateType}
    kinds = {k.value: k for k in TileKind}
    for tile in document["tiles"]:
        content = TileContent(
            kind=kinds[tile["kind"]],
            gate_type=gate_types[tile["gate"]] if tile["gate"] else None,
            nodes=tuple(tile["nodes"]),
            input_dirs=tuple(directions[d] for d in tile["inputs"]),
            output_dirs=tuple(directions[d] for d in tile["outputs"]),
            label=tile.get("label"),
        )
        layout.place(HexCoord(tile["x"], tile["y"]), content)
    return layout
