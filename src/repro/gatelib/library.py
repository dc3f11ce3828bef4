"""The Bestagon library: tile lookup and physics validation."""

from __future__ import annotations

from dataclasses import astuple

from repro.gatelib.designs import GateDesign, builtin_designs
from repro.gatelib.tile import Port
from repro.layout.gate_layout import TileContent, TileKind
from repro.networks.logic_network import GateType
from repro.sidb.operational import OperationalReport, check_operational
from repro.sidb.simanneal import SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

#: Version of the built-in dot-accurate tile designs.  Part of the
#: design-service cache digest (:mod:`repro.service.digest`): bump it
#: whenever a tile design changes so persisted artifacts produced with
#: the old library are invalidated instead of served stale.
GATE_LIBRARY_VERSION = "bestagon-1"

_GATE_KIND = {
    GateType.BUF: "wire",
    GateType.INV: "inv",
    GateType.FANOUT: "fanout",
    GateType.AND2: "and",
    GateType.OR2: "or",
    GateType.NAND2: "nand",
    GateType.NOR2: "nor",
    GateType.XOR2: "xor",
    GateType.XNOR2: "xnor",
    GateType.PI: "pi",
    GateType.PO: "po",
}


class BestagonLibrary:
    """Standard-tile library with lookup by tile content."""

    def __init__(self, designs: dict[str, GateDesign] | None = None) -> None:
        self.designs = designs if designs is not None else builtin_designs()
        self._validation: dict[tuple, OperationalReport] = {}

    def names(self) -> list[str]:
        return sorted(self.designs)

    def design(self, name: str) -> GateDesign:
        if name not in self.designs:
            raise KeyError(f"no Bestagon design named {name!r}")
        return self.designs[name]

    def design_for(self, content: TileContent) -> GateDesign:
        """The tile design realizing a gate-level tile content."""
        if content.kind is TileKind.CROSS:
            return self.design("cross")
        if content.kind is TileKind.DOUBLE_WIRE:
            return self.design("double_wire")
        assert content.gate_type is not None
        kind = _GATE_KIND.get(content.gate_type)
        if kind is None:
            raise KeyError(
                f"gate type {content.gate_type.value} has no Bestagon tile"
            )
        if kind == "pi":
            out_port = Port.from_direction(content.output_dirs[0])
            return self.design(f"pi_{out_port.value}")
        if kind == "po":
            in_port = Port.from_direction(content.input_dirs[0])
            return self.design(f"po_{in_port.value}")
        if kind == "fanout":
            in_port = Port.from_direction(content.input_dirs[0])
            return self.design(f"fanout_{in_port.value}")
        if kind in ("wire", "inv"):
            in_port = Port.from_direction(content.input_dirs[0])
            out_port = Port.from_direction(content.output_dirs[0])
            return self.design(f"{kind}_{in_port.value}_{out_port.value}")
        out_port = Port.from_direction(content.output_dirs[0])
        return self.design(f"{kind}_{out_port.value}")

    # --- physics validation ------------------------------------------------
    def validate(
        self,
        name: str,
        parameters: SiDBSimulationParameters | None = None,
        engine: str = "auto",
        schedule: SimAnnealParameters | None = None,
    ) -> OperationalReport:
        """Operational check of a tile design (Figure 5 procedure).

        Reports are memoised per library on the tile name, the
        parameters, the engine and the schedule's field values, so a
        call with other arguments simulates afresh.
        """
        parameters = parameters or SiDBSimulationParameters.bestagon()
        key = (
            name,
            parameters,
            engine,
            None if schedule is None else astuple(schedule),
        )
        if key in self._validation:
            return self._validation[key]
        report = check_operational(
            self.design(name).under_test, parameters, engine, schedule
        )
        self._validation[key] = report
        return report
