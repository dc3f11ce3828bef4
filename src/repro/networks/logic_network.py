"""Technology-level logic networks.

While :class:`repro.networks.xag.Xag` is the synthesis data structure, the
physical design steps operate on *technology networks* whose nodes map
one-to-one onto Bestagon standard tiles: two-input gates, explicit
inverters, explicit fan-outs and explicit primary-output pins.  Inverters
are real nodes here (they occupy a tile), unlike the complemented edges of
the XAG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.networks.truth_table import TruthTable


class GateType(enum.Enum):
    """Node types of a technology network, mirroring the Bestagon library."""

    PI = "pi"
    PO = "po"
    BUF = "buf"
    INV = "inv"
    FANOUT = "fanout"
    AND2 = "and"
    NAND2 = "nand"
    OR2 = "or"
    NOR2 = "nor"
    XOR2 = "xor"
    XNOR2 = "xnor"
    CONST0 = "const0"
    CONST1 = "const1"

    @property
    def arity(self) -> int:
        """Number of fanins the type requires."""
        return _ARITY[self]

    def evaluate(self, inputs: list[bool]) -> bool:
        """Boolean semantics of the gate type."""
        if len(inputs) != self.arity:
            raise ValueError(f"{self.value} expects {self.arity} inputs")
        if self is GateType.CONST0:
            return False
        if self is GateType.CONST1:
            return True
        if self in (GateType.BUF, GateType.FANOUT, GateType.PO):
            return inputs[0]
        if self is GateType.INV:
            return not inputs[0]
        a, b = inputs
        if self is GateType.AND2:
            return a and b
        if self is GateType.NAND2:
            return not (a and b)
        if self is GateType.OR2:
            return a or b
        if self is GateType.NOR2:
            return not (a or b)
        if self is GateType.XOR2:
            return a != b
        if self is GateType.XNOR2:
            return a == b
        raise ValueError(f"{self.value} has no Boolean semantics")


_ARITY = {
    GateType.PI: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.PO: 1,
    GateType.BUF: 1,
    GateType.INV: 1,
    GateType.FANOUT: 1,
    GateType.AND2: 2,
    GateType.NAND2: 2,
    GateType.OR2: 2,
    GateType.NOR2: 2,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
}

# Gate types with two outputs carrying the same logic value.
MAX_FANOUT_DEGREE = 2


@dataclass
class _Node:
    gate_type: GateType
    fanins: list[int] = field(default_factory=list)
    name: str | None = None


class LogicNetwork:
    """A DAG of technology gates; node ids are dense integers."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._nodes: list[_Node] = []
        self._pis: list[int] = []
        self._pos: list[int] = []

    # --- construction ------------------------------------------------
    def add_node(
        self,
        gate_type: GateType,
        fanins: list[int] | None = None,
        name: str | None = None,
    ) -> int:
        """Add a node; fanins must already exist (DAG in creation order)."""
        fanins = list(fanins or [])
        if len(fanins) != gate_type.arity:
            raise ValueError(
                f"{gate_type.value} expects {gate_type.arity} fanins, "
                f"got {len(fanins)}"
            )
        node = len(self._nodes)
        for fanin in fanins:
            if not 0 <= fanin < node:
                raise ValueError(f"fanin {fanin} does not precede node {node}")
        self._nodes.append(_Node(gate_type, fanins, name))
        if gate_type is GateType.PI:
            self._pis.append(node)
        elif gate_type is GateType.PO:
            self._pos.append(node)
        return node

    def add_pi(self, name: str | None = None) -> int:
        return self.add_node(GateType.PI, name=name)

    def add_po(self, driver: int, name: str | None = None) -> int:
        return self.add_node(GateType.PO, [driver], name=name)

    # --- access -------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    def pis(self) -> list[int]:
        return list(self._pis)

    def pos(self) -> list[int]:
        return list(self._pos)

    def nodes(self) -> range:
        return range(len(self._nodes))

    def gate_type(self, node: int) -> GateType:
        return self._nodes[node].gate_type

    def fanins(self, node: int) -> list[int]:
        return list(self._nodes[node].fanins)

    def node_name(self, node: int) -> str | None:
        return self._nodes[node].name

    def num_gates(self) -> int:
        """Number of non-PI/PO nodes (tiles occupied by logic or wiring)."""
        return sum(
            1
            for n in self._nodes
            if n.gate_type not in (GateType.PI, GateType.PO)
        )

    def count_type(self, gate_type: GateType) -> int:
        return sum(1 for n in self._nodes if n.gate_type is gate_type)

    def fanouts(self) -> dict[int, list[int]]:
        """Consumers of every node."""
        result: dict[int, list[int]] = {n: [] for n in self.nodes()}
        for node in self.nodes():
            for fanin in self._nodes[node].fanins:
                result[fanin].append(node)
        return result

    # --- invariants -----------------------------------------------------
    def check_fanout_discipline(self) -> list[str]:
        """Violations of the Bestagon fan-out rules.

        Only FANOUT nodes may drive two consumers; every other node must
        drive at most one.  (FANOUT tiles are 1-in-2-out.)
        """
        problems = []
        for node, consumers in self.fanouts().items():
            limit = (
                MAX_FANOUT_DEGREE
                if self.gate_type(node) is GateType.FANOUT
                else 1
            )
            if len(consumers) > limit:
                problems.append(
                    f"node {node} ({self.gate_type(node).value}) drives "
                    f"{len(consumers)} consumers (limit {limit})"
                )
        return problems

    # --- analysis -------------------------------------------------------
    def levels(self) -> dict[int, int]:
        """Logic level of each node; PIs/constants at 0."""
        level: dict[int, int] = {}
        for node in self.nodes():
            fanins = self._nodes[node].fanins
            if not fanins:
                level[node] = 0
            else:
                level[node] = 1 + max(level[f] for f in fanins)
        return level

    def depth(self) -> int:
        if not self._pos:
            return 0
        level = self.levels()
        return max(level[po] for po in self._pos)

    def simulate(self) -> list[TruthTable]:
        """Full truth tables of all POs over the PIs."""
        n = self.num_pis
        values: dict[int, TruthTable] = {}
        pi_position = {pi: i for i, pi in enumerate(self._pis)}
        for node in self.nodes():
            gate_type = self._nodes[node].gate_type
            if gate_type is GateType.PI:
                values[node] = TruthTable.variable(pi_position[node], n)
            elif gate_type is GateType.CONST0:
                values[node] = TruthTable.constant(False, n)
            elif gate_type is GateType.CONST1:
                values[node] = TruthTable.constant(True, n)
            else:
                fanin_tables = [values[f] for f in self._nodes[node].fanins]
                values[node] = _apply(gate_type, fanin_tables)
        return [values[po] for po in self._pos]

    def evaluate(self, inputs: list[bool]) -> list[bool]:
        """Evaluate all POs on one input assignment."""
        if len(inputs) != self.num_pis:
            raise ValueError("wrong number of input values")
        values: dict[int, bool] = {}
        pi_position = {pi: i for i, pi in enumerate(self._pis)}
        for node in self.nodes():
            gate_type = self._nodes[node].gate_type
            if gate_type is GateType.PI:
                values[node] = inputs[pi_position[node]]
            else:
                fanin_values = [values[f] for f in self._nodes[node].fanins]
                values[node] = gate_type.evaluate(fanin_values)
        return [values[po] for po in self._pos]

    # --- (de)serialization --------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready structural dump; exact inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "nodes": [
                [node.gate_type.value, list(node.fanins), node.name]
                for node in self._nodes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogicNetwork":
        """Rebuild a network dumped by :meth:`to_dict`.

        Goes through :meth:`add_node`, so fanin ordering and arities are
        re-validated and the PI/PO lists rebuild themselves.
        """
        network = cls(str(data.get("name", "netlist")))
        for gate_type, fanins, name in data["nodes"]:
            network.add_node(GateType(gate_type), list(fanins), name)
        return network

    def __repr__(self) -> str:
        return (
            f"LogicNetwork(name={self.name!r}, pis={self.num_pis}, "
            f"pos={self.num_pos}, gates={self.num_gates()}, "
            f"depth={self.depth()})"
        )


def _apply(gate_type: GateType, tables: list[TruthTable]) -> TruthTable:
    """Apply a gate's semantics to fanin truth tables."""
    if gate_type in (GateType.BUF, GateType.FANOUT, GateType.PO):
        return tables[0]
    if gate_type is GateType.INV:
        return ~tables[0]
    a, b = tables
    if gate_type is GateType.AND2:
        return a & b
    if gate_type is GateType.NAND2:
        return ~(a & b)
    if gate_type is GateType.OR2:
        return a | b
    if gate_type is GateType.NOR2:
        return ~(a | b)
    if gate_type is GateType.XOR2:
        return a ^ b
    if gate_type is GateType.XNOR2:
        return ~(a ^ b)
    raise ValueError(f"cannot apply {gate_type.value}")
