"""XOR-AND-Inverter Graphs (XAGs) with structural hashing.

The paper's flow parses logic specifications into XAGs (flow step 1)
because the Bestagon library natively supports both AND and XOR standard
tiles, making XAGs "a potentially more compact representation compared to
AND-inverter graphs" (Section 4.2).

Following mockturtle/AIGER conventions, a *signal* is an integer
``2 * node + complement``: even signals are regular node outputs, odd
signals are complemented.  Node 0 is the constant 0, so signal 0 is
constant false and signal 1 constant true.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.networks.truth_table import TruthTable

Signal = int


class XagNodeKind(enum.Enum):
    CONSTANT = "const"
    PI = "pi"
    AND = "and"
    XOR = "xor"


@dataclass
class _XagNode:
    kind: XagNodeKind
    fanin0: Signal = 0
    fanin1: Signal = 0
    name: str | None = None


def make_signal(node: int, complemented: bool = False) -> Signal:
    """Build a signal from a node index and a complement flag."""
    return (node << 1) | int(complemented)


def signal_node(signal: Signal) -> int:
    """Node index a signal refers to."""
    return signal >> 1


def is_complemented(signal: Signal) -> bool:
    """Whether a signal is complemented."""
    return bool(signal & 1)


class Xag:
    """A structurally hashed XOR-AND-inverter graph."""

    def __init__(self, name: str = "xag") -> None:
        self.name = name
        self._nodes: list[_XagNode] = [_XagNode(XagNodeKind.CONSTANT)]
        self._pis: list[int] = []
        self._pos: list[Signal] = []
        self._po_names: list[str | None] = []
        self._strash: dict[tuple[XagNodeKind, Signal, Signal], int] = {}

    # --- construction -----------------------------------------------------
    def get_constant(self, value: bool) -> Signal:
        """Signal of constant false/true."""
        return make_signal(0, value)

    def create_pi(self, name: str | None = None) -> Signal:
        """Add a primary input; returns its signal."""
        index = len(self._nodes)
        self._nodes.append(_XagNode(XagNodeKind.PI, name=name))
        self._pis.append(index)
        return make_signal(index)

    def create_not(self, signal: Signal) -> Signal:
        """Complement a signal (free in an inverter graph)."""
        return signal ^ 1

    def _create_binary(
        self, kind: XagNodeKind, a: Signal, b: Signal
    ) -> Signal:
        if a > b:
            a, b = b, a
        key = (kind, a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(_XagNode(kind, a, b))
            self._strash[key] = node
        return make_signal(node)

    def create_and(self, a: Signal, b: Signal) -> Signal:
        """AND of two signals, with constant/trivial-case propagation."""
        if a == b:
            return a
        if a == (b ^ 1):
            return self.get_constant(False)
        if a == self.get_constant(False) or b == self.get_constant(False):
            return self.get_constant(False)
        if a == self.get_constant(True):
            return b
        if b == self.get_constant(True):
            return a
        return self._create_binary(XagNodeKind.AND, a, b)

    def create_xor(self, a: Signal, b: Signal) -> Signal:
        """XOR of two signals, with constant/trivial-case propagation.

        Complements are pulled out of the node so structurally equal XORs
        hash to the same node regardless of edge polarities.
        """
        if a == b:
            return self.get_constant(False)
        if a == (b ^ 1):
            return self.get_constant(True)
        if signal_node(a) == 0:
            return b ^ (a & 1)
        if signal_node(b) == 0:
            return a ^ (b & 1)
        polarity = (a & 1) ^ (b & 1)
        return self._create_binary(XagNodeKind.XOR, a & ~1, b & ~1) ^ polarity

    def create_or(self, a: Signal, b: Signal) -> Signal:
        """OR via De Morgan."""
        return self.create_not(self.create_and(a ^ 1, b ^ 1))

    def create_nand(self, a: Signal, b: Signal) -> Signal:
        return self.create_not(self.create_and(a, b))

    def create_nor(self, a: Signal, b: Signal) -> Signal:
        return self.create_not(self.create_or(a, b))

    def create_xnor(self, a: Signal, b: Signal) -> Signal:
        return self.create_not(self.create_xor(a, b))

    def create_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        """Majority-of-three, decomposed into AND/XOR.

        MAJ(a, b, c) = (a AND b) XOR ((a XOR b) AND c); the XAG itself has
        no majority primitive (unsupported by the Bestagon library).
        """
        ab = self.create_and(a, b)
        axb = self.create_xor(a, b)
        return self.create_xor(ab, self.create_and(axb, c))

    def create_ite(self, cond: Signal, then: Signal, other: Signal) -> Signal:
        """If-then-else (multiplexer)."""
        t = self.create_and(cond, then)
        e = self.create_and(cond ^ 1, other)
        return self.create_or(t, e)

    def create_po(self, signal: Signal, name: str | None = None) -> int:
        """Register a primary output; returns its index."""
        self._pos.append(signal)
        self._po_names.append(name)
        return len(self._pos) - 1

    # --- access -------------------------------------------------------
    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def num_gates(self) -> int:
        """Number of AND/XOR nodes (inverters are edge attributes)."""
        return len(self._nodes) - 1 - len(self._pis)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def pis(self) -> list[int]:
        return list(self._pis)

    def pos(self) -> list[Signal]:
        return list(self._pos)

    def po_name(self, index: int) -> str | None:
        return self._po_names[index]

    def pi_name(self, node: int) -> str | None:
        return self._nodes[node].name

    def kind(self, node: int) -> XagNodeKind:
        return self._nodes[node].kind

    def is_pi(self, node: int) -> bool:
        return self._nodes[node].kind is XagNodeKind.PI

    def is_constant(self, node: int) -> bool:
        return self._nodes[node].kind is XagNodeKind.CONSTANT

    def is_gate(self, node: int) -> bool:
        return self._nodes[node].kind in (XagNodeKind.AND, XagNodeKind.XOR)

    def fanins(self, node: int) -> tuple[Signal, Signal]:
        if not self.is_gate(node):
            raise ValueError(f"node {node} has no fanins")
        entry = self._nodes[node]
        return entry.fanin0, entry.fanin1

    def gates(self) -> list[int]:
        """All gate nodes in topological (creation) order."""
        return [n for n in range(len(self._nodes)) if self.is_gate(n)]

    def fanout_counts(self) -> dict[int, int]:
        """Fanout degree of each node, counting PO drivers."""
        counts = {n: 0 for n in range(len(self._nodes))}
        for node in self.gates():
            f0, f1 = self.fanins(node)
            counts[signal_node(f0)] += 1
            counts[signal_node(f1)] += 1
        for po in self._pos:
            counts[signal_node(po)] += 1
        return counts

    # --- analysis -------------------------------------------------------
    def levels(self) -> dict[int, int]:
        """Logic level of each node (PIs and constants at level 0)."""
        level: dict[int, int] = {}
        for node in range(len(self._nodes)):
            if self.is_gate(node):
                f0, f1 = self.fanins(node)
                level[node] = 1 + max(
                    level[signal_node(f0)], level[signal_node(f1)]
                )
            else:
                level[node] = 0
        return level

    def depth(self) -> int:
        """Depth of the graph: maximum PO level."""
        if not self._pos:
            return 0
        level = self.levels()
        return max(level[signal_node(po)] for po in self._pos)

    def simulate(self) -> list[TruthTable]:
        """Full truth tables of all POs over the PIs."""
        n = self.num_pis
        values: dict[int, TruthTable] = {0: TruthTable.constant(False, n)}
        for position, pi in enumerate(self._pis):
            values[pi] = TruthTable.variable(position, n)
        for node in range(len(self._nodes)):
            if not self.is_gate(node):
                continue
            f0, f1 = self.fanins(node)
            a = values[signal_node(f0)]
            if is_complemented(f0):
                a = ~a
            b = values[signal_node(f1)]
            if is_complemented(f1):
                b = ~b
            if self.kind(node) is XagNodeKind.AND:
                values[node] = a & b
            else:
                values[node] = a ^ b
        outputs = []
        for po in self._pos:
            table = values[signal_node(po)]
            if is_complemented(po):
                table = ~table
            outputs.append(table)
        return outputs

    def evaluate(self, inputs: list[bool]) -> list[bool]:
        """Evaluate all POs on one input assignment."""
        if len(inputs) != self.num_pis:
            raise ValueError("wrong number of input values")
        values: dict[int, bool] = {0: False}
        for position, pi in enumerate(self._pis):
            values[pi] = inputs[position]
        for node in range(len(self._nodes)):
            if not self.is_gate(node):
                continue
            f0, f1 = self.fanins(node)
            a = values[signal_node(f0)] ^ is_complemented(f0)
            b = values[signal_node(f1)] ^ is_complemented(f1)
            values[node] = (a and b) if self.kind(node) is XagNodeKind.AND else (a != b)
        return [values[signal_node(po)] ^ is_complemented(po) for po in self._pos]

    def cleanup(self) -> "Xag":
        """Copy without dangling nodes; preserves PI/PO order and names."""
        result = Xag(self.name)
        mapping: dict[int, Signal] = {0: result.get_constant(False)}
        for pi in self._pis:
            mapping[pi] = result.create_pi(self._nodes[pi].name)
        reachable = self._reachable_nodes()
        for node in range(len(self._nodes)):
            if not self.is_gate(node) or node not in reachable:
                continue
            f0, f1 = self.fanins(node)
            a = mapping[signal_node(f0)] ^ (f0 & 1)
            b = mapping[signal_node(f1)] ^ (f1 & 1)
            if self.kind(node) is XagNodeKind.AND:
                mapping[node] = result.create_and(a, b)
            else:
                mapping[node] = result.create_xor(a, b)
        for index, po in enumerate(self._pos):
            signal = mapping[signal_node(po)] ^ (po & 1)
            result.create_po(signal, self._po_names[index])
        return result

    # --- (de)serialization ------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready structural dump; exact inverse of :meth:`from_dict`.

        The node list is stored verbatim (including any dangling nodes),
        so a round-tripped graph reports identical node/gate counts --
        the property the design-service artifact store relies on.
        """
        return {
            "name": self.name,
            "nodes": [
                [node.kind.value, node.fanin0, node.fanin1, node.name]
                for node in self._nodes
            ],
            "pis": list(self._pis),
            "pos": list(self._pos),
            "po_names": list(self._po_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Xag":
        """Rebuild a graph dumped by :meth:`to_dict` (strash included)."""
        xag = cls(str(data.get("name", "xag")))
        xag._nodes = [
            _XagNode(XagNodeKind(kind), fanin0, fanin1, name)
            for kind, fanin0, fanin1, name in data["nodes"]
        ]
        xag._pis = [int(pi) for pi in data["pis"]]
        xag._pos = [int(po) for po in data["pos"]]
        xag._po_names = list(data["po_names"])
        for index, node in enumerate(xag._nodes):
            if node.kind in (XagNodeKind.AND, XagNodeKind.XOR):
                xag._strash[(node.kind, node.fanin0, node.fanin1)] = index
        return xag

    def _reachable_nodes(self) -> set[int]:
        """Nodes in the transitive fanin of some PO."""
        reachable: set[int] = set()
        stack = [signal_node(po) for po in self._pos]
        while stack:
            node = stack.pop()
            if node in reachable:
                continue
            reachable.add(node)
            if self.is_gate(node):
                f0, f1 = self.fanins(node)
                stack.append(signal_node(f0))
                stack.append(signal_node(f1))
        return reachable

    def __repr__(self) -> str:
        return (
            f"Xag(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"gates={self.num_gates}, depth={self.depth()})"
        )
