"""AND-inverter graphs (AIGs).

The paper picks XAGs over AIGs "as they offer a potentially more compact
representation ... with only a slight overhead in memory consumption"
(Section 4.2).  This module provides a real AIG -- structurally hashed
AND nodes with complemented edges -- so the XAG-vs-AIG ablation compares
genuine data structures rather than an XOR-expansion estimate.
"""

from __future__ import annotations

from repro.networks.truth_table import TruthTable
from repro.networks.xag import (
    Signal,
    Xag,
    XagNodeKind,
    signal_node,
)


class Aig:
    """A structurally hashed AND-inverter graph."""

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._xag = Xag(name)  # reuse the node store, restricted to AND

    # --- construction -----------------------------------------------------
    def get_constant(self, value: bool) -> Signal:
        return self._xag.get_constant(value)

    def create_pi(self, name: str | None = None) -> Signal:
        return self._xag.create_pi(name)

    def create_not(self, signal: Signal) -> Signal:
        return signal ^ 1

    def create_and(self, a: Signal, b: Signal) -> Signal:
        return self._xag.create_and(a, b)

    def create_or(self, a: Signal, b: Signal) -> Signal:
        return self.create_not(self.create_and(a ^ 1, b ^ 1))

    def create_xor(self, a: Signal, b: Signal) -> Signal:
        """XOR decomposed into three ANDs (the AIG's handicap)."""
        both = self.create_and(a, b)
        either = self.create_or(a, b)
        return self.create_and(either, both ^ 1)

    def create_po(self, signal: Signal, name: str | None = None) -> int:
        return self._xag.create_po(signal, name)

    # --- access -------------------------------------------------------
    @property
    def num_pis(self) -> int:
        return self._xag.num_pis

    @property
    def num_pos(self) -> int:
        return self._xag.num_pos

    @property
    def num_gates(self) -> int:
        return self._xag.num_gates

    def depth(self) -> int:
        return self._xag.depth()

    def simulate(self) -> list[TruthTable]:
        return self._xag.simulate()

    def evaluate(self, inputs: list[bool]) -> list[bool]:
        return self._xag.evaluate(inputs)

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, "
            f"pos={self.num_pos}, gates={self.num_gates})"
        )


def aig_from_xag(xag: Xag) -> Aig:
    """Convert an XAG to an AIG by expanding each XOR into three ANDs."""
    aig = Aig(xag.name)
    mapping: dict[int, Signal] = {0: aig.get_constant(False)}
    for pi in xag.pis():
        mapping[pi] = aig.create_pi(xag.pi_name(pi))
    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        a = mapping[signal_node(f0)] ^ (f0 & 1)
        b = mapping[signal_node(f1)] ^ (f1 & 1)
        if xag.kind(node) is XagNodeKind.AND:
            mapping[node] = aig.create_and(a, b)
        else:
            mapping[node] = aig.create_xor(a, b)
    for index, po in enumerate(xag.pos()):
        aig.create_po(
            mapping[signal_node(po)] ^ (po & 1), xag.po_name(index)
        )
    return aig
