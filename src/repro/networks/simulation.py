"""Cross-representation simulation helpers.

Provides the exhaustive equivalence predicate used by tests and by the
formal-verification package's sanity checks.  Unlike
:mod:`repro.verification`, which proves equivalence with SAT, it simply
simulates both representations.
"""

from __future__ import annotations

from typing import Protocol

from repro.networks.truth_table import TruthTable


class Simulatable(Protocol):
    """Anything with PIs/POs that can be exhaustively simulated."""

    @property
    def num_pis(self) -> int: ...

    @property
    def num_pos(self) -> int: ...

    def simulate(self) -> list[TruthTable]: ...

    def evaluate(self, inputs: list[bool]) -> list[bool]: ...


def exhaustive_equivalent(a: Simulatable, b: Simulatable) -> bool:
    """Exhaustively compare two representations (up to ~16 inputs)."""
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    return a.simulate() == b.simulate()
