"""Standard CNF encoding gadgets.

Tseitin gate encodings plus the cardinality constraints used by the exact
physical design encoding (at-most-one tile occupancy).
"""

from __future__ import annotations

from typing import Sequence

from repro.sat.cnf import Cnf


# --- Tseitin gate encodings ------------------------------------------------
def tseitin_and(cnf: Cnf, output: int, inputs: Sequence[int]) -> None:
    """output <-> AND(inputs)."""
    for literal in inputs:
        cnf.add_clause([-output, literal])
    cnf.add_clause([output] + [-literal for literal in inputs])


def tseitin_or(cnf: Cnf, output: int, inputs: Sequence[int]) -> None:
    """output <-> OR(inputs)."""
    for literal in inputs:
        cnf.add_clause([output, -literal])
    cnf.add_clause([-output] + list(inputs))


def tseitin_xor(cnf: Cnf, output: int, a: int, b: int) -> None:
    """output <-> a XOR b."""
    cnf.add_clause([-output, a, b])
    cnf.add_clause([-output, -a, -b])
    cnf.add_clause([output, -a, b])
    cnf.add_clause([output, a, -b])


def tseitin_equal(cnf: Cnf, a: int, b: int) -> None:
    """a <-> b."""
    cnf.add_clause([-a, b])
    cnf.add_clause([a, -b])


# --- cardinality constraints -------------------------------------------------
def at_least_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """At least one of the literals is true."""
    cnf.add_clause(literals)


def at_most_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """At most one literal true.

    Pairwise encoding for small sets, commander-style sequential encoding
    (with auxiliary variables) beyond six literals.
    """
    literals = list(literals)
    n = len(literals)
    if n <= 1:
        return
    if n <= 6:
        for i in range(n):
            for j in range(i + 1, n):
                cnf.add_clause([-literals[i], -literals[j]])
        return
    # Sequential encoding: s_i == "some literal among the first i+1 is true".
    registers = cnf.new_vars(n - 1)
    cnf.add_clause([-literals[0], registers[0]])
    for i in range(1, n - 1):
        cnf.add_clause([-literals[i], registers[i]])
        cnf.add_clause([-registers[i - 1], registers[i]])
        cnf.add_clause([-literals[i], -registers[i - 1]])
    cnf.add_clause([-literals[n - 1], -registers[n - 2]])


def exactly_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """Exactly one literal true."""
    at_least_one(cnf, literals)
    at_most_one(cnf, literals)

