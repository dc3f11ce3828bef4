"""SAT solving substrate.

The paper's flow leans on SAT/SMT engines in three places: SAT-based exact
physical design (flow step 4), SAT-based equivalence checking (step 5) and
the exact-synthesis NPN database behind cut rewriting (step 2).  Since no
external solver is available in this environment, this package provides a
self-contained CDCL solver with watched literals, VSIDS branching, first-UIP
clause learning, phase saving and Luby restarts, plus the encoding helpers
the flow uses (Tseitin gates, at-least-one, at-most-one, exactly-one).
"""

from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolverResult
from repro.sat.encodings import (
    at_least_one,
    at_most_one,
    exactly_one,
    tseitin_and,
    tseitin_or,
    tseitin_xor,
)

__all__ = [
    "Cnf",
    "Solver",
    "SolverResult",
    "at_least_one",
    "at_most_one",
    "exactly_one",
    "tseitin_and",
    "tseitin_or",
    "tseitin_xor",
]
