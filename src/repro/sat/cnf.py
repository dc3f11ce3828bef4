"""CNF formula container.

Literals follow the DIMACS convention: variables are positive integers,
a negative integer denotes the negated variable.  Zero is never a literal.
"""

from __future__ import annotations

from typing import Iterable


class Cnf:
    """A CNF formula under construction."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; registers any variables beyond ``num_vars``."""
        clause = list(literals)
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a literal")
            self.num_vars = max(self.num_vars, abs(literal))
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"Cnf(vars={self.num_vars}, clauses={self.num_clauses})"
