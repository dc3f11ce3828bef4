"""Small truth tables represented as integer bit masks.

A function of ``n`` variables is stored as the integer whose bit ``i``
holds the function value on the input assignment with binary encoding
``i`` (variable 0 is the least significant input).  This matches the
conventions of mockturtle's ``kitty`` library and is convenient for NPN
canonicalization and exact synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass


def _mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


# Truth tables of single variables for up to 6 inputs, precomputed:
# variable k of an n-variable function alternates blocks of 2^k zeros/ones.
def _projection(var: int, num_vars: int) -> int:
    bits = 0
    for i in range(1 << num_vars):
        if (i >> var) & 1:
            bits |= 1 << i
    return bits


_PROJECTIONS: dict[tuple[int, int], int] = {}


@dataclass(frozen=True)
class TruthTable:
    """An immutable Boolean function of a fixed number of variables."""

    num_vars: int
    bits: int

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        if self.num_vars > 16:
            raise ValueError("truth tables limited to 16 variables")
        object.__setattr__(self, "bits", self.bits & _mask(self.num_vars))

    # --- constructors ------------------------------------------------
    @classmethod
    def constant(cls, value: bool, num_vars: int = 0) -> "TruthTable":
        """The constant-0 or constant-1 function."""
        return cls(num_vars, _mask(num_vars) if value else 0)

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        """The projection function x_var of ``num_vars`` variables."""
        if not 0 <= var < num_vars:
            raise ValueError(f"variable {var} out of range for {num_vars} vars")
        key = (var, num_vars)
        if key not in _PROJECTIONS:
            _PROJECTIONS[key] = _projection(var, num_vars)
        return cls(num_vars, _PROJECTIONS[key])

    @classmethod
    def from_binary_string(cls, bit_string: str) -> "TruthTable":
        """Parse a truth table from its binary string, MSB first.

        The string length must be a power of two; character 0 of the
        string is the function value on the all-ones input assignment.
        """
        length = len(bit_string)
        if length & (length - 1) or length == 0:
            raise ValueError("truth table length must be a power of two")
        num_vars = length.bit_length() - 1
        return cls(num_vars, int(bit_string, 2))

    @classmethod
    def from_hex_string(cls, hex_string: str, num_vars: int) -> "TruthTable":
        """Parse a truth table from its hexadecimal string."""
        return cls(num_vars, int(hex_string, 16))

    # --- queries -------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Number of rows in the truth table."""
        return 1 << self.num_vars

    def get_bit(self, index: int) -> bool:
        """Function value on the input assignment encoded by ``index``."""
        if not 0 <= index < self.num_bits:
            raise IndexError(f"bit index {index} out of range")
        return bool((self.bits >> index) & 1)

    def evaluate(self, assignment: dict[int, bool] | list[bool]) -> bool:
        """Evaluate on a variable assignment (list or var->bool dict)."""
        index = 0
        for var in range(self.num_vars):
            value = assignment[var]
            if value:
                index |= 1 << var
        return self.get_bit(index)

    def count_ones(self) -> int:
        """Number of minterms."""
        return bin(self.bits).count("1")

    def is_constant(self) -> bool:
        return self.bits in (0, _mask(self.num_vars))

    def depends_on(self, var: int) -> bool:
        """Whether the function actually depends on variable ``var``."""
        return self.cofactor(var, False) != self.cofactor(var, True)

    def support(self) -> list[int]:
        """Variables the function actually depends on."""
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    # --- Boolean algebra ------------------------------------------------
    def _check_compatible(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("truth tables have different variable counts")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    # --- structural transforms -------------------------------------------
    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor with ``var`` fixed; result keeps num_vars."""
        projection = TruthTable.variable(var, self.num_vars).bits
        keep = projection if value else ~projection & _mask(self.num_vars)
        half = self.bits & keep
        shift = 1 << var
        if value:
            expanded = half | (half >> shift)
        else:
            expanded = half | (half << shift)
        return TruthTable(self.num_vars, expanded)

    def flip_input(self, var: int) -> "TruthTable":
        """Negate input variable ``var``."""
        shift = 1 << var
        projection = TruthTable.variable(var, self.num_vars).bits
        high = self.bits & projection
        low = self.bits & ~projection
        return TruthTable(self.num_vars, (high >> shift) | (low << shift))

    def permute_inputs(self, permutation: list[int] | tuple[int, ...]) -> "TruthTable":
        """Reorder input variables: new var ``i`` is old var ``permutation[i]``."""
        if sorted(permutation) != list(range(self.num_vars)):
            raise ValueError("not a permutation of the variables")
        bits = 0
        for index in range(self.num_bits):
            if not (self.bits >> index) & 1:
                continue
            new_index = 0
            for new_var, old_var in enumerate(permutation):
                if (index >> old_var) & 1:
                    new_index |= 1 << new_var
            bits |= 1 << new_index
        return TruthTable(self.num_vars, bits)

    def extend_to(self, num_vars: int) -> "TruthTable":
        """View the function as one of more variables (new vars ignored)."""
        if num_vars < self.num_vars:
            raise ValueError("cannot shrink a truth table with extend_to")
        bits = self.bits
        width = self.num_bits
        for _ in range(num_vars - self.num_vars):
            bits = bits | (bits << width)
            width <<= 1
        return TruthTable(num_vars, bits)

    def shrink_to_support(self) -> tuple["TruthTable", list[int]]:
        """Project onto the support; returns (smaller table, support vars)."""
        support = self.support()
        table = self
        # Repeatedly remove the highest-numbered irrelevant variable.
        for var in reversed(range(self.num_vars)):
            if var in support:
                continue
            table = table._remove_variable(var)
        return table, support

    def _remove_variable(self, var: int) -> "TruthTable":
        """Drop an irrelevant variable (must not be in the support)."""
        bits = 0
        out = 0
        for index in range(self.num_bits):
            if (index >> var) & 1:
                continue
            if (self.bits >> index) & 1:
                bits |= 1 << out
            out += 1
        return TruthTable(self.num_vars - 1, bits)

    # --- formatting -----------------------------------------------------
    def to_binary_string(self) -> str:
        return format(self.bits, f"0{self.num_bits}b")

    def to_hex_string(self) -> str:
        digits = max(1, self.num_bits // 4)
        return format(self.bits, f"0{digits}x")

    def __str__(self) -> str:
        return self.to_binary_string()
