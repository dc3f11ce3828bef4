"""The exact NPN database (flow step 2's lookup structure).

Maps NPN-canonical functions of up to four variables to size-optimal XAG
implementations produced by SAT-based exact synthesis.  Entries are
computed on demand (with a conflict budget) and cached; functions whose
exact synthesis exceeds the budget fall back to a Shannon-decomposition
implementation so a recipe is always available.
"""

from __future__ import annotations

from repro.networks.truth_table import TruthTable
from repro.networks.xag import Signal, Xag
from repro.synthesis.exact import (
    RecipeGate,
    SynthesisSpec,
    XagRecipe,
    exact_xag_synthesis,
    _trivial_recipe,
)
from repro.synthesis.npn import NpnTransform, npn_canonical, transform_leaves


class NpnDatabase:
    """Cache of optimal XAG recipes keyed by NPN-canonical functions."""

    def __init__(
        self, max_gates: int = 12, conflict_limit: int | None = 30_000
    ) -> None:
        self.max_gates = max_gates
        self.conflict_limit = conflict_limit
        self._recipes: dict[tuple[int, int], XagRecipe] = {}
        self.lookups = 0
        self.synthesis_calls = 0

    def canonical_recipe(self, canon: TruthTable) -> XagRecipe:
        """Recipe for an already-canonical function (cached)."""
        key = (canon.num_vars, canon.bits)
        if key in self._recipes:
            return self._recipes[key]
        self.synthesis_calls += 1
        spec = SynthesisSpec(
            canon, max_gates=self.max_gates, conflict_limit=self.conflict_limit
        )
        recipe = exact_xag_synthesis(spec)
        if recipe is None:
            recipe = shannon_recipe(canon)
        self._recipes[key] = recipe
        return recipe

    def lookup(self, function: TruthTable) -> tuple[XagRecipe, NpnTransform]:
        """Recipe (for the canonical class) + transform for a function."""
        self.lookups += 1
        canon, transform = npn_canonical(function)
        return self.canonical_recipe(canon), transform

    def implement(
        self, xag: Xag, function: TruthTable, leaves: list[Signal]
    ) -> Signal:
        """Build an implementation of ``function(leaves)`` inside ``xag``."""
        recipe, transform = self.lookup(function)
        mapped = transform_leaves(
            transform, leaves, None, lambda s: xag.create_not(s)
        )
        signal = recipe.build(xag, mapped)
        if transform.output_negation:
            signal = xag.create_not(signal)
        return signal

    def implementation_size(self, function: TruthTable) -> int:
        """Gate count of the stored implementation for a function."""
        recipe, _ = self.lookup(function)
        return recipe.size


def shannon_recipe(function: TruthTable) -> XagRecipe:
    """Shannon-decomposition fallback implementation as a recipe."""
    xag = Xag("shannon")
    leaves = [xag.create_pi(f"x{i}") for i in range(function.num_vars)]
    signal = _shannon_build(xag, function, leaves, function.num_vars - 1)
    xag.create_po(signal)
    return recipe_from_xag(xag)


def _shannon_build(
    xag: Xag, function: TruthTable, leaves: list[Signal], var: int
) -> Signal:
    trivial = _trivial_recipe(function)
    if trivial is not None:
        return trivial.build(xag, leaves)
    while var >= 0 and not function.depends_on(var):
        var -= 1
    assert var >= 0
    positive = _shannon_build(xag, function.cofactor(var, True), leaves, var - 1)
    negative = _shannon_build(xag, function.cofactor(var, False), leaves, var - 1)
    return xag.create_ite(leaves[var], positive, negative)


def recipe_from_xag(xag: Xag) -> XagRecipe:
    """Convert a single-output XAG into a recipe (PIs become leaves)."""
    if xag.num_pos != 1:
        raise ValueError("recipe extraction needs a single-output XAG")
    from repro.networks.xag import XagNodeKind, is_complemented, signal_node

    pi_position = {pi: i for i, pi in enumerate(xag.pis())}
    gate_index: dict[int, int] = {}
    gates: list[RecipeGate] = []

    def operand(signal: Signal) -> tuple[int, bool]:
        node = signal_node(signal)
        if xag.is_pi(node):
            return pi_position[node], is_complemented(signal)
        return xag.num_pis + gate_index[node], is_complemented(signal)

    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        i0, n0 = operand(f0)
        i1, n1 = operand(f1)
        op = "and" if xag.kind(node) is XagNodeKind.AND else "xor"
        gate_index[node] = len(gates)
        gates.append(RecipeGate(op, i0, i1, n0, n1))

    po = xag.pos()[0]
    po_node = signal_node(po)
    if xag.is_pi(po_node):
        return XagRecipe(
            xag.num_pis, tuple(gates), -1,
            pi_position[po_node], is_complemented(po),
        )
    if xag.is_constant(po_node):
        return XagRecipe(xag.num_pis, (), -1, -2, is_complemented(po))
    return XagRecipe(
        xag.num_pis, tuple(gates), gate_index[po_node], -1, is_complemented(po)
    )
