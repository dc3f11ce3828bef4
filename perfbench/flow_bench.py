"""Flow workloads: Table-1 designs from Verilog to a verified ``.sqd``.

The untraced pass calls :func:`design_sidb_circuit` with the default
configuration (a fresh NPN database and Bestagon library per design, as
``repro synth`` does) and tracing off.  The traced pass drives the same
public step functions that ``design_sidb_circuit`` calls, one after
another, and times each call; it must reproduce the untraced result
exactly (same W x H, byte-identical ``.sqd``), which every traced run
checks.  The traced pass runs exact placement only: a design that
needed the flow's heuristic fallback shows up as an unfaithful item.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from harness import (
    ItemRow, PassResult, cpu_clock, patched, run_items, sum_counters, timed,
)

import repro.physical_design.exact as exact_module
from repro.flow import FlowConfiguration, design_sidb_circuit
from repro.gatelib.apply import apply_library
from repro.gatelib.library import BestagonLibrary
from repro.layout.drc import check_layout
from repro.layout.gate_layout import GateLevelLayout
from repro.layout.supertile import merge_into_supertiles
from repro.networks import benchmark_verilog
from repro.networks.logic_network import GateType, LogicNetwork
from repro.networks.verilog import parse_verilog
from repro.networks.xag import Xag
from repro.physical_design.exact import ExactPhysicalDesign, ExactStatistics
from repro.sat import Solver, SolverResult
from repro.sqd.sqd import read_sqd, write_sqd
from repro.synthesis.database import NpnDatabase
from repro.synthesis.mapping import map_to_bestagon
from repro.synthesis.rewrite import cut_rewrite
from repro.verification.bdd import bdd_equivalent
from repro.verification.equivalence import (
    EquivalenceResult,
    check_layout_against_network,
)
from repro.verification.extract import extract_network
from repro.verification.miter import network_from_xag

#: The flow steps the traced pass times, in flow order.
FLOW_LAYERS = (
    "parse",
    "rewrite",
    "map",
    "place_route",
    "verify",
    "drc",
    "supertiles",
    "library",
    "sqd",
)

#: Table-1 rows left out of every workload, with the reason.
EXCLUDED_ROWS = {
    "majority_5_r1": "exact P&R exhausts its budget (PhysicalDesignError "
    "after ~63 s even under bench_table1.py's large budget)",
    "cm82a_5": "exact P&R exhausts its budget (PhysicalDesignError "
    "after ~11 s even under bench_table1.py's large budget)",
}


@dataclass
class DesignOutput:
    """What the output checks and the faithfulness check look at."""

    name: str
    specification: Xag
    layout: GateLevelLayout
    sqd: str
    num_sidbs: int
    equivalence: EquivalenceResult | None
    #: Per-candidate (W, H, outcome, conflicts, CNF vars, CNF clauses);
    #: traced passes only.
    candidates: tuple = ()


def _design(name: str, verilog: str) -> DesignOutput:
    result = design_sidb_circuit(verilog, name, FlowConfiguration(trace=False))
    return DesignOutput(
        name,
        result.specification,
        result.layout,
        result.sqd,
        result.num_sidbs,
        result.equivalence,
    )


def _timed_solver(row: ItemRow, propagations: list[int]) -> type:
    """A :class:`Solver` that times UNSAT solves and counts propagations."""

    class TimedSolver(Solver):
        def solve(self, assumptions=()):
            start = cpu_clock()
            outcome = super().solve(assumptions)
            if outcome is SolverResult.UNSAT:
                row.spans.setdefault("place_route.unsat_cpu_s", []).append(
                    (start, cpu_clock())
                )
            propagations.append(self.propagations)
            return outcome

    return TimedSolver


def _traced_design(name: str, verilog: str, row: ItemRow) -> DesignOutput:
    """``design_sidb_circuit`` step by step, each step timed."""
    config = FlowConfiguration(trace=False)
    with timed(row, "parse.cpu_s"):
        xag = parse_verilog(verilog, name)
    with timed(row, "rewrite.cpu_s"):
        database = config.database or NpnDatabase()
        optimized = cut_rewrite(xag, database)
    with timed(row, "map.cpu_s"):
        mapped = map_to_bestagon(optimized)
    statistics = ExactStatistics()
    propagations: list[int] = []
    with timed(row, "place_route.cpu_s"), patched(
        exact_module, "Solver", _timed_solver(row, propagations)
    ):
        layout = ExactPhysicalDesign(
            max_width=config.exact_max_width,
            extra_rows=config.exact_extra_rows,
            conflict_limit=config.exact_conflict_limit,
            clocking=config.clocking,
            time_limit_seconds=config.exact_time_limit_seconds,
            defects=config.defects,
        ).run(mapped, statistics)
    with timed(row, "verify.cpu_s"):
        equivalence = check_layout_against_network(
            xag, layout, config.verify_conflict_limit
        )
    with timed(row, "drc.cpu_s"):
        check_layout(layout)
    with timed(row, "supertiles.cpu_s"):
        merge_into_supertiles(layout, config.design_rules)
    with timed(row, "library.cpu_s"):
        sidb_layout = apply_library(layout, config.library or BestagonLibrary())
    with timed(row, "sqd.cpu_s"):
        sqd = write_sqd(sidb_layout, name, config.defects)

    row.spans.setdefault("place_route.unsat_cpu_s", [])
    row.counters.update(
        {
            "rewrite.synthesis_calls": database.synthesis_calls,
            "rewrite.lookups": database.lookups,
            "rewrite.gates_out": optimized.num_gates,
            "map.nodes": mapped.num_nodes,
            "place_route.candidates": len(statistics.attempts),
            "place_route.unsat_candidates": sum(
                attempt.outcome == "unsat" for attempt in statistics.attempts
            ),
            "place_route.conflicts": statistics.sat_conflicts,
            "place_route.propagations": sum(propagations),
            "place_route.cnf_vars": statistics.sat_variables,
            "place_route.cnf_clauses": statistics.sat_clauses,
            "verify.conflicts": equivalence.conflicts,
            "library.sidbs": len(sidb_layout),
            "sqd.bytes": len(sqd),
        }
    )
    candidates = tuple(
        (a.width, a.height, a.outcome, a.sat_conflicts, a.sat_variables,
         a.sat_clauses)
        for a in statistics.attempts
    )
    return DesignOutput(
        name, xag, layout, sqd, len(sidb_layout), equivalence, candidates
    )


def _in_spec_pin_order(
    extracted: LogicNetwork, specification: LogicNetwork
) -> LogicNetwork:
    """``extracted`` with its PIs and POs in the specification's order.

    Pins are matched by name, as the SAT miter matches them; without a
    one-to-one name match the layout's left-to-right order stands.
    """
    def by_name(network: LogicNetwork, pins: list[int]) -> dict:
        return {network.node_name(pin): pin for pin in pins}

    pis = by_name(extracted, extracted.pis())
    pos = by_name(extracted, extracted.pos())
    spec_pis = [specification.node_name(pi) for pi in specification.pis()]
    spec_pos = [specification.node_name(po) for po in specification.pos()]
    if sorted(pis, key=str) != sorted(spec_pis, key=str) or sorted(
        pos, key=str
    ) != sorted(spec_pos, key=str) or None in pis or None in pos:
        return extracted
    ordered = LogicNetwork(extracted.name)
    mapping = {pis[name]: ordered.add_pi(name) for name in spec_pis}
    for node in extracted.nodes():
        gate_type = extracted.gate_type(node)
        if gate_type not in (GateType.PI, GateType.PO):
            mapping[node] = ordered.add_node(
                gate_type, [mapping[f] for f in extracted.fanins(node)]
            )
    for name in spec_pos:
        (source,) = extracted.fanins(pos[name])
        ordered.add_po(mapping[source], name)
    return ordered


def check_design(output: DesignOutput) -> list[str]:
    """Output checks, independent of the flow's own verdicts."""
    problems = []
    verdict = output.equivalence.verdict if output.equivalence else "skipped"
    if verdict != "equivalent":
        problems.append(f"SAT miter verdict {verdict}")
    extracted = _in_spec_pin_order(
        extract_network(output.layout), network_from_xag(output.specification)
    )
    if not bdd_equivalent(output.specification, extracted):
        problems.append("BDD: layout function differs from the specification")
    violations = check_layout(output.layout)
    if violations:
        problems.append(f"{len(violations)} DRC violations")
    if not output.layout.is_path_balanced():
        problems.append("layout is not path-balanced")
    dots = len(read_sqd(output.sqd)) if output.sqd else 0
    if dots == 0 or dots != output.num_sidbs:
        problems.append(f".sqd holds {dots} dots, layout {output.num_sidbs}")
    return problems


@dataclass(frozen=True)
class FlowWorkload:
    name: str
    designs: tuple[str, ...]
    predicted_layer: str
    #: Table-1 rows deliberately left out, with the reason.
    excluded: dict[str, str] = field(default_factory=dict)
    #: Designs of the untimed warm-up pass; empty means ``designs``.
    warmup: tuple[str, ...] = ()

    def setup(self) -> dict[str, str]:
        """What a fresh ``repro`` process builds before its first design."""
        FlowConfiguration(trace=False)
        NpnDatabase()
        BestagonLibrary()
        return {
            name: benchmark_verilog(name)
            for name in self.designs + self.warmup
        }

    def warmup_items(self, items: list[str]) -> list[str]:
        return list(self.warmup) or items

    def items(self, seed: int) -> list[str]:
        order = list(self.designs)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, inputs: dict[str, str], items, seed) -> PassResult:
        return run_items(items, lambda name, row: _design(name, inputs[name]))

    def traced_pass(self, inputs: dict[str, str], items, seed) -> PassResult:
        result = run_items(
            items, lambda name, row: _traced_design(name, inputs[name], row)
        )
        result.layers = sum_counters(result.rows)
        cpu = result.layers.get("place_route.cpu_s", 0.0)
        result.layers["place_route.unsat_share"] = (
            result.layers.get("place_route.unsat_cpu_s", 0.0) / cpu if cpu else 0.0
        )
        return result

    def leaf_layers(self, layers: dict[str, float]) -> dict[str, float]:
        """Disjoint layer CPU times (they sum to the attributed CPU)."""
        return {layer: layers.get(f"{layer}.cpu_s", 0.0) for layer in FLOW_LAYERS}

    check = staticmethod(check_design)

    @staticmethod
    def unfaithful(traced: DesignOutput, untraced: DesignOutput) -> list[str]:
        problems = []
        traced_size = (traced.layout.width, traced.layout.height)
        if traced_size != (untraced.layout.width, untraced.layout.height):
            problems.append(
                f"traced {traced.layout.width}x{traced.layout.height} vs "
                f"flow {untraced.layout.width}x{untraced.layout.height}"
            )
        if traced.sqd != untraced.sqd:
            problems.append("traced .sqd differs from the flow's")
        return problems

    @staticmethod
    def fingerprint(result: PassResult) -> dict:
        counts = {}
        for row in result.rows:
            if row.output is None:
                continue
            output: DesignOutput = row.output
            counts[f"{row.name}.candidates"] = output.candidates
            counts[f"{row.name}.area_tiles"] = output.layout.num_tiles
            counts[f"{row.name}.sidbs"] = output.num_sidbs
            for key in ("rewrite.synthesis_calls", "rewrite.lookups",
                        "verify.conflicts"):
                counts[f"{row.name}.{key}"] = row.counters.get(key)
        return counts

    @staticmethod
    def headline(rows: list[ItemRow], passed: set[str]) -> dict[str, int]:
        placed = [row.output for row in rows if row.output is not None]
        return {
            "area_tiles": sum(o.layout.num_tiles for o in placed),
            "sidbs": sum(o.num_sidbs for o in placed),
            # Input patterns proven correct by both the SAT miter and BDDs.
            "patterns_correct": sum(
                1 << o.specification.num_pis for o in placed if o.name in passed
            ),
            # Designs that pass every output check.
            "tiles_operational": sum(o.name in passed for o in placed),
        }

    @staticmethod
    def describe(row: ItemRow) -> str:
        output: DesignOutput | None = row.output
        if output is None:
            return "-"
        text = (
            f"{output.layout.width}x{output.layout.height} "
            f"A={output.layout.num_tiles} sidbs={output.num_sidbs} "
            f"sqd={len(output.sqd)}B"
        )
        if row.counters:
            text += (
                f" synth={row.counters['rewrite.synthesis_calls']}"
                f" rewrite={row.counters['rewrite.cpu_s']:.3f}s"
                f" p&r={row.counters['place_route.cpu_s']:.3f}s"
                " candidates=" + ",".join(
                    f"{w}x{h}:{outcome}/{conflicts}c"
                    for w, h, outcome, conflicts, _, _ in output.candidates
                )
            )
        return text


TABLE1 = FlowWorkload(
    "table1",
    (
        "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
        "xor5_majority", "t", "t_5", "c17", "majority",
    ),
    predicted_layer="rewrite",
    excluded=EXCLUDED_ROWS,
)
#: newtag takes 12-20 s a pass; its warm-up runs the whole flow, UNSAT
#: P&R proofs included, on a smaller design (t_5: 5x8 UNSAT, 5x9 SAT).
PNR_UNSAT = FlowWorkload(
    "pnr_unsat", ("newtag",), predicted_layer="place_route", warmup=("t_5",)
)
