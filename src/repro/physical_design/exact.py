"""SAT-based exact placement & routing on hexagonal floor plans.

Hexagonal adaptation of the *exact* physical design method [Walter
DATE'18] called by flow step 4.  For a candidate layout of ``W x H``
tiles under feed-forward clocking (row-based Columnar: every row is one
clock stage, signals move strictly to the SW/SE neighbors), the engine
encodes into CNF:

* **placement** -- every network node occupies exactly one tile, its row
  constrained to the node's ASAP/ALAP window (PIs pinned to the first
  row, POs to the last, which balances all signal paths and yields the
  paper's 1/1 throughput);
* **routing** -- every edge becomes a chain of wire segments, one per
  intermediate row, each adjacent to its predecessor;
* **port discipline** -- operands of a gate arrive through *different*
  north borders, the two consumers of a fan-out leave through different
  south borders;
* **capacity** -- a tile holds one gate, or up to two wire segments
  entering/leaving through distinct borders, i.e. exactly the Bestagon
  *crossing* (NW->SE / NE->SW) and *double wire* (NW->SW / NE->SE) tiles.

Candidate dimensions are tried in order of increasing area, so the first
satisfiable candidate minimizes the layout area (the Table-1 ``A``
column).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.coords.hexagonal import HexCoord, HexDirection
from repro.defects.exclusion import blocked_tiles
from repro.layout.clocking import ClockingScheme, columnar_rows
from repro.layout.gate_layout import (
    GateLevelLayout,
    TileContent,
    TileKind,
    cross_tile,
    double_wire_tile,
    wire_tile,
)
from repro.networks.logic_network import GateType, LogicNetwork
from repro.physical_design.common import north_columns, south_columns
from repro.sat import Cnf, Solver, SolverResult
from repro.sat.encodings import at_most_one, exactly_one


class PhysicalDesignError(RuntimeError):
    """Raised when no layout could be found within the search limits.

    Raised by :meth:`ExactPhysicalDesign.run` after candidates were
    tried, it carries their records in ``attempts``, and its message
    names what they proved and the area lower bound that follows.
    A failed flow run sets ``trace`` to its partial trace, the root
    span of the steps that ran up to the failure.
    """

    def __init__(
        self, message: str, attempts: Sequence[CandidateAttempt] = ()
    ) -> None:
        super().__init__(message)
        self.attempts = list(attempts)
        self.trace: obs.Span | None = None


class PhysicalDesignTimeoutError(PhysicalDesignError):
    """The wall-clock ``time_limit_seconds`` ran out mid-search."""


class PhysicalDesignBudgetError(PhysicalDesignError):
    """Every remaining candidate exhausted its conflict budget.

    Distinct from the plain "no layout" outcome: the search proved
    nothing -- a layout may well exist under a larger
    ``conflict_limit``.
    """


@dataclass
class CandidateAttempt:
    """Per-(W, H)-candidate record of one encoding/solving attempt."""

    width: int
    height: int
    sat_variables: int = 0
    sat_clauses: int = 0
    sat_conflicts: int = 0
    outcome: str = ""  # "sat" | "unsat" | "timeout" | "infeasible"
    seconds: float = 0.0


def _search_summary(
    candidates: Sequence[tuple[int, int]],
    attempts: Sequence[CandidateAttempt],
) -> str:
    """What the attempts proved, and the area lower bound it gives.

    Candidates come in order of increasing area, so the first one not
    proven impossible bounds the area of any layout within the searched
    floor plans from below.
    """
    proven = {
        (a.width, a.height)
        for a in attempts
        if a.outcome in ("unsat", "infeasible")
    }
    parts = []
    for label, outcome in (("proven UNSAT", "unsat"), ("timed out", "timeout")):
        named = [
            f"{a.width}x{a.height} ({a.sat_conflicts} conflicts)"
            for a in attempts
            if a.outcome == outcome
        ]
        if named:
            parts.append(f"{label}: " + ", ".join(named))
    open_candidates = [wh for wh in candidates if wh not in proven]
    if open_candidates:
        width, height = open_candidates[0]
        parts.append(
            f"area lower bound: {width * height} tiles ({width}x{height} "
            "is the smallest candidate not proven UNSAT)"
        )
    else:
        parts.append("every candidate proven UNSAT")
    return "; ".join(parts)


@dataclass
class ExactStatistics:
    """Bookkeeping of an exact physical design run.

    ``sat_variables``/``sat_clauses``/``sat_conflicts`` are **totals**
    over all candidates tried; per-candidate figures live in
    ``attempts`` (and, when observability is enabled, on one
    ``exact.candidate`` span each).
    """

    candidates_tried: list[tuple[int, int]] = field(default_factory=list)
    attempts: list[CandidateAttempt] = field(default_factory=list)
    sat_variables: int = 0
    sat_clauses: int = 0
    sat_conflicts: int = 0
    width: int = 0
    height: int = 0
    wire_tiles: int = 0
    #: Tiles blacklisted by defect exclusion zones in the *winning*
    #: candidate (0 on pristine surfaces).
    blocked_tiles: int = 0
    #: Candidates that came back UNSAT while tiles were blacklisted --
    #: the searches the defects forced onto other floor plans.
    defect_reroutes: int = 0


@dataclass
class _Problem:
    """Derived data of one (network, W, H) encoding attempt."""

    network: LogicNetwork
    width: int
    height: int
    asap: dict[int, int]
    alap: dict[int, int]
    edges: list[tuple[int, int]]  # (source, target) node pairs
    #: Tile positions blacklisted by defect exclusion zones.
    blocked: frozenset[tuple[int, int]] = frozenset()


def _compute_windows(
    network: LogicNetwork, height: int
) -> tuple[dict[int, int], dict[int, int]] | None:
    """ASAP/ALAP row windows; None if the height is infeasible."""
    asap: dict[int, int] = {}
    for node in network.nodes():
        fanins = network.fanins(node)
        asap[node] = 0 if not fanins else 1 + max(asap[f] for f in fanins)
    alap: dict[int, int] = {}
    fanouts = network.fanouts()
    for node in reversed(list(network.nodes())):
        gate_type = network.gate_type(node)
        if gate_type is GateType.PO:
            alap[node] = height - 1
        else:
            consumers = fanouts[node]
            alap[node] = (
                height - 1
                if not consumers
                else min(alap[c] for c in consumers) - 1
            )
        if gate_type is GateType.PI:
            alap[node] = 0
    for node in network.nodes():
        if asap[node] > alap[node]:
            return None
    return asap, alap


def minimum_height(network: LogicNetwork) -> int:
    """Smallest feasible number of rows (the network depth + 1)."""
    asap: dict[int, int] = {}
    for node in network.nodes():
        fanins = network.fanins(node)
        asap[node] = 0 if not fanins else 1 + max(asap[f] for f in fanins)
    return max(asap.values(), default=0) + 1


class ExactPhysicalDesign:
    """Exact placement & routing engine."""

    def __init__(
        self,
        max_width: int = 24,
        extra_rows: int = 2,
        conflict_limit: int | None = 500_000,
        clocking: ClockingScheme | None = None,
        time_limit_seconds: float | None = None,
        defects=None,
    ) -> None:
        self.max_width = max_width
        self.extra_rows = extra_rows
        self.conflict_limit = conflict_limit
        self.time_limit_seconds = time_limit_seconds
        self.defects = defects
        self.clocking = clocking or columnar_rows()
        if not self.clocking.feed_forward:
            raise PhysicalDesignError(
                f"clocking scheme {self.clocking.name!r} is not feed-forward; "
                "non-linear schemes require intra-super-tile routing "
                "(future work per the paper's Section 6)"
            )

    def run(
        self,
        network: LogicNetwork,
        statistics: ExactStatistics | None = None,
    ) -> GateLevelLayout:
        """Place & route a Bestagon-mapped network; returns the layout."""
        problems = network.check_fanout_discipline()
        if problems:
            raise PhysicalDesignError(
                "network violates fan-out discipline: " + "; ".join(problems)
            )
        statistics = statistics if statistics is not None else ExactStatistics()

        height_min = minimum_height(network)
        width_min = max(1, network.num_pis, network.num_pos)
        candidates = [
            (width, height)
            for height in range(height_min, height_min + self.extra_rows + 1)
            for width in range(width_min, self.max_width + 1)
        ]
        candidates.sort(key=lambda wh: (wh[0] * wh[1], wh[1]))

        # Defect exclusion zones, computed once on the largest floor plan
        # and cropped per candidate (tile origins are dimension-independent).
        all_blocked = blocked_tiles(
            self.max_width, height_min + self.extra_rows + 1, self.defects
        )

        deadline = (
            time.monotonic() + self.time_limit_seconds
            if self.time_limit_seconds is not None
            else None
        )
        first_attempt = len(statistics.attempts)

        def failure(
            error: type[PhysicalDesignError], message: str
        ) -> PhysicalDesignError:
            attempts = statistics.attempts[first_attempt:]
            return error(
                f"{message}; {_search_summary(candidates, attempts)}",
                attempts,
            )

        timeouts = 0
        for attempt_index, (width, height) in enumerate(candidates):
            if deadline is not None and time.monotonic() > deadline:
                raise failure(
                    PhysicalDesignTimeoutError,
                    f"time limit of {self.time_limit_seconds} s exhausted",
                )
            obs.progress(
                "exact.candidates",
                attempt_index + 1,
                len(candidates),
                width=width,
                height=height,
            )
            statistics.candidates_tried.append((width, height))
            blocked = frozenset(
                (x, y) for x, y in all_blocked if x < width and y < height
            )
            with obs.span(
                "exact.candidate", width=width, height=height
            ) as span:
                if blocked:
                    span.set("blocked", len(blocked))
                layout = self._attempt(
                    network, width, height, statistics, deadline, span,
                    blocked,
                )
            if layout is None and blocked:
                statistics.defect_reroutes += 1
                obs.add("defects.reroutes")
            if layout == "timeout":
                # A conflict-limited candidate proves nothing about the
                # *other* candidates -- larger floor plans are usually
                # easier, so keep going instead of giving up.  A blown
                # wall-clock deadline, however, ends the whole search.
                if deadline is not None and time.monotonic() > deadline:
                    raise failure(
                        PhysicalDesignTimeoutError,
                        f"time limit of {self.time_limit_seconds} s "
                        "exhausted",
                    )
                timeouts += 1
                continue
            if layout is not None:
                statistics.width = layout.width
                statistics.height = layout.height
                statistics.blocked_tiles = len(blocked)
                if blocked:
                    obs.add("defects.tiles_blacklisted", len(blocked))
                return layout
        if timeouts:
            raise failure(
                PhysicalDesignBudgetError,
                f"conflict budget of {self.conflict_limit} exhausted on "
                f"{timeouts} of {len(candidates)} candidates; no layout "
                f"found within width {self.max_width} and "
                f"{self.extra_rows} extra rows (a larger conflict_limit "
                "may still succeed)",
            )
        raise failure(
            PhysicalDesignError,
            f"no layout within width {self.max_width} and "
            f"{self.extra_rows} extra rows",
        )

    # --- one (W, H) attempt ------------------------------------------------
    def _attempt(
        self,
        network: LogicNetwork,
        width: int,
        height: int,
        statistics: ExactStatistics,
        deadline: float | None = None,
        span: "obs.Span | obs.NullSpan" = obs.NULL_SPAN,
        blocked: frozenset[tuple[int, int]] = frozenset(),
    ) -> GateLevelLayout | str | None:
        attempt = CandidateAttempt(width, height)
        statistics.attempts.append(attempt)
        started = time.perf_counter()
        try:
            windows = _compute_windows(network, height)
            if windows is None:
                attempt.outcome = "infeasible"
                return None
            asap, alap = windows
            edges = [
                (fanin, node)
                for node in network.nodes()
                for fanin in network.fanins(node)
            ]
            problem = _Problem(
                network, width, height, asap, alap, edges, blocked
            )
            encoding = _Encoding(problem)
            with obs.span("exact.encode"):
                cnf = encoding.build()
            attempt.sat_variables = cnf.num_vars
            attempt.sat_clauses = cnf.num_clauses
            statistics.sat_variables += cnf.num_vars
            statistics.sat_clauses += cnf.num_clauses
            span.set("sat.variables", cnf.num_vars)
            span.set("sat.clauses", cnf.num_clauses)
            # Per-candidate CNF size distribution over the whole search.
            obs.observe("exact.cnf_clauses", cnf.num_clauses)
            obs.event(
                "exact.attempt",
                width=width,
                height=height,
                clauses=cnf.num_clauses,
            )

            solver = Solver(cnf)
            solver.max_conflicts = self.conflict_limit
            solver.deadline = deadline
            outcome = solver.solve()
            attempt.sat_conflicts = solver.conflicts
            statistics.sat_conflicts += solver.conflicts
            if outcome is SolverResult.UNKNOWN:
                attempt.outcome = "timeout"
                return "timeout"
            if outcome is SolverResult.UNSAT:
                attempt.outcome = "unsat"
                return None
            attempt.outcome = "sat"
            return self._decode(problem, encoding, solver, statistics)
        finally:
            attempt.seconds = time.perf_counter() - started
            span.set("outcome", attempt.outcome or "error")

    # --- decoding ----------------------------------------------------------
    def _decode(
        self,
        problem: _Problem,
        encoding: "_Encoding",
        solver: Solver,
        statistics: ExactStatistics,
    ) -> GateLevelLayout:
        network = problem.network
        layout = GateLevelLayout(
            problem.width, problem.height, self.clocking, network.name
        )
        layout.source_network = network  # type: ignore[attr-defined]

        place_of: dict[int, HexCoord] = {}
        for node in network.nodes():
            for (x, y), var in encoding.gate_vars[node].items():
                if solver.model_value(var):
                    place_of[node] = HexCoord(x, y)
                    break
            else:
                raise PhysicalDesignError(f"node {node} not placed in model")

        # Trace every edge's wire chain.
        chains: dict[tuple[int, int], list[HexCoord]] = {}
        for edge in problem.edges:
            source, target = edge
            segments = []
            for (x, r), var in encoding.segment_vars.get(edge, {}).items():
                if solver.model_value(var):
                    segments.append(HexCoord(x, r))
            segments.sort(key=lambda c: c.y)
            chains[edge] = (
                [place_of[source]] + segments + [place_of[target]]
            )
            for first, second in zip(chains[edge], chains[edge][1:]):
                if first.direction_to(second) is None:
                    raise PhysicalDesignError(
                        f"edge {edge} chain broken between {first} and {second}"
                    )

        # Occupancy of wire tiles: (coord) -> list of (edge, prev, next).
        wire_occupancy: dict[HexCoord, list[tuple[tuple[int, int], HexCoord, HexCoord]]] = {}
        for edge, chain in chains.items():
            for index in range(1, len(chain) - 1):
                coord = chain[index]
                wire_occupancy.setdefault(coord, []).append(
                    (edge, chain[index - 1], chain[index + 1])
                )

        # Place gates.
        for node, coord in place_of.items():
            input_dirs = []
            for fanin in network.fanins(node):
                chain = chains[(fanin, node)]
                direction = coord.direction_to(chain[-2])
                assert direction is not None
                input_dirs.append(direction)
            output_dirs = []
            for consumer_edge in [e for e in problem.edges if e[0] == node]:
                chain = chains[consumer_edge]
                direction = coord.direction_to(chain[1])
                assert direction is not None
                output_dirs.append(direction)
            layout.place(
                coord,
                TileContent(
                    TileKind.GATE,
                    network.gate_type(node),
                    (node,),
                    tuple(input_dirs),
                    tuple(output_dirs),
                    label=network.node_name(node),
                ),
            )

        # Place wire tiles.
        for coord, entries in wire_occupancy.items():
            if len(entries) == 1:
                (edge, previous, following) = entries[0]
                in_dir = coord.direction_to(previous)
                out_dir = coord.direction_to(following)
                assert in_dir is not None and out_dir is not None
                layout.place(coord, wire_tile(edge[0], in_dir, out_dir))
                statistics.wire_tiles += 1
            elif len(entries) == 2:
                first, second = entries
                if coord.direction_to(first[1]) is HexDirection.NORTH_EAST:
                    first, second = second, first
                out_dir = coord.direction_to(first[2])
                if out_dir is HexDirection.SOUTH_EAST:
                    layout.place(coord, cross_tile(first[0][0], second[0][0]))
                else:
                    layout.place(
                        coord, double_wire_tile(first[0][0], second[0][0])
                    )
                statistics.wire_tiles += 1
            else:
                raise PhysicalDesignError(
                    f"tile {coord} carries {len(entries)} wire segments"
                )
        return layout


class _Encoding:
    """CNF encoding of one placement & routing attempt."""

    def __init__(self, problem: _Problem) -> None:
        self.problem = problem
        self.cnf = Cnf()
        # gate_vars[node][(x, y)] -> SAT variable
        self.gate_vars: dict[int, dict[tuple[int, int], int]] = {}
        # segment_vars[edge][(x, r)] -> SAT variable
        self.segment_vars: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        # through_vars[edge][(x, r)] -> SAT variable (segment or endpoint)
        self.through_vars: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        # ge_vars[node][r] <-> "node's row >= r" (order encoding)
        self.ge_vars: dict[int, dict[int, int]] = {}

    # --- variable layers -----------------------------------------------
    def build(self) -> Cnf:
        problem = self.problem
        cnf = self.cnf
        network = problem.network
        width = problem.width

        for node in network.nodes():
            placements = {}
            for y in range(problem.asap[node], problem.alap[node] + 1):
                for x in range(width):
                    placements[(x, y)] = cnf.new_var()
            self.gate_vars[node] = placements
            exactly_one(cnf, list(placements.values()))

        # Order-encoded row indicators: ge_vars[n][r] <-> row(n) >= r.
        for node in network.nodes():
            rows = range(problem.asap[node] + 1, problem.alap[node] + 1)
            self.ge_vars[node] = {r: cnf.new_var() for r in rows}
            ge = self.ge_vars[node]
            for r in rows:
                if r - 1 in ge:
                    cnf.add_clause([-ge[r], ge[r - 1]])
            for (x, y), gvar in self.gate_vars[node].items():
                if y in ge:
                    cnf.add_clause([-gvar, ge[y]])
                if y + 1 in ge:
                    cnf.add_clause([-gvar, -ge[y + 1]])

        def ge_literal(node: int, r: int) -> int | bool:
            """Literal (or constant) for "row(node) >= r"."""
            if r <= problem.asap[node]:
                return True
            if r > problem.alap[node]:
                return False
            return self.ge_vars[node][r]

        for edge in problem.edges:
            source, target = edge
            segments: dict[tuple[int, int], int] = {}
            for r in range(problem.asap[source] + 1, problem.alap[target]):
                for x in range(width):
                    segments[(x, r)] = cnf.new_var()
            self.segment_vars[edge] = segments
            # At most one segment per row.
            for r in range(problem.asap[source] + 1, problem.alap[target]):
                at_most_one(
                    cnf,
                    [segments[(x, r)] for x in range(width)],
                )
            # Segment activity window: strictly between source and target,
            # i.e. row(source) < r  and  row(target) > r.
            for (x, r), var in segments.items():
                source_ge = ge_literal(source, r)  # row(source) >= r: forbid
                if source_ge is True:
                    cnf.add_clause([-var])
                elif source_ge is not False:
                    cnf.add_clause([-var, -source_ge])
                target_ge = ge_literal(target, r + 1)  # row(target) >= r+1: require
                if target_ge is False:
                    cnf.add_clause([-var])
                elif target_ge is not True:
                    cnf.add_clause([-var, target_ge])

        # Through variables: the edge's signal occupies the tile.
        for edge in problem.edges:
            source, target = edge
            through: dict[tuple[int, int], int] = {}
            rows = range(problem.asap[source], problem.alap[target] + 1)
            for r in rows:
                for x in range(width):
                    parts = []
                    if (x, r) in self.segment_vars[edge]:
                        parts.append(self.segment_vars[edge][(x, r)])
                    if (x, r) in self.gate_vars[source]:
                        parts.append(self.gate_vars[source][(x, r)])
                    if (x, r) in self.gate_vars[target]:
                        parts.append(self.gate_vars[target][(x, r)])
                    if not parts:
                        continue
                    var = cnf.new_var()
                    for part in parts:
                        cnf.add_clause([-part, var])
                    cnf.add_clause([-var] + parts)
                    through[(x, r)] = var
            self.through_vars[edge] = through

        self._chain_constraints()
        self._border_constraints()
        self._capacity_constraints()
        self._defect_constraints()
        return cnf

    # --- defect exclusion zones ----------------------------------------
    def _defect_constraints(self) -> None:
        """Blocking clauses: no gate and no wire on a blacklisted tile.

        One unit clause per (variable, blocked tile) pair -- the solver
        eliminates them during preprocessing, so defect avoidance is
        effectively free on the SAT side; the cost shows up only as the
        larger floor plans the search may be rerouted onto.
        """
        blocked = self.problem.blocked
        if not blocked:
            return
        cnf = self.cnf
        for placements in self.gate_vars.values():
            for position, var in placements.items():
                if position in blocked:
                    cnf.add_clause([-var])
        for segments in self.segment_vars.values():
            for position, var in segments.items():
                if position in blocked:
                    cnf.add_clause([-var])

    # --- chain structure -------------------------------------------------
    def _chain_constraints(self) -> None:
        cnf = self.cnf
        width = self.problem.width
        for edge in self.problem.edges:
            source, target = edge
            through = self.through_vars[edge]
            target_positions = self.gate_vars[target]
            # Downward continuation: a through tile either *is* the target
            # or continues to a south neighbor.
            for (x, r), var in through.items():
                tail = []
                if (x, r) in target_positions:
                    tail.append(target_positions[(x, r)])
                for column in south_columns(x, r):
                    follower = through.get((column, r + 1))
                    if follower is not None:
                        tail.append(follower)
                cnf.add_clause([-var] + tail)
            # Upward driver: every wire segment is driven from the north.
            for (x, r), var in self.segment_vars[edge].items():
                drivers = [
                    through[(column, r - 1)]
                    for column in north_columns(x, r)
                    if (column, r - 1) in through
                ]
                cnf.add_clause([-var] + drivers)
            # Operand arrival: the target receives through a north border.
            for (x, y), gvar in target_positions.items():
                feeders = [
                    through[(column, y - 1)]
                    for column in north_columns(x, y)
                    if (column, y - 1) in through
                ]
                cnf.add_clause([-gvar] + feeders)

    # --- distinct borders ----------------------------------------------
    def _border_constraints(self) -> None:
        cnf = self.cnf
        network = self.problem.network
        fanouts = network.fanouts()
        for node in network.nodes():
            fanins = network.fanins(node)
            if len(fanins) == 2:
                e1 = (fanins[0], node)
                e2 = (fanins[1], node)
                for (x, y), gvar in self.gate_vars[node].items():
                    for column in north_columns(x, y):
                        a = self.through_vars[e1].get((column, y - 1))
                        b = self.through_vars[e2].get((column, y - 1))
                        if a is not None and b is not None:
                            cnf.add_clause([-gvar, -a, -b])
            consumers = fanouts[node]
            if len(consumers) == 2:
                e1 = (node, consumers[0])
                e2 = (node, consumers[1])
                for (x, y), gvar in self.gate_vars[node].items():
                    for column in south_columns(x, y):
                        a = self.through_vars[e1].get((column, y + 1))
                        b = self.through_vars[e2].get((column, y + 1))
                        if a is not None and b is not None:
                            cnf.add_clause([-gvar, -a, -b])

    # --- tile capacity -----------------------------------------------------
    def _capacity_constraints(self) -> None:
        cnf = self.cnf
        problem = self.problem
        width = problem.width
        # Collect, per tile, the gate and segment variables that may sit on it.
        gates_at: dict[tuple[int, int], list[int]] = {}
        segments_at: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
        for node, placements in self.gate_vars.items():
            for position, var in placements.items():
                gates_at.setdefault(position, []).append(var)
        for edge, segments in self.segment_vars.items():
            for position, var in segments.items():
                segments_at.setdefault(position, []).append((edge, var))

        for position in set(gates_at) | set(segments_at):
            gate_vars = gates_at.get(position, [])
            segment_entries = segments_at.get(position, [])
            # At most one gate.
            for i in range(len(gate_vars)):
                for j in range(i + 1, len(gate_vars)):
                    cnf.add_clause([-gate_vars[i], -gate_vars[j]])
            # Gates exclude wire segments.
            for gate_var in gate_vars:
                for _, segment_var in segment_entries:
                    cnf.add_clause([-gate_var, -segment_var])
            # At most two wire segments.
            n = len(segment_entries)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        cnf.add_clause(
                            [
                                -segment_entries[i][1],
                                -segment_entries[j][1],
                                -segment_entries[k][1],
                            ]
                        )
            # Two co-located segments use distinct borders on both sides.
            x, r = position
            for i in range(n):
                edge1, var1 = segment_entries[i]
                for j in range(i + 1, n):
                    edge2, var2 = segment_entries[j]
                    guard = [-var1, -var2]
                    for column in north_columns(x, r):
                        a = self.through_vars[edge1].get((column, r - 1))
                        b = self.through_vars[edge2].get((column, r - 1))
                        if a is not None and b is not None:
                            cnf.add_clause(guard + [-a, -b])
                    for column in south_columns(x, r):
                        a = self.through_vars[edge1].get((column, r + 1))
                        b = self.through_vars[edge2].get((column, r + 1))
                        if a is not None and b is not None:
                            cnf.add_clause(guard + [-a, -b])
