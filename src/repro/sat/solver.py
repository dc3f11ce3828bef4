"""A conflict-driven clause-learning (CDCL) SAT solver.

Implements the standard modern architecture: two-watched-literal
propagation, first-UIP conflict analysis with clause minimization,
exponential VSIDS branching, phase saving, Luby-sequence restarts and
length-based learnt-clause deletion.  Pure Python, tuned for the
problem sizes produced by the physical design and verification encodings
of this framework (thousands of variables, tens of thousands of clauses).

Internal literal encoding: variable ``v`` (1-based) maps to ``2*v`` for
the positive and ``2*v + 1`` for the negative literal, so negation is
``lit ^ 1``.  The value array and the watch lists are indexed by that
literal directly, and the hot loops bind the solver's arrays to locals.
"""

from __future__ import annotations

import enum
import heapq
import time
from typing import Iterable, Sequence

from repro import obs
from repro.sat.cnf import Cnf


class SolverResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


def _luby_simple(i: int) -> int:
    """Luby sequence via the classic characterization, iteratively.

    The textbook definition recurses on ``i - 2^(k-1) + 1`` whenever
    ``i`` is not of the form ``2^k - 1``; unrolled into a loop so deep
    restart counts can never hit Python's recursion limit.
    """
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


_UNASSIGNED = -1


class Solver:
    """CDCL SAT solver with incremental assumption-based solving."""

    def __init__(self, cnf: Cnf | None = None) -> None:
        self._num_vars = 0
        # value[lit] in {1 (true), 0 (false), _UNASSIGNED}; both literals
        # of a variable change together.  Variable 0 is a false dummy.
        self._value: list[int] = [0, 1]
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        # Scratch marks of _analyze, all False between calls.
        self._seen: list[bool] = [False]
        # watches[lit]: the clauses watching lit (lit is clause[0] or [1]).
        self._watches: list[list[list[int]]] = [[], []]
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        # Lazy VSIDS max-heap: entries are (-activity, var); stale
        # entries (outdated activity or already-assigned vars) are
        # skipped on pop and dropped by a rebuild once they pile up.
        self._order: list[tuple[float, int]] = []
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.max_conflicts: int | None = None
        #: Wall-clock deadline (``time.monotonic()`` timestamp); checked
        #: on entry and at restart boundaries, yielding ``UNKNOWN`` once
        #: exceeded.  ``None`` disables the check.
        self.deadline: float | None = None
        if cnf is not None:
            self.add_cnf(cnf)

    # --- problem construction -------------------------------------------
    def _ensure_var(self, var: int) -> None:
        first = self._num_vars + 1
        if var < first:
            return
        count = var - self._num_vars
        self._num_vars = var
        # Extended in place: the hot loops hold these lists in locals.
        self._value += [_UNASSIGNED] * (2 * count)
        self._level += [0] * count
        self._reason += [None] * count
        self._activity += [0.0] * count
        self._phase += [0] * count
        self._seen += [False] * count
        self._watches += [[] for _ in range(2 * count)]
        # New variables have the lowest activity and the highest index,
        # so pushing them one by one never sifts: appending is the push.
        self._order += [(-0.0, v) for v in range(first, var + 1)]

    def add_cnf(self, cnf: Cnf) -> None:
        self._ensure_var(cnf.num_vars)
        self._add_clauses(cnf.clauses)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a problem clause (DIMACS literals)."""
        self._add_clauses((literals,))

    def _add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        value = self._value
        level = self._level
        watches = self._watches
        problem = self._clauses
        for literals in clauses:
            if not self._ok:
                return
            clause: list[int] = []
            for dimacs in literals:
                if dimacs < 0:
                    var = -dimacs
                    lit = var + var + 1
                else:
                    var = dimacs
                    lit = var + var
                if var > self._num_vars:
                    self._ensure_var(var)
                # Satisfied clauses at level 0 are dropped, literals
                # falsified at level 0 skipped.
                current = value[lit]
                if current != _UNASSIGNED and level[var] == 0:
                    if current == 1:
                        break
                    continue
                if lit in clause:
                    continue
                if lit ^ 1 in clause:
                    break  # tautology
                clause.append(lit)
            else:
                if len(clause) > 1:
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
                    problem.append(clause)
                elif not clause:
                    self._ok = False
                elif (
                    not self._enqueue(clause[0], None)
                    or self._propagate() is not None
                ):
                    self._ok = False

    # --- internal helpers -------------------------------------------------
    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        """Make ``lit`` true at the current level; False if it is false."""
        value = self._value
        current = value[lit]
        if current != _UNASSIGNED:
            return current == 1
        value[lit] = 1
        value[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        head = self._queue_head
        if head >= len(trail):
            return None
        start = head
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        assign_level = len(self._trail_lim)
        enqueue = trail.append
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            watch_list = watches[falsified]
            n = len(watch_list)
            i = kept = 0
            # Watches that stay are compacted to the front of the list.
            while i < n:
                clause = watch_list[i]
                i += 1
                # Ensure the falsified literal is at position 1.
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                if value[first] == 1:
                    watch_list[kept] = clause
                    kept += 1
                    continue
                # Look for a new literal to watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] != 0:
                        clause[1] = other
                        clause[k] = falsified
                        watches[other].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    watch_list[kept] = clause
                    kept += 1
                    if value[first] == 0:
                        # Conflict: keep the unvisited watches and report.
                        del watch_list[kept:i]
                        self._queue_head = head
                        self.propagations += head - start
                        return clause
                    value[first] = 1
                    value[first ^ 1] = 0
                    var = first >> 1
                    level[var] = assign_level
                    reason[var] = clause
                    enqueue(first)
            del watch_list[kept:]
        self._queue_head = head
        self.propagations += head - start
        return None

    # --- VSIDS ------------------------------------------------------------
    def _rescale_activity(self) -> None:
        """Scale all activities and the increment by 1e-100; rebuild the heap."""
        activity = self._activity
        for v in range(1, self._num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_order()

    def _rebuild_order(self) -> None:
        """Replace the heap by one current entry per unassigned variable."""
        activity = self._activity
        value = self._value
        order = self._order
        order[:] = [
            (-activity[v], v)
            for v in range(1, self._num_vars + 1)
            if value[2 * v] == _UNASSIGNED
        ]
        heapq.heapify(order)

    def _pick_branch_var(self) -> int:
        order = self._order
        value = self._value
        activity = self._activity
        if len(order) > 4 * self._num_vars:
            # Every bump and unassignment pushes an entry, so stale ones
            # pile up (over a million on newtag's hardest P&R proof).
            # The pick depends only on the valid entries -- the unassigned
            # variable of highest activity, lowest index on ties -- so
            # dropping the stale ones never changes it.  The O(vars)
            # rebuild is paid for by the 3 * vars pushes since the last.
            self._rebuild_order()
        while order:
            neg_activity, var = order[0]
            if (
                value[2 * var] == _UNASSIGNED
                and -neg_activity == activity[var]
            ):
                return var
            heapq.heappop(order)
        # Every unassigned variable has a current entry (pushed when it
        # is unassigned and on every bump), so all variables are set.
        return 0

    # --- conflict analysis ------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level).

        Every variable resolved on or added to the clause gets a VSIDS
        bump, in the order the resolution first meets it.
        """
        level = self._level
        reason_of = self._reason
        trail = self._trail
        seen = self._seen
        activity = self._activity
        order = self._order
        var_inc = self._var_inc
        heappush = heapq.heappush
        learnt: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        reason: Sequence[int] = conflict
        index = len(trail)
        current_level = len(self._trail_lim)

        while True:
            for q in reason:
                if q == lit:
                    continue
                var = q >> 1
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = True
                bumped = activity[var] + var_inc
                activity[var] = bumped
                if bumped > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                    bumped = activity[var]
                heappush(order, (-bumped, var))
                if var_level == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Find the next trail literal to resolve on.
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = reason_of[lit >> 1] or ()
            seen[lit >> 1] = False  # resolved away

        learnt[0] = lit ^ 1

        # Clause minimization: drop literals whose reason holds only
        # literals of the clause (still marked in seen) or of level 0.
        minimized = [learnt[0]]
        for q in learnt[1:]:
            reason_q = reason_of[q >> 1]
            if reason_q is None:
                minimized.append(q)
                continue
            negated = q ^ 1
            for r in reason_q:
                if r != negated and not seen[r >> 1] and level[r >> 1] != 0:
                    minimized.append(q)
                    break
        for q in learnt:
            seen[q >> 1] = False
        learnt = minimized

        if len(learnt) == 1:
            return learnt, 0
        # Backtrack level: second highest decision level in the clause.
        max_i = 1
        max_level = level[learnt[1] >> 1]
        for i in range(2, len(learnt)):
            lit_level = level[learnt[i] >> 1]
            if lit_level > max_level:
                max_i = i
                max_level = lit_level
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_level

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        limit = trail_lim[level]
        value = self._value
        phase = self._phase
        reason = self._reason
        activity = self._activity
        order = self._order
        heappush = heapq.heappush
        for lit in reversed(trail[limit:]):
            var = lit >> 1
            phase[var] = 1 - (lit & 1)  # the value it had
            value[lit] = _UNASSIGNED
            value[lit ^ 1] = _UNASSIGNED
            reason[var] = None
            heappush(order, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        self._queue_head = len(trail)

    def _reduce_learnts(self) -> None:
        """Drop the longer half of the learnt clauses.

        The learnt clauses are stable-sorted by length; the longer half
        goes, except clauses that are the reason of a current
        assignment.  Activity plays no part.
        """
        if len(self._learnts) < 2:
            return
        self._learnts.sort(key=len)
        half = len(self._learnts) // 2
        keep = self._learnts[:half]
        drop = set(map(id, self._learnts[half:]))
        locked = {id(reason) for reason in self._reason if reason is not None}
        watches = self._watches
        for lit, watch_list in enumerate(watches):
            watches[lit] = [
                c for c in watch_list if id(c) not in drop or id(c) in locked
            ]
        self._learnts = keep + [
            c for c in self._learnts[half:] if id(c) in locked
        ]

    # --- main search --------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        """Solve under the given assumption literals (DIMACS convention).

        Returns ``UNKNOWN`` when ``max_conflicts`` or ``deadline`` is
        exhausted before the search concludes.  When observability is
        enabled, one ``sat.solve`` span reports the decision/
        propagation/conflict/learnt-clause/restart counters of this
        call.
        """
        if not obs.enabled():
            return self._search(assumptions)
        with obs.span("sat.solve") as span:
            marks = (
                self.decisions,
                self.propagations,
                self.conflicts,
                self.learned,
                self.restarts,
            )
            result = self._search(assumptions)
            span.set("result", result.value)
            span.add("sat.decisions", self.decisions - marks[0])
            span.add("sat.propagations", self.propagations - marks[1])
            span.add("sat.conflicts", self.conflicts - marks[2])
            span.add("sat.learned_clauses", self.learned - marks[3])
            span.add("sat.restarts", self.restarts - marks[4])
            return result

    def _search(self, assumptions: Sequence[int] = ()) -> SolverResult:
        if not self._ok:
            return SolverResult.UNSAT
        if self.deadline is not None and time.monotonic() > self.deadline:
            return SolverResult.UNKNOWN
        for dimacs in assumptions:
            self._ensure_var(abs(dimacs))
        assumption_lits = [
            2 * abs(d) + (1 if d < 0 else 0) for d in assumptions
        ]

        restart_count = 0
        conflict_budget = 100 * _luby_simple(restart_count + 1)
        conflicts_here = 0
        learnt_cap = 4000
        value = self._value
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self._backtrack(0)
                    return SolverResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                self.learned += 1
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._backtrack(0)
                        return SolverResult.UNSAT
                else:
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                    self._learnts.append(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= self._var_decay
                if self.max_conflicts is not None and self.conflicts >= self.max_conflicts:
                    self._backtrack(0)
                    return SolverResult.UNKNOWN
                if conflicts_here >= conflict_budget:
                    # Restart; the cheap place to honor the wall-clock
                    # deadline without probing the clock per conflict.
                    restart_count += 1
                    self.restarts += 1
                    conflict_budget = 100 * _luby_simple(restart_count + 1)
                    conflicts_here = 0
                    self._backtrack(0)
                    # Restarts are also the cheap place for telemetry:
                    # at most one tick per ~100 conflicts.
                    obs.progress(
                        "sat.restarts",
                        self.restarts,
                        conflicts=self.conflicts,
                    )
                    obs.event(
                        "sat.restart",
                        restarts=self.restarts,
                        conflicts=self.conflicts,
                        learned=len(self._learnts),
                    )
                    if (
                        self.deadline is not None
                        and time.monotonic() > self.deadline
                    ):
                        self._backtrack(0)
                        return SolverResult.UNKNOWN
                if len(self._learnts) > learnt_cap:
                    self._reduce_learnts()
                    learnt_cap += 500
                continue

            # Re-establish assumptions after any backtracking.
            if len(trail_lim) < len(assumption_lits):
                lit = assumption_lits[len(trail_lim)]
                current = value[lit]
                if current == 0:
                    self._backtrack(0)
                    return SolverResult.UNSAT
                trail_lim.append(len(trail))
                if current == _UNASSIGNED:
                    self._enqueue(lit, None)
                continue

            # Decision.
            var = self._pick_branch_var()
            if var == 0:
                self._model = [
                    value[2 * v] == 1 for v in range(self._num_vars + 1)
                ]
                self._backtrack(0)
                return SolverResult.SAT
            self.decisions += 1
            trail_lim.append(len(trail))
            # Phase saving: the literal of the variable's last value.
            self._enqueue(2 * var + (1 if self._phase[var] == 0 else 0), None)

    # --- model access -----------------------------------------------------
    _model: list[bool] | None = None

    def model_value(self, var: int) -> bool:
        """Value of a variable in the last SAT model."""
        if self._model is None:
            raise RuntimeError("no model available; call solve() first")
        if var > self._num_vars:
            return False
        return self._model[var]

    def model(self) -> dict[int, bool]:
        """The last SAT model as a variable->bool mapping."""
        if self._model is None:
            raise RuntimeError("no model available; call solve() first")
        return {v: self._model[v] for v in range(1, self._num_vars + 1)}
