"""Tests for the CDCL SAT solver and CNF encodings.

The solver's search trajectory on a fixed corpus is pinned by a golden
file (``tests/golden/sat_trajectories.json``); regenerate it only after
an intentional change to the search with::

    PYTHONPATH=src python tests/test_sat.py --regenerate
"""

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro.physical_design.exact as exact_pnr
import repro.synthesis.exact as exact_synthesis
from repro.networks import benchmark_verilog
from repro.networks.truth_table import TruthTable
from repro.networks.verilog import parse_verilog
from repro.sat import Cnf, Solver, SolverResult
from repro.sat.encodings import (
    at_most_one,
    exactly_one,
    tseitin_and,
    tseitin_or,
    tseitin_xor,
)
from repro.synthesis import NpnDatabase, cut_rewrite, map_to_bestagon


def brute_force_sat(cnf: Cnf) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        def value(literal):
            return bits[abs(literal) - 1] ^ (literal < 0)
        if all(any(value(l) for l in clause) for clause in cnf.clauses):
            return True
    return False


def model_satisfies(solver: Solver, cnf: Cnf) -> bool:
    model = solver.model()
    def value(literal):
        return model[abs(literal)] ^ (literal < 0)
    return all(any(value(l) for l in clause) for clause in cnf.clauses)


random_cnfs = st.builds(
    lambda n, clause_specs: (n, clause_specs),
    st.integers(2, 9),
    st.lists(
        st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=3),
        min_size=1,
        max_size=30,
    ),
)


class TestSolverCorrectness:
    @settings(max_examples=150, deadline=None)
    @given(random_cnfs)
    def test_agrees_with_brute_force(self, spec):
        n, clause_specs = spec
        cnf = Cnf()
        cnf.num_vars = n
        for clause in clause_specs:
            cnf.add_clause(
                [(v if v <= n else (v % n) + 1) * (1 if pos else -1) for v, pos in clause]
            )
        solver = Solver(cnf)
        result = solver.solve()
        expected = brute_force_sat(cnf)
        assert result is (SolverResult.SAT if expected else SolverResult.UNSAT)
        if result is SolverResult.SAT:
            assert model_satisfies(solver, cnf)

    def test_empty_formula_sat(self):
        assert Solver(Cnf()).solve() is SolverResult.SAT

    def test_empty_clause_unsat(self):
        cnf = Cnf()
        cnf.num_vars = 1
        cnf.clauses.append([])
        # Empty clause via add_clause marks the solver unsat.
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is SolverResult.UNSAT

    def test_unit_propagation_chain(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() is SolverResult.SAT
        assert solver.model_value(3)

    def test_pigeonhole_unsat(self):
        pigeons, holes = 5, 4
        cnf = Cnf()
        def var(p, h):
            return p * holes + h + 1
        cnf.num_vars = pigeons * holes
        for p in range(pigeons):
            cnf.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        assert Solver(cnf).solve() is SolverResult.UNSAT

    def test_tautology_dropped(self):
        solver = Solver()
        solver.add_clause([1, -1])
        assert solver.solve() is SolverResult.SAT

    def test_conflict_budget_returns_unknown(self):
        # A hard pigeonhole with a tiny budget must give UNKNOWN.
        pigeons, holes = 8, 7
        cnf = Cnf()
        def var(p, h):
            return p * holes + h + 1
        cnf.num_vars = pigeons * holes
        for p in range(pigeons):
            cnf.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        solver = Solver(cnf)
        solver.max_conflicts = 5
        assert solver.solve() is SolverResult.UNKNOWN


class TestAssumptions:
    def test_assumption_forces_unsat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve([-2]) is SolverResult.UNSAT
        assert solver.solve([2]) is SolverResult.SAT
        assert solver.solve() is SolverResult.SAT

    def test_incremental_reuse(self):
        solver = Solver()
        solver.add_clause([1, 2, 3])
        for literal in (1, 2, 3):
            assert solver.solve([literal]) is SolverResult.SAT
            assert solver.model_value(literal)

    def test_contradictory_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve([1, -1]) is SolverResult.UNSAT


class TestEncodings:
    @given(st.integers(2, 8))
    def test_exactly_one(self, n):
        cnf = Cnf()
        xs = cnf.new_vars(n)
        exactly_one(cnf, xs)
        solver = Solver(cnf)
        assert solver.solve() is SolverResult.SAT
        assert sum(solver.model_value(x) for x in xs) == 1

    @given(st.integers(2, 10), st.integers(0, 10))
    def test_at_most_one_blocks_pairs(self, n, seed):
        cnf = Cnf()
        xs = cnf.new_vars(n)
        at_most_one(cnf, xs)
        i, j = seed % n, (seed + 1) % n
        if i == j:
            return
        solver = Solver(cnf)
        assert solver.solve([xs[i], xs[j]]) is SolverResult.UNSAT

    def test_tseitin_gates(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        and_out, or_out, xor_out = cnf.new_vars(3)
        tseitin_and(cnf, and_out, [a, b])
        tseitin_or(cnf, or_out, [a, b])
        tseitin_xor(cnf, xor_out, a, b)
        for pattern in range(4):
            va, vb = bool(pattern & 1), bool(pattern >> 1 & 1)
            solver = Solver(cnf)
            assumptions = [a if va else -a, b if vb else -b]
            assert solver.solve(assumptions) is SolverResult.SAT
            assert solver.model_value(and_out) == (va and vb)
            assert solver.model_value(or_out) == (va or vb)
            assert solver.model_value(xor_out) == (va != vb)


def pigeonhole(pigeons: int, holes: int) -> Cnf:
    """The classic UNSAT family; PHP(8,7) takes thousands of conflicts."""
    cnf = Cnf()

    def var(p, h):
        return p * holes + h + 1

    cnf.num_vars = pigeons * holes
    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


class TestStreamedClauses:
    """An encoder may add its clauses to the solver as it makes them."""

    def test_same_search_as_loading_a_cnf(self):
        cnf = random_3sat(150, 1)
        streamed = Solver()
        assert streamed.new_vars(cnf.num_vars) == list(
            range(1, cnf.num_vars + 1)
        )
        for clause in cnf.clauses:
            streamed.add_clause(clause)
        loaded = Solver(cnf)
        assert (streamed.num_vars, streamed.num_clauses) == (
            cnf.num_vars,
            cnf.num_clauses,
        )
        assert streamed.solve() is loaded.solve() is SolverResult.SAT
        assert (
            streamed.conflicts, streamed.decisions, streamed.propagations
        ) == (loaded.conflicts, loaded.decisions, loaded.propagations)
        assert streamed.model() == loaded.model()

    def test_clause_count_includes_units_and_dropped_clauses(self):
        solver = Solver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([a, b])  # satisfied at level 0: dropped
        solver.add_clause([b, -b])  # tautology
        assert solver.num_clauses == 3
        assert solver.new_var() == 3

    def test_clauses_share_one_object_per_literal(self):
        solver = Solver()
        a, b, c = solver.new_vars(300)[-3:]
        for clause in ([a, b], [-b, c], [a, c]):
            solver.add_clause(clause)
        first, second, third = solver._clauses
        # Literals above 256 are not cached by the interpreter.
        assert first[0] == third[0] > 256
        assert first[0] is third[0]
        assert first[1] ^ 1 == second[0]


class TestDeadline:
    def test_expired_deadline_returns_unknown(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.deadline = time.monotonic() - 1.0
        assert solver.solve() is SolverResult.UNKNOWN

    def test_no_deadline_unaffected(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.deadline is None
        assert solver.solve() is SolverResult.SAT

    def test_deadline_interrupts_at_restart_boundary(self):
        # PHP(8,7) needs seconds and ~17 restarts to refute; a deadline
        # just past "now" lets the search begin but must stop it at a
        # restart boundary long before the refutation completes.
        solver = Solver(pigeonhole(8, 7))
        solver.deadline = time.monotonic() + 0.05
        started = time.monotonic()
        assert solver.solve() is SolverResult.UNKNOWN
        assert time.monotonic() - started < 1.0
        assert solver.restarts >= 1

    def test_deadline_leaves_solver_reusable(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.deadline = time.monotonic() - 1.0
        assert solver.solve() is SolverResult.UNKNOWN
        solver.deadline = None
        assert solver.solve() is SolverResult.SAT
        assert solver.model_value(2)


class TestLubySequence:
    def test_matches_recursive_definition(self):
        from repro.sat.solver import _luby_simple

        def reference(i):
            k = 1
            while (1 << k) - 1 < i:
                k += 1
            if (1 << k) - 1 == i:
                return 1 << (k - 1)
            return reference(i - (1 << (k - 1)) + 1)

        assert [_luby_simple(i) for i in range(1, 201)] == [
            reference(i) for i in range(1, 201)
        ]

    def test_known_prefix(self):
        from repro.sat.solver import _luby_simple

        assert [_luby_simple(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
        ]

    def test_deep_index_no_recursion_limit(self):
        from repro.sat.solver import _luby_simple

        # The recursive formulation would blow the stack for adversarial
        # indices; the iterative one must terminate regardless.
        assert _luby_simple((1 << 64) - 1) == 1 << 63
        assert _luby_simple(1 << 64) == 1


# --- pinned search trajectories ----------------------------------------------
GOLDEN_TRAJECTORIES = Path(__file__).parent / "golden" / "sat_trajectories.json"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def random_3sat(num_vars: int, seed: int, ratio: float = 4.26) -> Cnf:
    """Uniform random 3-SAT near the satisfiability threshold."""
    rng = random.Random(seed)
    cnf = Cnf()
    cnf.num_vars = num_vars
    for _ in range(round(ratio * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


def _trajectory(instance: str, cnf: list, solver: Solver, result) -> dict:
    """Everything one ``solve`` decided, counted or learnt.

    ``cnf`` is the instance as [variables, clauses, clause digest].
    """
    return {
        "instance": instance,
        "cnf": cnf,
        "result": result.value,
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
        "learned": solver.learned,
        "restarts": solver.restarts,
        # Literal order inside the retained learnt clauses records how
        # their watches moved.
        "learnts": _digest(solver._learnts),
        "model": (
            _digest(list(solver.model().values()))
            if result is SolverResult.SAT
            else None
        ),
    }


def _solve(instance: str, cnf: Cnf, max_conflicts: int | None = None) -> dict:
    solver = Solver(cnf)
    solver.max_conflicts = max_conflicts
    described = [cnf.num_vars, cnf.num_clauses, _digest(cnf.clauses)]
    return _trajectory(instance, described, solver, solver.solve())


def _flow_solves(module, run) -> list[dict]:
    """Trajectories of every solve ``run()`` makes through ``module.Solver``.

    The clauses are digested as they reach the solver, whether through
    ``Solver(cnf)`` or one ``add_clause`` at a time, into the digest
    :func:`_digest` gives the whole clause list.
    """
    records: list[dict] = []

    class Recording(Solver):
        def __init__(self, cnf=None):
            self.clause_digest = hashlib.sha256(b"[")
            self.digested = 0
            super().__init__(cnf)

        def _add_clauses(self, clauses):
            clauses = [list(clause) for clause in clauses]
            for clause in clauses:
                separator = ", " if self.digested else ""
                self.clause_digest.update(
                    (separator + json.dumps(clause)).encode()
                )
                self.digested += 1
            super()._add_clauses(clauses)

        def solve(self, assumptions=()):
            result = super().solve(assumptions)
            digest = self.clause_digest.copy()
            digest.update(b"]")
            described = [
                self.num_vars, self.num_clauses, digest.hexdigest()[:16]
            ]
            records.append(_trajectory("", described, self, result))
            return result

    saved = module.Solver
    module.Solver = Recording
    try:
        run()
    finally:
        module.Solver = saved
    return records


def _mapped(name: str):
    return map_to_bestagon(
        cut_rewrite(parse_verilog(benchmark_verilog(name), name), NpnDatabase())
    )


def sat_trajectories() -> list[dict]:
    """The corpus, solver-only instances first.

    Random 3-SAT at the threshold ratio; a 5000-conflict random instance
    that passes learnt-clause reduction and the 1e100 activity rescale
    (~4490 conflicts); a conflict-limited pigeonhole; exact synthesis of
    MAJ3 and of one 4-input class; every exact-P&R candidate the flow
    solves for t_5, majority and xor5_majority; and majority's 4x6, one
    column wider than its UNSAT 3x6, with the two edge-column clauses.
    """
    records = [
        _solve("random3sat/n150/seed1", random_3sat(150, 1)),
        _solve("random3sat/n170/seed2", random_3sat(170, 2)),
        _solve("pigeonhole/8x7/limit1000", pigeonhole(8, 7), 1000),
    ]
    for label, num_vars, bits in (("maj3", 3, 0xE8), ("0x6ac0", 4, 0x6AC0)):
        spec = exact_synthesis.SynthesisSpec(TruthTable(num_vars, bits))
        solves = _flow_solves(
            exact_synthesis,
            lambda: exact_synthesis.exact_xag_synthesis(spec),
        )
        for gates, record in enumerate(solves, start=1):
            record["instance"] = f"synthesis/{label}/gates{gates}"
        records += solves
    for name in ("t_5", "majority", "xor5_majority"):
        mapped = _mapped(name)
        statistics = exact_pnr.ExactStatistics()
        solves = _flow_solves(
            exact_pnr,
            lambda: exact_pnr.ExactPhysicalDesign().run(mapped, statistics),
        )
        solved = [a for a in statistics.attempts if a.outcome != "infeasible"]
        for attempt, record in zip(solved, solves, strict=True):
            record["instance"] = f"pnr/{name}/{attempt.width}x{attempt.height}"
        records += solves
    majority = _mapped("majority")
    (record,) = _flow_solves(
        exact_pnr,
        lambda: exact_pnr.ExactPhysicalDesign()._attempt(
            majority, 4, 6, exact_pnr.ExactStatistics(), edge_columns=(3, 0)
        ),
    )
    record["instance"] = "pnr/majority/4x6/edge_columns"
    return records + [record]


class TestTrajectoryGolden:
    """The exact search path is pinned, not just the verdicts.

    A faster kernel must visit clauses, move watches, bump activities
    and restart exactly as before; any drift shows up here as a changed
    count or digest.
    """

    def test_matches_golden(self):
        expected = json.loads(GOLDEN_TRAJECTORIES.read_text())
        actual = sat_trajectories()
        assert [r["instance"] for r in actual] == [
            r["instance"] for r in expected
        ]
        for got, want in zip(actual, expected):
            assert got["cnf"] == want["cnf"], (
                f"{got['instance']}: the instance itself changed"
            )
            assert got == want, f"{got['instance']}: the search changed"

    def test_corpus_reaches_reduction_rescale_and_limit(self):
        by_name = {
            r["instance"]: r
            for r in json.loads(GOLDEN_TRAJECTORIES.read_text())
        }
        # learnt_cap is 4000; var_inc passes 1e100 after ~4490 conflicts.
        assert by_name["random3sat/n170/seed2"]["conflicts"] > 4500
        assert by_name["pigeonhole/8x7/limit1000"]["result"] == "unknown"
        results = {r["result"] for r in by_name.values()}
        assert results == {"sat", "unsat", "unknown"}


def _regenerate() -> None:
    GOLDEN_TRAJECTORIES.parent.mkdir(exist_ok=True)
    GOLDEN_TRAJECTORIES.write_text(
        json.dumps(sat_trajectories(), indent=1) + "\n"
    )
    print(f"regenerated {GOLDEN_TRAJECTORIES}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
