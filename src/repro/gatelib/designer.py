"""Automated gate design: parameter scans and canvas search.

The paper designed its Bestagon tiles "with the assistance of a
reinforcement learning agent [Lupoiu'22] which is allowed to place SiDBs
within the logic design canvas and toggle through input combinations to
check for logic correctness", followed by manual review.  This module is
our substitute generator: a stochastic local search that adds, removes
and moves SiDBs on a candidate canvas grid, scored by how many input
patterns QuickExact evaluates correctly -- through the same per-pattern
check (:func:`~repro.sidb.operational.simulate_pattern`) that
:func:`~repro.sidb.operational.check_operational` runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.coords.lattice import LatticeSite
from repro.learn import hooks as _learn_hooks
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest, PatternTask, simulate_pattern
from repro.tech.parameters import SiDBSimulationParameters


@dataclass
class CanvasSearchProblem:
    """A canvas-completion problem for the designer."""

    fixed_sites: list[LatticeSite]
    candidate_sites: list[LatticeSite]
    input_stimuli: list[tuple[list[LatticeSite], list[LatticeSite]]]
    output_pairs: list[BdlPair]
    outputs: list[TruthTable]
    parameters: SiDBSimulationParameters = field(
        default_factory=SiDBSimulationParameters
    )
    input_pairs_to_hold: list[tuple[BdlPair, int]] = field(default_factory=list)
    """Pairs that must retain input ``i``'s value in every ground state."""


def score_design(
    problem: CanvasSearchProblem, canvas: frozenset[LatticeSite]
) -> tuple[int, int]:
    """(correct patterns, total patterns) for a canvas choice.

    Each pair of ``input_pairs_to_hold`` is checked as one more output
    whose truth table is its input variable.  A layout above
    QuickExact's site ceiling raises ``ValueError``.
    """
    num_inputs = len(problem.input_stimuli)
    total = 1 << num_inputs
    obs.add("gatelib.patterns_scored", total)
    gate = GateUnderTest(
        body=list(problem.fixed_sites) + sorted(canvas),
        input_stimuli=problem.input_stimuli,
        output_pairs=list(problem.output_pairs)
        + [pair for pair, _ in problem.input_pairs_to_hold],
        outputs=list(problem.outputs)
        + [
            TruthTable.variable(bit, num_inputs)
            for _, bit in problem.input_pairs_to_hold
        ],
    )
    try:
        for pattern in range(total):
            gate.layout(pattern)
    except ValueError:
        # Canvas collides with fixed/stimulus sites; still a
        # legitimate (always-negative) training example.
        if _learn_hooks.COLLECTOR is not None:
            _learn_hooks.record_canvas(problem, canvas, 0, total)
        return 0, total
    correct = sum(
        simulate_pattern(
            PatternTask(gate, pattern, problem.parameters, "quickexact")
        ).correct
        for pattern in range(total)
    )
    if _learn_hooks.COLLECTOR is not None:
        _learn_hooks.record_canvas(problem, canvas, correct, total)
    return correct, total


def _propose_mutation(
    rng: random.Random,
    current: frozenset[LatticeSite],
    candidates: list[LatticeSite],
    max_dots: int,
) -> frozenset[LatticeSite] | None:
    """One add/remove/move mutation of ``current`` (``None``: no-op)."""
    move = rng.random()
    next_canvas = set(current)
    if (move < 0.45 or not next_canvas) and len(next_canvas) < max_dots:
        addition = rng.choice(candidates)
        if addition in next_canvas:
            return None
        next_canvas.add(addition)
    elif move < 0.75 and next_canvas:
        next_canvas.discard(rng.choice(sorted(next_canvas)))
    elif next_canvas:
        next_canvas.discard(rng.choice(sorted(next_canvas)))
        addition = rng.choice(candidates)
        next_canvas.add(addition)
    else:
        return None
    return frozenset(next_canvas)


def screen_canvas_candidates(
    problem: CanvasSearchProblem,
    canvases,
    guide=None,
) -> tuple[frozenset[LatticeSite], int, int] | None:
    """First *verified* operational canvas in a candidate pool.

    Physics-evaluates the pool in order until a canvas scores
    correct == total and returns it (``None`` when the pool holds no
    operational design).  With ``guide`` (a
    :class:`~repro.learn.guide.SurrogateGuide`) the pool is first
    re-ordered by descending predicted operability, so a good surrogate
    moves the hit from the pool's positive rate (~1/rate evaluations)
    to the first few -- but the returned design still carries a full
    ground-state verdict either way, and an exhausted pool is
    exhausted regardless of order.
    """
    canvases = list(canvases)
    with obs.span("gatelib.canvas_screen") as span:
        span.set("pool", len(canvases))
        probabilities = None
        if guide is not None:
            span.set("guided", True)
            probabilities = guide.probabilities(problem, canvases)
            order = sorted(
                range(len(canvases)), key=lambda i: -probabilities[i]
            )
        else:
            order = list(range(len(canvases)))
        for rank, index in enumerate(order):
            span.add("evaluations")
            correct, total = score_design(problem, canvases[index])
            if probabilities is not None:
                guide.observe(
                    float(probabilities[index]), correct == total
                )
            if correct == total:
                span.set("hit_rank", rank)
                return canvases[index], correct, total
        return None


def search_canvas_design(
    problem: CanvasSearchProblem,
    max_dots: int = 6,
    iterations: int = 400,
    seed: int = 0,
    initial: frozenset[LatticeSite] | None = None,
    guide=None,
) -> tuple[frozenset[LatticeSite], int, int] | None:
    """Stochastic local search for a correct canvas.

    Returns (canvas sites, correct, total) of the best design found, or
    None if no candidate scored above zero.  A design is complete when
    correct == total.

    With ``guide`` (a :class:`~repro.learn.guide.SurrogateGuide`), each
    iteration proposes a batch of mutations, lets the surrogate re-rank
    them and prune hopeless batches, and physics-scores at most the top
    pick -- the search trajectory and runtime change, but every
    accepted score (and the returned winner) still comes from the
    QuickExact oracle, never from the surrogate.  Without a
    guide the search is bit-identical to previous releases.
    """
    rng = random.Random(seed)
    candidates = list(problem.candidate_sites)
    current: frozenset[LatticeSite] = initial or frozenset()
    with obs.span("gatelib.canvas_search") as span:
        span.set("candidate_sites", len(candidates))
        span.set("max_dots", max_dots)
        span.set("iterations", iterations)
        if guide is not None:
            span.set("guided", True)
        best = current
        span.add("evaluations")
        best_score = score_design(problem, current)[0]
        total = 1 << len(problem.input_stimuli)
        if best_score == total:
            span.set("best_score", f"{best_score}/{total}")
            return best, best_score, total
        current_score = best_score

        for _ in range(iterations):
            if guide is None:
                frozen = _propose_mutation(rng, current, candidates, max_dots)
                if frozen is None:
                    continue
                probability = None
            else:
                proposals = []
                for _ in range(guide.batch):
                    proposal = _propose_mutation(
                        rng, current, candidates, max_dots
                    )
                    if proposal is not None:
                        proposals.append(proposal)
                selection = guide.select(problem, proposals)
                if selection is None:
                    continue
                index, probability = selection
                frozen = proposals[index]
            span.add("evaluations")
            score = score_design(problem, frozen)[0]
            if guide is not None:
                guide.observe(probability, score == total)
            # Greedy with sideways moves.
            if score >= current_score:
                current = frozen
                current_score = score
                if score > best_score:
                    span.add("improvements")
                    best = frozen
                    best_score = score
                    if best_score == total:
                        span.set("best_score", f"{best_score}/{total}")
                        return best, best_score, total
        span.set("best_score", f"{best_score}/{total}")
        if guide is not None:
            span.set("pruned", guide.pruned)
        if best_score == 0:
            return None
        return best, best_score, total
