"""Offline bootstrap collection for the surrogate training set.

The service collects examples as a side effect of real jobs, but a
fresh checkout needs a training set *before* any service has run.
This module provides small, physics-cheap canvas problems with a
known-good completion each, and a deterministic sampler that labels a
mixture of candidates around them through the real
:func:`~repro.gatelib.designer.score_design` oracle (the learn hooks
record every evaluation):

* the known-good canvas itself and single-dot **additions** to it --
  positives plus near-miss negatives, the decision boundary;
* **random** canvases -- overwhelmingly negative, the background;
* **moved-dot perturbations** of the known-good canvas -- hard
  negatives one lattice step from working geometry.

The two-input problems start from
:func:`~repro.gatelib.designs.two_input_core`, the core the design
scans judge.  ``repro learn collect`` and ``benchmarks/bench_learn.py``
draw from here; ``scripts/design_gates.py --collect`` records the
scans' own operational checks instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.coords.lattice import LatticeSite
from repro.learn import hooks
from repro.learn.dataset import ExampleCollector
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.tech.parameters import SiDBSimulationParameters

# NOTE: repro.gatelib.designer and repro.gatelib.designs are imported
# lazily inside the problem builders: both import repro.learn.hooks
# (through repro.sidb.operational), and a module-level import here
# would close an import cycle through the package __init__.

S = LatticeSite.from_row


@dataclass
class BootstrapProblem:
    """A canvas problem plus one known-good completion."""

    name: str
    problem: "CanvasSearchProblem"  # noqa: F821 -- lazy designer import
    known_good: frozenset[LatticeSite]
    max_dots: int


def wire_problem(
    parameters: SiDBSimulationParameters | None = None,
) -> BootstrapProblem:
    """1-input wire completion: bridge a 10-row gap with one BDL pair.

    The known-good canvas ``{(0,6), (0,8)}`` completes a pitch-6
    three-pair chain -- the geometry the wire scans in
    ``scripts/design_gates.py`` validated.  Cheap: at most ~12 sites
    per ground-state call.
    """
    from repro.gatelib.designer import CanvasSearchProblem

    parameters = parameters or SiDBSimulationParameters(mu_minus=-0.32)
    input_pair = BdlPair(S(0, 0), S(0, 2))
    output_pair = BdlPair(S(0, 12), S(0, 14))
    problem = CanvasSearchProblem(
        fixed_sites=[
            input_pair.site0,
            input_pair.site1,
            output_pair.site0,
            output_pair.site1,
            S(0, 18),  # output perturber, gout=4 under the pair
        ],
        candidate_sites=[
            S(column, row)
            for column in range(-3, 4)
            for row in range(4, 11)
        ],
        input_stimuli=[([S(0, -6)], [S(0, -2)])],
        output_pairs=[output_pair],
        outputs=[TruthTable(1, 0b10)],  # identity
        parameters=parameters,
        input_pairs_to_hold=[(input_pair, 0)],
    )
    return BootstrapProblem(
        name="wire",
        problem=problem,
        known_good=frozenset({S(0, 6), S(0, 8)}),
        max_dots=3,
    )


def two_input_problem(
    kind: str = "or",
    parameters: SiDBSimulationParameters | None = None,
) -> BootstrapProblem:
    """2-input Y-junction core whose empty canvas is already a gate.

    The fixed sites, stimuli and pairs are those of
    :func:`~repro.gatelib.designs.two_input_core`, the core the design
    scans judge (funnel chains converging on a shared output pair); the
    canvas search decorates it, so labels split on whether an added dot
    preserves the function.
    """
    from repro.gatelib.designer import CanvasSearchProblem
    from repro.gatelib.designs import (
        GATE_TABLES,
        TWO_INPUT_TEMPLATES,
        two_input_core,
    )

    parameters = parameters or SiDBSimulationParameters(mu_minus=-0.32)
    # The xor template is not realizable without canvas dots, so a
    # search on it runs its full iteration budget -- the guided-speedup
    # workload.
    if kind not in TWO_INPUT_TEMPLATES:
        raise ValueError(
            f"unknown two-input kind {kind!r}; "
            f"know {sorted(TWO_INPUT_TEMPLATES)}"
        )
    gate = two_input_core(TWO_INPUT_TEMPLATES[kind], GATE_TABLES[kind])
    *holds, output_pair = gate.output_pairs
    fixed = set(gate.body)
    problem = CanvasSearchProblem(
        fixed_sites=list(gate.body),
        candidate_sites=[
            S(column, row)
            for column in range(-5, 6)
            for row in range(3, output_pair.site0.row - 1)
            if S(column, row) not in fixed
        ],
        input_stimuli=[
            (list(far), list(close)) for far, close in gate.input_stimuli
        ],
        output_pairs=[output_pair],
        outputs=[gate.outputs[-1]],
        parameters=parameters,
        input_pairs_to_hold=[(pair, 0) for pair in holds[:2]]
        + [(pair, 1) for pair in holds[2:]],
    )
    # The or-core samples up to 4-dot decorations: larger canvases are
    # where operational designs get rare (and physics gets expensive),
    # exactly the regime the screening benchmark exercises.
    return BootstrapProblem(
        name=f"core-{kind}",
        problem=problem,
        known_good=frozenset(),
        max_dots=4 if kind == "or" else 2,
    )


def bootstrap_problems(
    parameters: SiDBSimulationParameters | None = None,
) -> list[BootstrapProblem]:
    """The default offline collection curriculum (cheap first)."""
    return [
        wire_problem(parameters),
        two_input_problem("or", parameters),
        two_input_problem("xor", parameters),
    ]


def screening_pool(
    problem,
    size: int = 120,
    dots: int = 4,
    seed: int = 11,
) -> list[frozenset[LatticeSite]]:
    """A deterministic pool of random ``dots``-dot candidate canvases.

    The substrate of the ranked-screening benchmark: on the or-core at
    4 dots only ~10% of random decorations keep the gate operational,
    so finding a verified design means paying for many ~15 ms QuickExact
    evaluations -- unless a surrogate orders the pool first.
    """
    rng = random.Random(seed)
    candidates = list(problem.candidate_sites)
    return [
        frozenset(rng.sample(candidates, dots)) for _ in range(size)
    ]


def collect_canvas_examples(
    directory: str | Path | None = None,
    store=None,
    samples: int = 160,
    seed: int = 0,
    problems: list[BootstrapProblem] | None = None,
) -> dict:
    """Physics-label ~``samples`` candidates per problem into one shard.

    Deterministic for a given seed.  Returns collection statistics
    including the shard path (``None`` when nothing was collected).
    """
    from repro.gatelib.designer import score_design

    problems = problems if problems is not None else bootstrap_problems()
    collector = ExampleCollector(directory=directory, store=store)
    per_problem: dict[str, int] = {}
    with hooks.collecting(collector):
        for bootstrap in problems:
            before = len(collector)
            rng = random.Random(seed)
            problem = bootstrap.problem
            candidates = list(problem.candidate_sites)
            score_design(problem, bootstrap.known_good)
            additions = rng.sample(
                candidates, min(len(candidates), samples // 4)
            )
            for site in additions:
                score_design(
                    problem, bootstrap.known_good | frozenset({site})
                )
            for _ in range(samples // 4):
                size = rng.randint(0, bootstrap.max_dots)
                canvas = frozenset(rng.sample(candidates, size))
                score_design(problem, canvas)
            for _ in range(samples // 4):
                canvas = set(bootstrap.known_good)
                if canvas:
                    canvas.discard(rng.choice(sorted(canvas)))
                canvas.add(rng.choice(candidates))
                score_design(problem, frozenset(canvas))
            per_problem[bootstrap.name] = len(collector) - before
    examples = len(collector)
    shard = collector.flush()
    return {
        "examples": examples,
        "per_problem": per_problem,
        "shard": None if shard is None else str(shard),
        "persisted_digests": list(collector.persisted_digests),
    }
