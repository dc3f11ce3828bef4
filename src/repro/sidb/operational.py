"""Operational check of SiDB gate designs (the Figure 1c / 5 procedure).

A gate design is *operational* when, for every input combination, the
simulated ground state of the design-plus-input-stimuli exhibits the
expected logic value on every output BDL pair.

Input stimuli follow the paper's refinement of Huff et al.'s method:
instead of representing logic 1 by the presence of a perturber and
logic 0 by its absence, *both* states place a perturber -- at a closer
location for 1 and a farther one for 0 -- which "constitutes a more
realistic representation of the repulsion exerted by upstream input
logic wires" (Section 4.1).  A :class:`GateUnderTest` therefore
records, per input, one SiDB set for logic 0 and one for logic 1, and
is the one description of a gate that every check below takes.

Each input pattern is an independent ground-state simulation, so the
check optionally fans the patterns out over worker processes
(``workers > 1``); per-pattern layouts share their pairwise geometry
through the :mod:`repro.sidb.energy` cache, so a parameter sweep only
pays the O(n^2) distance matrix once per distinct site set.  An exact
ground state depends only on the system's geometry, so each is solved
once per lattice isometry class (whole-dimer shifts and the mirror
``n -> -n``, see :func:`repro.coords.lattice.canonical_form`): mirrored
tiles and repeated patterns reuse it from a memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.coords.lattice import LatticeSite, canonical_form
from repro.learn import hooks as _learn_hooks
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair, read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import GROUND_STATE_MEMO, EnergyModel
from repro.sidb.exhaustive import GroundStateResult, exhaustive_ground_state
from repro.sidb.parallel import run_tasks
from repro.sidb.quickexact import MAX_QUICKEXACT_SITES, quickexact_ground_state
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

#: Ground-state engine selectors accepted by the operational checks:
#: ``"auto"`` solves systems of up to :data:`MAX_QUICKEXACT_SITES`
#: exactly with QuickExact and anneals larger ones; ``"quickexact"``,
#: ``"exhaustive"`` (ExGS, the reference the tests compare against) and
#: ``"simanneal"`` name a specific solver.
ENGINES = ("auto", "quickexact", "exhaustive", "simanneal")


@dataclass(frozen=True)
class GateUnderTest:
    """A dot-accurate gate as the operational check simulates it.

    ``body`` holds the SiDBs present in every input pattern;
    ``input_stimuli[i]`` is the (far, close) pair of SiDB sets that
    input ``i`` adds for logic 0 and logic 1; ``outputs[k]`` is the
    truth table over the inputs (in input order) that output pair ``k``
    must show.  Fields are stored as tuples, so callers may pass lists.
    """

    body: tuple[LatticeSite, ...]
    input_stimuli: tuple[
        tuple[tuple[LatticeSite, ...], tuple[LatticeSite, ...]], ...
    ]
    output_pairs: tuple[BdlPair, ...]
    outputs: tuple[TruthTable, ...]

    def __post_init__(self) -> None:
        stimuli = tuple(
            (tuple(far), tuple(close)) for far, close in self.input_stimuli
        )
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "input_stimuli", stimuli)
        object.__setattr__(self, "output_pairs", tuple(self.output_pairs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.outputs) != len(self.output_pairs):
            raise ValueError(
                f"{len(self.output_pairs)} output pairs need as many truth "
                f"tables, got {len(self.outputs)}"
            )
        for index, table in enumerate(self.outputs):
            if table.num_vars != self.num_inputs:
                raise ValueError(
                    f"truth table {index} has {table.num_vars} inputs, "
                    f"the gate {self.num_inputs}"
                )
        body = set(self.body)
        for index, pair in enumerate(self.output_pairs):
            if pair.site0 not in body or pair.site1 not in body:
                raise ValueError(f"output pair {index} is not in the body")

    @property
    def num_inputs(self) -> int:
        return len(self.input_stimuli)

    def layout(self, pattern: int) -> SidbLayout:
        """Body plus the pattern's far (bit 0) or close (bit 1) stimuli."""
        layout = SidbLayout(self.body)
        for bit, (far, close) in enumerate(self.input_stimuli):
            layout.extend(close if (pattern >> bit) & 1 else far)
        return layout

    def expected(self, pattern: int) -> tuple[bool, ...]:
        """The value every output pair must show under ``pattern``."""
        return tuple(table.get_bit(pattern) for table in self.outputs)

    def translated(self, dn: int, drow: int) -> "GateUnderTest":
        """The whole gate shifted by ``dn`` columns and ``drow`` rows.

        An isometry only for even ``drow``: a row is half a dimer, so an
        odd shift moves ``l=0`` and ``l=1`` sites by different distances
        (on ``or_SE``, ``translated(0, 1)`` moves a ground energy by
        31 meV).  Tile origins are multiples of 46 rows.
        """

        def shift(sites):
            return tuple(site.translated(dn, drow) for site in sites)

        return GateUnderTest(
            body=shift(self.body),
            input_stimuli=tuple(
                (shift(far), shift(close)) for far, close in self.input_stimuli
            ),
            output_pairs=tuple(
                pair.translated(dn, drow) for pair in self.output_pairs
            ),
            outputs=self.outputs,
        )


@dataclass
class PatternResult:
    """Simulation outcome for one input combination."""

    pattern: int
    expected: tuple[bool, ...]
    observed: tuple[bool | None, ...]
    ground_energy: float
    correct: bool


@dataclass
class OperationalReport:
    """Aggregated operational-domain result of a gate design."""

    operational: bool
    patterns: list[PatternResult] = field(default_factory=list)

    def truth_table_observed(self) -> list[tuple[bool | None, ...]]:
        return [p.observed for p in self.patterns]


@dataclass(frozen=True)
class PatternTask:
    """One input pattern of an operational check, ready to ship.

    ``defects`` carries the fixed charged defects (as picklable
    :class:`~repro.defects.model.SidbDefect` records) to fold into the
    pattern's energy model; empty on pristine surfaces.
    """

    gate: GateUnderTest
    pattern: int
    parameters: SiDBSimulationParameters
    engine: str = "auto"
    schedule: SimAnnealParameters | None = None
    defects: tuple = ()


def simulate_pattern(task: PatternTask) -> PatternResult:
    """Ground-state simulation of one input pattern (worker-safe).

    Module-level so :func:`repro.sidb.parallel.run_tasks` can ship it to
    a ``ProcessPoolExecutor`` by reference.
    """
    gate = task.gate
    layout = gate.layout(task.pattern)
    expected = gate.expected(task.pattern)
    result = _ground_state(
        layout,
        task.parameters,
        task.engine,
        task.schedule,
        task.defects,
    )
    if result.ground_states:
        occupation = result.occupation()
        observed = tuple(
            read_bdl_pair(layout, occupation, pair)
            for pair in gate.output_pairs
        )
    else:
        observed = tuple(None for _ in gate.output_pairs)
    correct = all(
        obs is not None and obs == exp
        for obs, exp in zip(observed, expected)
    )
    # Degenerate ground states must agree on the outputs.
    if correct and len(result.ground_states) > 1:
        for other in result.ground_states[1:]:
            other_observed = tuple(
                read_bdl_pair(layout, other, pair)
                for pair in gate.output_pairs
            )
            if other_observed != observed:
                correct = False
                break
    return PatternResult(
        pattern=task.pattern,
        expected=expected,
        observed=observed,
        ground_energy=result.ground_energy,
        correct=correct,
    )


def check_operational(
    gate: GateUnderTest,
    parameters: SiDBSimulationParameters | None = None,
    engine: str = "auto",
    schedule: SimAnnealParameters | None = None,
    workers: int = 1,
    defects=(),
) -> OperationalReport:
    """Simulate a gate over all of its input patterns.

    ``engine`` selects the ground state finder (see :data:`ENGINES`);
    with the default ``"auto"`` QuickExact handles systems up to its
    ceiling and SimAnneal the rest.  ``workers > 1`` fans the
    per-pattern simulations out over processes; results are
    bit-identical to the serial default.  ``defects`` optionally lists
    charged surface defects (:class:`~repro.defects.model.SidbDefect`)
    folded into every pattern's energy model as fixed point charges;
    with none the check is bit-identical to the pristine-surface result.
    """
    parameters = parameters or SiDBSimulationParameters()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    defects = tuple(defects)
    tasks = [
        PatternTask(gate, pattern, parameters, engine, schedule, defects)
        for pattern in range(1 << gate.num_inputs)
    ]
    results = run_tasks(
        simulate_pattern, tasks, workers, label="operational.patterns"
    )
    # Learn-hook: contribute this physics-labeled geometry as a
    # training example.  Disabled path is one attribute check; the
    # hook never influences the verdict below.
    if _learn_hooks.COLLECTOR is not None:
        _learn_hooks.record_operational(
            gate,
            parameters,
            defects,
            correct=sum(1 for result in results if result.correct),
            total=len(results),
        )
    return OperationalReport(
        operational=all(result.correct for result in results),
        patterns=results,
    )


def _ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters,
    engine: str,
    schedule: SimAnnealParameters | None,
    defects=(),
) -> GroundStateResult:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "simanneal" or (
        engine == "auto" and len(layout) > MAX_QUICKEXACT_SITES
    ):
        # An annealed state depends on the site order and the seed, so
        # SimAnneal always runs on the layout exactly as given.
        model = EnergyModel(layout, parameters, defects) if defects else None
        return SimAnneal(layout, parameters, schedule, model=model).run()
    if engine == "auto":
        engine = "quickexact"
    return _exact_ground_state(layout, parameters, engine, defects)


def _exact_ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters,
    engine: str,
    defects,
) -> GroundStateResult:
    """An exact ground state, solved once per lattice isometry class.

    The engine always runs on the canonical form of the system (charged
    defects included), so the result does not depend on the memo's
    state or on which member of the class came first.  Each caller gets
    fresh ground-state arrays in its own site order; a memo hit carries
    ``stats=None``.
    """
    charged = [defect for defect in defects if defect.charge]
    form = canonical_form(
        layout.sites(),
        [(defect.site, _defect_label(defect, parameters)) for defect in charged],
    )
    key = (form.sites, form.marks, parameters, engine)
    canonical = GROUND_STATE_MEMO.lookup(key)
    stats = None
    if canonical is None:
        canonical_layout = SidbLayout(form.sites)
        canonical_defects = [
            replace(charged[index], site=site)
            for (site, _), index in zip(form.marks, form.mark_order)
        ]
        model = (
            EnergyModel(canonical_layout, parameters, canonical_defects)
            if canonical_defects
            else None
        )
        solve = (
            exhaustive_ground_state
            if engine == "exhaustive"
            else quickexact_ground_state
        )
        canonical = solve(canonical_layout, parameters, model=model)
        for state in canonical.ground_states:
            state.setflags(write=False)
        GROUND_STATE_MEMO.store(key, canonical)
        stats = canonical.stats
    else:
        obs.add("sidb.ground_state_memo_hits")
    order = np.asarray(form.order, dtype=np.intp)
    ground_states = []
    for state in canonical.ground_states:
        mapped = np.empty_like(state)
        mapped[order] = state
        ground_states.append(mapped)
    return GroundStateResult(
        layout,
        ground_states=ground_states,
        ground_energy=canonical.ground_energy,
        valid_count=canonical.valid_count,
        total_count=canonical.total_count,
        stats=stats,
    )


def _defect_label(defect, parameters: SiDBSimulationParameters) -> tuple:
    """What a charged defect contributes to the energy model, site aside."""
    return (
        defect.charge,
        parameters.epsilon_r if defect.epsilon_r is None else defect.epsilon_r,
        parameters.lambda_tf if defect.lambda_tf is None else defect.lambda_tf,
    )
