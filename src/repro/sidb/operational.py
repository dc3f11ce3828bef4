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

Each input pattern is an independent ground-state simulation, run one
after another in the calling process.  Per-pattern layouts share their
pairwise geometry through the :mod:`repro.sidb.energy` cache, so a
parameter sweep only pays the O(n^2) distance matrix once per distinct
site set.  An exact ground state depends only on the system's
geometry, so each is solved once per lattice isometry class
(whole-dimer shifts and the mirror ``n -> -n``, see
:func:`repro.coords.lattice.canonical_form`): mirrored tiles and
repeated patterns reuse it from a memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.coords.lattice import LatticeSite, canonical_form
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair, read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import GROUND_STATE_MEMO, SPENT_SEARCHES, EnergyModel
from repro.sidb.exhaustive import GroundStateResult, exhaustive_ground_state
from repro.sidb.quickexact import BudgetExhausted, quickexact_ground_state
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

#: Ground-state engine selectors accepted by the operational checks:
#: ``"auto"`` solves every system exactly with QuickExact and anneals
#: it only when the search spends :data:`QUICKEXACT_NODE_BUDGET`;
#: ``"quickexact"``, ``"exhaustive"`` (ExGS, the reference the tests
#: compare against) and ``"simanneal"`` name a specific solver.
ENGINES = ("auto", "quickexact", "exhaustive", "simanneal")

#: Nodes a QuickExact search may visit before engine ``"auto"`` hands
#: its system to SimAnneal (and ``"quickexact"`` raises
#: :class:`~repro.sidb.quickexact.BudgetExhausted`).  Counted in nodes,
#: not seconds, so a verdict does not depend on the host's load.  The
#: library's largest search takes under 17,000 nodes and one of random
#: 48-site layouts up to about 300,000; a search that spends the budget
#: costs about 1.2 s at 56 sites.
QUICKEXACT_NODE_BUDGET = 1 << 19


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
    """Simulation outcome for one input combination.

    ``engine`` names the solver that decided the pattern; the verdict is
    ``exact`` unless that solver is SimAnneal.
    """

    pattern: int
    expected: tuple[bool, ...]
    observed: tuple[bool | None, ...]
    ground_energy: float
    correct: bool
    engine: str

    @property
    def exact(self) -> bool:
        return self.engine != "simanneal"


@dataclass
class OperationalReport:
    """Aggregated operational-domain result of a gate design."""

    operational: bool
    patterns: list[PatternResult] = field(default_factory=list)

    def truth_table_observed(self) -> list[tuple[bool | None, ...]]:
        return [p.observed for p in self.patterns]


def simulate_pattern(
    gate: GateUnderTest,
    pattern: int,
    parameters: SiDBSimulationParameters,
    engine: str = "auto",
    schedule: SimAnnealParameters | None = None,
    defects=(),
) -> PatternResult:
    """Ground-state simulation of one input pattern of ``gate``.

    ``defects`` lists the fixed charged defects
    (:class:`~repro.defects.model.SidbDefect`) folded into the
    pattern's energy model; empty on pristine surfaces.
    """
    layout = gate.layout(pattern)
    expected = gate.expected(pattern)
    with obs.span("operational.pattern", pattern=pattern) as span:
        engine, result = _ground_state(
            layout, parameters, engine, schedule, defects
        )
        span.set("engine", engine)
        span.set("exact", engine != "simanneal")
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
        pattern=pattern,
        expected=expected,
        observed=observed,
        ground_energy=result.ground_energy,
        correct=correct,
        engine=engine,
    )


def check_operational(
    gate: GateUnderTest,
    parameters: SiDBSimulationParameters | None = None,
    engine: str = "auto",
    schedule: SimAnnealParameters | None = None,
    defects=(),
) -> OperationalReport:
    """Simulate a gate over all of its input patterns.

    ``engine`` selects the ground state finder (see :data:`ENGINES`);
    with the default ``"auto"`` QuickExact decides every pattern whose
    search fits its node budget and SimAnneal the rest.  ``defects``
    optionally lists charged surface defects
    (:class:`~repro.defects.model.SidbDefect`) folded into every
    pattern's energy model as fixed point charges; with none the check
    is bit-identical to the pristine-surface result.
    """
    parameters = parameters or SiDBSimulationParameters()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    defects = tuple(defects)
    total = 1 << gate.num_inputs
    results = []
    for pattern in range(total):
        results.append(
            simulate_pattern(
                gate, pattern, parameters, engine, schedule, defects
            )
        )
        obs.progress("operational.patterns", pattern + 1, total)
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
) -> tuple[str, GroundStateResult]:
    """The engine that decided ``layout`` and its ground state(s)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine in ("quickexact", "exhaustive"):
        return engine, _exact_ground_state(layout, parameters, engine, defects)
    if engine == "auto":
        try:
            return "quickexact", _exact_ground_state(
                layout, parameters, "quickexact", defects
            )
        except BudgetExhausted:
            pass
    # An annealed state depends on the site order and the seed, so
    # SimAnneal always runs on the layout exactly as given.
    model = EnergyModel(layout, parameters, defects) if defects else None
    annealer = SimAnneal(layout, parameters, schedule, model=model)
    return "simanneal", annealer.run()


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
    ``stats=None``.  A QuickExact search that spends
    :data:`QUICKEXACT_NODE_BUDGET` raises
    :class:`~repro.sidb.quickexact.BudgetExhausted`, and so does every
    later call for its class under the same budget, without searching
    again (:data:`~repro.sidb.energy.SPENT_SEARCHES`).
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
        spent_key = key + (QUICKEXACT_NODE_BUDGET,)
        spent = SPENT_SEARCHES.lookup(spent_key)
        if spent is not None:
            obs.add("sidb.ground_state_memo_hits")
            raise BudgetExhausted(QUICKEXACT_NODE_BUDGET, spent)
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
        if engine == "exhaustive":
            canonical = exhaustive_ground_state(
                canonical_layout, parameters, model=model
            )
        else:
            try:
                canonical = quickexact_ground_state(
                    canonical_layout, parameters, model=model,
                    node_budget=QUICKEXACT_NODE_BUDGET,
                )
            except BudgetExhausted as error:
                SPENT_SEARCHES.store(spent_key, error.stats)
                raise
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
