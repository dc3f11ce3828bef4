"""The end-to-end SiDB design flow (Section 4.2 of the paper).

1. parse a specification (Verilog / XAG) as an XOR-AND-inverter graph,
2. cut-based logic rewriting with the exact NPN database,
3. technology mapping onto the Bestagon gate set,
4. SAT-based exact physical design on the hexagonal floor plan
   (heuristic fallback for large instances),
5. SAT-based equivalence checking of specification vs. layout,
6. super-tile merging (clock-zone expansion against the 40 nm pitch),
7. Bestagon library application -> dot-accurate SiDB layout,
8. SiQAD design-file generation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import time
from dataclasses import dataclass, field

from repro import obs
from repro.obs import log as obs_log
from repro.defects.aware import (
    DefectAwareReport,
    recheck_layout_against_defects,
)
from repro.defects.model import SurfaceDefects
from repro.flow.reporting import REPORT_SCHEMA_VERSION, render_summary
from repro.gatelib.apply import apply_library
from repro.gatelib.library import BestagonLibrary
from repro.layout.clocking import ClockingScheme, columnar_rows, scheme_by_name
from repro.layout.drc import check_layout
from repro.layout.gate_layout import GateLevelLayout
from repro.layout.supertile import SuperTilePlan, merge_into_supertiles
from repro.networks.logic_network import LogicNetwork
from repro.networks.verilog import parse_verilog
from repro.networks.xag import Xag
from repro.physical_design.exact import (
    ExactPhysicalDesign,
    ExactStatistics,
    PhysicalDesignError,
)
from repro.physical_design.heuristic import (
    HeuristicPhysicalDesign,
    HeuristicStatistics,
)
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import clear_geometry_cache
from repro.sqd.sqd import write_sqd
from repro.synthesis.database import NpnDatabase
from repro.synthesis.mapping import map_to_bestagon
from repro.synthesis.rewrite import cut_rewrite
from repro.tech.design_rules import DesignRules, DesignRuleViolation
from repro.timing.sta import TimingReport, analyze_timing
from repro.verification.equivalence import (
    EquivalenceResult,
    check_layout_against_network,
)


#: Span names of the paper's eight flow steps, in order; every
#: ``DesignResult.trace`` contains exactly one span per entry.
FLOW_STEP_SPANS = (
    "flow.parse",
    "flow.rewrite",
    "flow.map",
    "flow.place_route",
    "flow.verify",
    "flow.supertiles",
    "flow.library",
    "flow.sqd",
)

_LOG = obs_log.get_logger("flow")


class Engine(str, enum.Enum):
    """Physical design engine selector.

    A ``str`` subclass so existing string comparisons
    (``config.engine == "exact"``) keep working; plain strings are
    normalized to enum members by :class:`FlowConfiguration`.
    """

    AUTO = "auto"
    EXACT = "exact"
    HEURISTIC = "heuristic"


@dataclass(kw_only=True)
class FlowConfiguration:
    """Knobs of the design flow (keyword-only).

    ``engine`` accepts an :class:`Engine` member or its string value;
    unknown strings are rejected at construction time with the valid
    choices listed.  ``clocking`` accepts a ready
    :class:`~repro.layout.clocking.ClockingScheme` or a registry name
    (validated through
    :func:`~repro.layout.clocking.scheme_by_name`).
    """

    engine: Engine | str = Engine.AUTO
    clocking: ClockingScheme | str = field(default_factory=columnar_rows)
    rewrite: bool = True
    verify: bool = True
    verify_conflict_limit: int | None = None
    exact_conflict_limit: int | None = 400_000
    exact_max_width: int = 16
    exact_extra_rows: int = 2
    exact_time_limit_seconds: float | None = None
    heuristic_max_width: int = 32
    database: NpnDatabase | None = None
    library: BestagonLibrary | None = None
    design_rules: DesignRules = field(default_factory=DesignRules)
    #: Surface defects to design around; ``None`` or an empty
    #: collection leaves every step bit-identical to the pristine flow.
    defects: SurfaceDefects | None = None
    #: Worker processes for the flow's parallelizable work (today: the
    #: per-tile defect recheck's simulations).  ``1`` is serial; results
    #: are bit-identical across worker counts, and traces are
    #: structurally identical modulo timings and worker attribution.
    workers: int = 1
    #: Record an observability trace for this run (force-enables the
    #: :mod:`repro.obs` recorder for the duration).  With ``False`` the
    #: flow still records when the recorder is enabled globally.
    trace: bool = True
    #: Run static timing analysis (:mod:`repro.timing`) as part of the
    #: flow and attach a :class:`~repro.timing.sta.TimingReport` as
    #: ``DesignResult.timing``.  Off by default: without it every
    #: artifact (layout, ``summary()`` text, ``.sqd``) is bit-identical
    #: to a flow without the timing layer.
    timing: bool = False
    #: Collect surrogate training examples (:mod:`repro.learn`) from the
    #: physics evaluations this flow performs (today: the defect
    #: recheck's operational simulations) into the default learn
    #: directory.  Off by default; collection never changes any
    #: verdict, layout or artifact -- only a dataset shard appears.
    learn: bool = False

    def __post_init__(self) -> None:
        try:
            self.engine = Engine(self.engine)
        except ValueError:
            choices = ", ".join(repr(e.value) for e in Engine)
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {choices})"
            ) from None
        if isinstance(self.clocking, str):
            try:
                self.clocking = scheme_by_name(self.clocking)
            except KeyError as error:
                raise ValueError(str(error)) from None


@dataclass
class DesignResult:
    """Everything the flow produced for one specification."""

    name: str
    specification: Xag
    optimized: Xag
    mapped: LogicNetwork
    layout: GateLevelLayout
    supertiles: SuperTilePlan
    sidb_layout: SidbLayout
    equivalence: EquivalenceResult | None
    drc_violations: list[DesignRuleViolation]
    engine_used: str
    runtime_seconds: float
    sqd: str = ""
    #: The finished observability trace of this run (``None`` when the
    #: flow ran with ``trace=False`` and the recorder disabled).
    trace: obs.Span | None = None
    #: Result of the defect-aware operational recheck (``None`` unless
    #: the flow ran with surface defects configured).
    defect_report: DefectAwareReport | None = None
    #: Static timing analysis of the layout (``None`` unless the flow
    #: ran with ``FlowConfiguration.timing=True``).
    timing: TimingReport | None = None
    #: ``True`` when this result was served from a design-service
    #: artifact store (:mod:`repro.service`) instead of a fresh flow
    #: execution; ``runtime_seconds`` then reports the *original* run.
    from_cache: bool = False

    @property
    def width(self) -> int:
        return self.layout.width

    @property
    def height(self) -> int:
        return self.layout.height

    @property
    def area_tiles(self) -> int:
        return self.layout.num_tiles

    @property
    def area_nm2(self) -> float:
        return self.layout.area_nm2()

    @property
    def num_sidbs(self) -> int:
        return len(self.sidb_layout)

    def to_sqd(self) -> str:
        """Step 8: the SiQAD design file of the layout."""
        return self.sqd or write_sqd(self.sidb_layout, self.name)

    def report(self) -> dict:
        """The structured, versioned result document.

        This dict -- not the ``summary()`` text -- is the machine
        interface to a flow result: a stable, ``schema_version``-stamped
        record of area, SiDB count, equivalence verdict, DRC, defect
        and timing outcomes.  It is what ``repro synth --json`` prints,
        what the design service persists as ``result.json``, and what
        :meth:`summary` renders.
        """
        equivalence = None
        if self.equivalence is not None:
            equivalence = {
                "verdict": self.equivalence.verdict,
                "equivalent": self.equivalence.equivalent,
                "undecided": self.equivalence.undecided,
                "conflicts": self.equivalence.conflicts,
                "counterexample": self.equivalence.counterexample,
            }
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "width": self.width,
            "height": self.height,
            "area_tiles": self.area_tiles,
            "area_nm2": self.area_nm2,
            "num_sidbs": self.num_sidbs,
            "engine": self.engine_used,
            "runtime_seconds": self.runtime_seconds,
            "clocking": self.layout.clocking.name,
            "equivalence": equivalence,
            "drc_violations": len(self.drc_violations),
            "supertiles": {
                "rows_per_zone": self.supertiles.rows_per_zone,
                "num_zones": self.supertiles.num_zones,
                "fabricable": self.supertiles.is_fabricable,
            },
            "defects": None
            if self.defect_report is None
            else {
                "operational": self.defect_report.operational,
                "defects_total": self.defect_report.defects_total,
                "tiles_checked": self.defect_report.tiles_checked,
            },
            "timing": None if self.timing is None else self.timing.to_dict(),
            "from_cache": self.from_cache,
        }

    def to_dict(self) -> dict:
        """Alias of :meth:`report` (the JSON-ready result document)."""
        return self.report()

    def summary(self) -> str:
        """One-line human summary, rendered over :meth:`report`."""
        return render_summary(self.report())


@contextlib.contextmanager
def _learn_collection(config: FlowConfiguration):
    """Install a learn-example collector for the flow's physics work.

    With ``config.learn`` the flow's operational simulations (the
    defect recheck) are recorded as surrogate training examples and
    flushed as one dataset shard on exit; otherwise this is a no-op
    and the flow stays allocation-free on the learn path.
    """
    if not config.learn:
        yield None
        return
    from repro.learn import hooks as learn_hooks
    from repro.learn.dataset import ExampleCollector

    collector = ExampleCollector.default()
    previous = learn_hooks.set_collector(collector)
    try:
        yield collector
    finally:
        learn_hooks.set_collector(previous)
        examples = len(collector)
        shard = collector.flush()
        obs.add("learn.flow_examples", examples)
        _LOG.info(
            "flow.learn",
            examples=examples,
            shard=None if shard is None else str(shard),
        )


def design_sidb_circuit(
    specification: str | Xag,
    name: str | None = None,
    configuration: FlowConfiguration | None = None,
) -> DesignResult:
    """Run the complete flow on a Verilog string or an XAG."""
    config = configuration or FlowConfiguration()
    start = time.time()
    # Start the physics cold, as a fresh process does: a ground state
    # memoised by an earlier design would drop this design's engine
    # spans, and its trace should depend only on its own inputs.
    clear_geometry_cache()

    with obs.capture(
        "design_flow", enable=True if config.trace else None
    ) as captured, _learn_collection(config):
        # Step 1: parse.
        with obs.span("flow.parse") as span:
            if isinstance(specification, str):
                xag = parse_verilog(specification, name)
            else:
                xag = specification
            if name is None:
                name = xag.name
            span.set("name", name)
            _LOG.debug("flow.parse", name=name, gates=xag.num_gates)

        # Step 2: cut rewriting with the exact NPN database.
        with obs.span("flow.rewrite") as span:
            database = config.database or NpnDatabase()
            optimized = (
                cut_rewrite(xag, database) if config.rewrite else xag.cleanup()
            )
            span.set("enabled", config.rewrite)
            span.set("gates", optimized.num_gates)
            _LOG.debug(
                "flow.rewrite",
                enabled=config.rewrite,
                gates=optimized.num_gates,
            )

        # Step 3: technology mapping.
        with obs.span("flow.map") as span:
            mapped = map_to_bestagon(optimized)
            span.set("nodes", mapped.num_nodes)
            _LOG.debug("flow.map", nodes=mapped.num_nodes)

        # Step 4: physical design.
        with obs.span("flow.place_route") as span:
            try:
                layout, engine_used = _place_and_route(mapped, config)
            except PhysicalDesignError as error:
                # The capture finishes its root span as the error leaves.
                error.trace = captured.span
                raise
            span.set("engine", engine_used)
            span.set("width", layout.width)
            span.set("height", layout.height)
            _LOG.debug(
                "flow.place_route",
                engine=engine_used,
                width=layout.width,
                height=layout.height,
            )

        # Step 5: equivalence checking.
        with obs.span("flow.verify") as span:
            equivalence = (
                check_layout_against_network(
                    xag, layout, config.verify_conflict_limit
                )
                if config.verify
                else None
            )
            span.set(
                "verdict",
                equivalence.verdict if equivalence else "skipped",
            )
            _LOG.debug(
                "flow.verify",
                verdict=equivalence.verdict if equivalence else "skipped",
            )

        # DRC on the gate-level layout.
        with obs.span("flow.drc") as span:
            violations = check_layout(layout)
            span.set("violations", len(violations))

        # Step 6: super-tile merging.
        with obs.span("flow.supertiles"):
            supertiles = merge_into_supertiles(layout, config.design_rules)
            _LOG.debug("flow.supertiles", rows=supertiles.rows_per_zone)

        # Static timing analysis (only when requested, so a flow without
        # timing stays bit-identical, trace included).  The gate-level
        # scheme report carries the merged super-tile latency alongside.
        timing = None
        if config.timing:
            with obs.span("flow.timing") as span:
                timing = analyze_timing(layout, config.clocking)
                merged = analyze_timing(layout, supertiles=supertiles)
                timing = dataclasses.replace(
                    timing,
                    supertile_latency_phases=merged.latency_phases,
                    supertile_rows_per_zone=supertiles.rows_per_zone,
                )
                span.set("scheme", timing.scheme)
                span.set("latency_phases", timing.latency_phases)
                span.set("wns_phases", timing.wns_phases)
                span.set("critical_path_tiles", len(timing.critical_path))

        # Step 7: library application.
        with obs.span("flow.library") as span:
            library = config.library or BestagonLibrary()
            sidb_layout = apply_library(layout, library)
            span.set("sidbs", len(sidb_layout))
            _LOG.debug("flow.library", sidbs=len(sidb_layout))

        # Defect-aware operational recheck (only with defects present,
        # so the pristine flow stays bit-identical, trace included).
        defect_report = None
        if config.defects:
            with obs.span("flow.defects") as span:
                defect_report = recheck_layout_against_defects(
                    layout,
                    config.defects,
                    library=library,
                    workers=config.workers,
                )
                span.set("defects", defect_report.defects_total)
                span.set("tiles", len(defect_report.tiles))
                span.set("operational", defect_report.operational)

        # Step 8: SiQAD design-file generation.
        with obs.span("flow.sqd") as span:
            sqd = write_sqd(sidb_layout, name, config.defects)
            span.set("bytes", len(sqd))
            _LOG.debug("flow.sqd", bytes=len(sqd))

        if captured.span is not None:
            captured.span.set("name", name)
            captured.span.set("engine", engine_used)

    _LOG.info(
        "flow.done",
        name=name,
        engine=engine_used,
        width=layout.width,
        height=layout.height,
        runtime_seconds=round(time.time() - start, 6),
    )
    return DesignResult(
        name=name,
        specification=xag,
        optimized=optimized,
        mapped=mapped,
        layout=layout,
        supertiles=supertiles,
        sidb_layout=sidb_layout,
        equivalence=equivalence,
        drc_violations=violations,
        engine_used=engine_used,
        runtime_seconds=time.time() - start,
        sqd=sqd,
        trace=captured.span,
        defect_report=defect_report,
        timing=timing,
    )


def _place_and_route(
    mapped: LogicNetwork, config: FlowConfiguration
) -> tuple[GateLevelLayout, str]:
    if config.engine not in ("exact", "heuristic", "auto"):
        raise ValueError(f"unknown engine {config.engine!r}")
    if config.engine in ("exact", "auto"):
        engine = ExactPhysicalDesign(
            max_width=config.exact_max_width,
            extra_rows=config.exact_extra_rows,
            conflict_limit=config.exact_conflict_limit,
            clocking=config.clocking,
            time_limit_seconds=config.exact_time_limit_seconds,
            defects=config.defects,
        )
        try:
            return engine.run(mapped, ExactStatistics()), "exact"
        except PhysicalDesignError:
            if config.engine == "exact":
                raise
    heuristic = HeuristicPhysicalDesign(
        clocking=config.clocking,
        max_width=config.heuristic_max_width,
        restarts_per_width=4,
        moves_per_restart=2500,
        defects=config.defects,
    )
    return heuristic.run(mapped, HeuristicStatistics()), "heuristic"
