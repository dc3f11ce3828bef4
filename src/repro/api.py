"""Stable public API of the repro package.

Everything an application needs lives here under one import::

    from repro import api

    result = api.design("mux21")                     # pristine surface
    result = api.design("c17", engine=api.Engine.EXACT)
    defects = api.SurfaceDefects.sample(120, 92, density_per_nm2=1e-4)
    result = api.design("xor2", defects=defects)     # defect-aware

The deeper module paths (:mod:`repro.flow`, :mod:`repro.sidb`, ...)
remain importable but are implementation detail; only the names
re-exported here are covered by the compatibility snapshot enforced by
``scripts/check_api_surface.py``.
"""

from __future__ import annotations

import os
import sys

from repro import package_version
from repro.coords.lattice import LatticeSite
from repro.defects import (
    DefectType,
    SidbDefect,
    SurfaceDefects,
    recheck_layout_against_defects,
)
from repro.flow.design_flow import (
    DesignResult,
    Engine,
    FlowConfiguration,
    design_sidb_circuit,
)
from repro.flow.reporting import (
    REPORT_SCHEMA_VERSION,
    format_table1_row,
    render_summary,
    trace_json,
    trace_report,
)
from repro.gatelib.designer import CanvasSearchProblem, search_canvas_design
from repro.layout.clocking import SCHEMES as _CLOCKING_SCHEME_REGISTRY
from repro.layout.clocking import scheme_by_name
from repro.gatelib.designs import core_parameters, two_input_core
from repro.gatelib.library import GATE_LIBRARY_VERSION, BestagonLibrary
from repro.layout.render import layout_to_ascii, layout_to_svg
from repro.networks import (
    BENCHMARK_NAMES,
    TruthTable,
    Xag,
    benchmark_verilog,
)
from repro.obs import (
    LineProgressReporter,
    progress_scope,
    to_chrome_trace,
    to_prometheus,
    trace_from_json,
)
from repro.obs.log import LEVELS as LOG_LEVELS
from repro.obs.log import LOG_SCHEMA_VERSION, get_logger
from repro.obs.log import bind as log_bind
from repro.obs.log import configure as configure_logging
from repro.obs.log import shutdown as shutdown_logging
from repro.obs.tracing import (
    continue_trace,
    new_trace_context,
    parse_traceparent,
)
from repro.physical_design import PhysicalDesignError
from repro.sidb.bdl import BdlPair
from repro.sidb.charge import SidbLayout
from repro.sidb.clocked import ClockedWire
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import GateUnderTest, check_operational
from repro.sidb.quickexact import quickexact_ground_state
from repro.service import (
    ArtifactStore,
    DesignService,
    UncacheableConfigurationError,
)
from repro.service.scheduler import JOB_SCHEMA_VERSION
from repro.timing import TimingReport, analyze_timing, explore_clocking
from repro.timing.sta import TIMING_SCHEMA_VERSION
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.sqd.sqd import SQD_WRITER_VERSION
from repro.synthesis.database import NpnDatabase
from repro.tech.constants import MIN_METAL_PITCH_NM
from repro.tech.parameters import SiDBSimulationParameters

#: Names of the registered clocking schemes; each resolves through
#: :func:`scheme_by_name` and is accepted by ``FlowConfiguration(
#: clocking=...)``.
CLOCKING_SCHEMES = tuple(sorted(_CLOCKING_SCHEME_REGISTRY))

__all__ = [
    # The one-call flow.
    "design",
    "load_specification",
    "DesignResult",
    "FlowConfiguration",
    "Engine",
    "PhysicalDesignError",
    # Surface defects.
    "DefectType",
    "SidbDefect",
    "SurfaceDefects",
    "recheck_layout_against_defects",
    # Benchmarks + reporting.
    "BENCHMARK_NAMES",
    "format_table1_row",
    "render_summary",
    "REPORT_SCHEMA_VERSION",
    "trace_json",
    "trace_report",
    # Static timing analysis + clocking exploration.
    "TimingReport",
    "analyze_timing",
    "TIMING_SCHEMA_VERSION",
    "explore_clocking",
    "CLOCKING_SCHEMES",
    "scheme_by_name",
    # Telemetry: trace exporters, live progress.
    "LineProgressReporter",
    "progress_scope",
    "to_chrome_trace",
    "to_prometheus",
    "trace_from_json",
    # Distributed tracing (W3C trace context).
    "new_trace_context",
    "parse_traceparent",
    "continue_trace",
    # Structured JSON-lines logging.
    "configure_logging",
    "shutdown_logging",
    "get_logger",
    "log_bind",
    "LOG_LEVELS",
    "LOG_SCHEMA_VERSION",
    # Rendering.
    "layout_to_ascii",
    "layout_to_svg",
    # Gate library + designer toolkit.
    "BestagonLibrary",
    "NpnDatabase",
    "CanvasSearchProblem",
    "search_canvas_design",
    "core_parameters",
    "two_input_core",
    "GateUnderTest",
    "check_operational",
    # Physics.
    "SidbLayout",
    "SiDBSimulationParameters",
    "SimAnneal",
    "SimAnnealParameters",
    "exhaustive_ground_state",
    "quickexact_ground_state",
    "BdlPair",
    "ClockedWire",
    "MIN_METAL_PITCH_NM",
    # Coordinates + specifications.
    "LatticeSite",
    "TruthTable",
    "Xag",
    # Design service: artifact cache, HTTP front end.
    "ArtifactStore",
    "DesignService",
    "JOB_SCHEMA_VERSION",
    "UncacheableConfigurationError",
    "package_version",
    "GATE_LIBRARY_VERSION",
    "SQD_WRITER_VERSION",
]


def load_specification(source: str) -> tuple[str, str]:
    """Resolve ``source`` to ``(verilog text, design name)``.

    ``source`` is a Verilog file path or a built-in benchmark name.  An
    existing file always wins; if its stem also names a benchmark, a
    warning is printed so the shadowing is visible.  A path ending in
    ``.v`` that does not exist is reported as a missing file -- not as
    an unknown benchmark -- and an unknown name lists the valid
    benchmarks.
    """
    if os.path.exists(source):
        if source in BENCHMARK_NAMES:
            print(
                f"warning: '{source}' is both a file and a benchmark "
                "name; using the file (rename it or pass the benchmark "
                "from another directory to get the built-in)",
                file=sys.stderr,
            )
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
        return text, os.path.splitext(os.path.basename(source))[0]
    if source.endswith(".v"):
        raise FileNotFoundError(f"Verilog file not found: '{source}'")
    if source in BENCHMARK_NAMES:
        return benchmark_verilog(source), source
    raise ValueError(
        f"'{source}' is neither a file nor a benchmark "
        f"(known: {', '.join(sorted(BENCHMARK_NAMES))})"
    )


def design(
    specification: str | Xag,
    *,
    name: str | None = None,
    engine: Engine | str = Engine.AUTO,
    defects: SurfaceDefects | None = None,
    configuration: FlowConfiguration | None = None,
    cache: "bool | str | os.PathLike | ArtifactStore | None" = None,
    **options,
) -> DesignResult:
    """Run the complete 8-step flow; the one-call entry point.

    ``specification`` is a benchmark name, a Verilog file path, Verilog
    source text, or an :class:`Xag`.  ``defects`` makes every stage of
    the flow design around the given surface defects; ``engine`` picks
    the placement & routing engine.  Remaining keyword ``options`` are
    forwarded to :class:`FlowConfiguration` (e.g. ``verify=False``,
    ``exact_max_width=12``); alternatively pass a ready-made
    ``configuration``, which must not be combined with other knobs.

    ``cache`` enables the design-service artifact store: ``True`` uses
    the default store (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), a
    path uses a store rooted there, and an :class:`ArtifactStore` is
    used directly.  A hit returns a rehydrated result with
    ``from_cache=True`` and a byte-identical ``.sqd``; a miss runs the
    flow and persists its artifacts.  Configurations the cache digest
    cannot canonicalize (custom ``database``/``library`` objects,
    unregistered clocking schemes) silently run uncached.
    """
    if configuration is not None:
        if options or defects is not None or engine != Engine.AUTO:
            raise TypeError(
                "pass either a ready-made 'configuration' or individual "
                "flow options, not both"
            )
        config = configuration
    else:
        config = FlowConfiguration(engine=engine, defects=defects, **options)
    if isinstance(specification, Xag):
        spec: str | Xag = specification
    elif "module" in specification and not (
        os.path.exists(specification) or specification.endswith(".v")
    ):
        spec = specification
    else:
        spec, resolved = load_specification(specification)
        name = name or resolved
    if cache is not None and cache is not False:
        result = _design_cached(spec, name, config, cache)
        if result is not None:
            return result
    return design_sidb_circuit(spec, name, config)


def _design_cached(
    specification: str | Xag,
    name: str | None,
    config: FlowConfiguration,
    cache: "bool | str | os.PathLike | ArtifactStore",
) -> DesignResult | None:
    """The cache-enabled path of :func:`design`.

    Returns ``None`` when the configuration is uncacheable, telling
    the caller to fall through to an uncached run.
    """
    from repro.service.digest import (
        UncacheableConfigurationError,
        design_digest,
        normalize_configuration,
    )
    from repro.service.store import ArtifactStore

    try:
        normalized = normalize_configuration(config)
        digest = design_digest(specification, name, config)
    except UncacheableConfigurationError:
        return None
    store = ArtifactStore.resolve(cache)
    cached = store.load_result(digest)
    if cached is not None:
        return cached
    result = design_sidb_circuit(specification, name, config)
    source = specification if isinstance(specification, str) else None
    store.store_result(digest, result, normalized, source=source)
    return result
