"""Table-1 style reporting: paper reference values and row formatting,
rendering of a run's observability trace, and the renderers over the
structured :meth:`~repro.flow.design_flow.DesignResult.report` document
(the ``summary()`` text is *derived* from the report, never the other
way around)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.tech.area import layout_area_nm2

if TYPE_CHECKING:
    from repro.flow.design_flow import DesignResult

#: Version stamp of the structured result document returned by
#: :meth:`DesignResult.report` / ``to_dict``.  Bump on any breaking
#: change to the document layout; additive fields do not bump it.
REPORT_SCHEMA_VERSION = 1

#: ``equivalence.verdict`` -> the historical ``summary()`` wording.
_VERDICT_TEXT = {
    None: "UNVERIFIED",
    "undecided": "UNDECIDED",
    "equivalent": "verified",
    "not_equivalent": "NOT EQUIVALENT",
}


def render_summary(report: dict) -> str:
    """The one-line human summary of a structured result document.

    This is the single source of the ``DesignResult.summary()`` text;
    the base line is byte-identical to the pre-report format, the DRC
    suffix only appears when the layout violates a design rule, and the
    defect / timing suffixes only appear when those sections exist.
    """
    equivalence = report.get("equivalence")
    verdict = equivalence["verdict"] if equivalence else None
    verified = _VERDICT_TEXT[verdict]
    text = (
        f"{report['name']}: {report['width']}x{report['height']} = "
        f"{report['area_tiles']} tiles, {report['num_sidbs']} SiDBs, "
        f"{report['area_nm2']:.2f} nm^2, "
        f"{verified} ({report['engine']}, "
        f"{report['runtime_seconds']:.2f} s)"
    )
    violations = report.get("drc_violations")
    if violations:
        text += f", DRC: {violations} violations"
    defects = report.get("defects")
    if defects is not None:
        state = "ok" if defects["operational"] else "FAILING"
        text += (
            f", defects: {state} "
            f"({defects['defects_total']} on surface)"
        )
    timing = report.get("timing")
    if timing is not None:
        waves, cycles = timing["throughput"]
        text += (
            f", timing: {timing['latency_phases']} phases "
            f"({timing['latency_ps'] / 1000.0:.2f} ns), "
            f"throughput {waves}/{cycles}"
        )
    return text


@dataclass(frozen=True)
class Table1Reference:
    """One row of the paper's Table 1."""

    name: str
    suite: str
    width: int
    height: int
    sidbs: int
    area_nm2: float

    @property
    def tiles(self) -> int:
        return self.width * self.height


# Table 1 of the paper, verbatim.
TABLE1_REFERENCE: dict[str, Table1Reference] = {
    row.name: row
    for row in (
        Table1Reference("xor2", "trindade16", 2, 3, 58, 2403.98),
        Table1Reference("xnor2", "trindade16", 2, 3, 58, 2403.98),
        Table1Reference("par_gen", "trindade16", 3, 4, 103, 4830.22),
        Table1Reference("mux21", "trindade16", 3, 6, 196, 7258.52),
        Table1Reference("par_check", "trindade16", 4, 7, 284, 11312.68),
        Table1Reference("xor5_r1", "fontes18", 5, 6, 232, 12124.57),
        Table1Reference("xor5_majority", "fontes18", 5, 6, 244, 12124.57),
        Table1Reference("t", "fontes18", 5, 8, 426, 16180.79),
        Table1Reference("t_5", "fontes18", 5, 8, 448, 16180.79),
        Table1Reference("c17", "fontes18", 5, 8, 396, 16180.79),
        Table1Reference("majority", "fontes18", 5, 11, 651, 22265.12),
        Table1Reference("majority_5_r1", "fontes18", 5, 12, 737, 24293.23),
        Table1Reference("cm82a_5", "fontes18", 5, 15, 1211, 30377.56),
        Table1Reference("newtag", "fontes18", 8, 10, 651, 32419.82),
    )
}


def reference_area_consistency() -> dict[str, float]:
    """Per-row delta between the paper's area and our area model (nm^2).

    All deltas are below the rounding precision of the paper's table,
    confirming the reverse-engineered 60x46 tile dimensions.
    """
    return {
        name: abs(layout_area_nm2(row.width, row.height) - row.area_nm2)
        for name, row in TABLE1_REFERENCE.items()
    }


def trace_report(result: "DesignResult") -> str:
    """Human-readable span tree of one flow run (``--trace`` output).

    Wall/CPU time per step, per-candidate P&R attempts with their CNF
    sizes and outcomes, and the SAT counters reported by the solver.
    """
    if result.trace is None:
        return (
            f"{result.name}: no trace recorded "
            "(run with FlowConfiguration.trace=True or obs.enable())"
        )
    header = (
        f"trace of {result.name!r}: "
        f"{result.trace.wall_seconds:.3f} s wall, "
        f"{result.trace.cpu_seconds:.3f} s cpu, "
        f"{sum(1 for _ in result.trace.walk())} spans, "
        f"{result.trace.total('sat.conflicts'):.0f} SAT conflicts"
    )
    return header + "\n" + obs.render_tree(result.trace)


def trace_json(result: "DesignResult") -> str:
    """The trace of one flow run as JSON (``--trace-json`` output)."""
    if result.trace is None:
        raise ValueError(
            f"no trace recorded for {result.name!r}; run with "
            "FlowConfiguration.trace=True or obs.enable()"
        )
    return obs.trace_to_json(result.trace)


def format_table1_row(
    name: str,
    width: int,
    height: int,
    sidbs: int,
    area_nm2: float,
) -> str:
    """One measured row next to the paper's values."""
    reference = TABLE1_REFERENCE.get(name)
    if reference is None:
        return (
            f"{name:15s} {width}x{height}={width * height:4d}  "
            f"SiDBs={sidbs:5d}  {area_nm2:10.2f} nm^2  (no reference)"
        )
    match = "==" if (width, height) == (reference.width, reference.height) else "!="
    return (
        f"{name:15s} ours {width}x{height}={width * height:4d} "
        f"SiDBs={sidbs:5d} {area_nm2:10.2f} nm2  |  paper "
        f"{reference.width}x{reference.height}={reference.tiles:4d} "
        f"SiDBs={reference.sidbs:5d} {reference.area_nm2:10.2f} nm2  [{match}]"
    )
