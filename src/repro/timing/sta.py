"""Static timing analysis over clocked hexagonal gate-level layouts.

The FCN clocking discipline makes timing *discrete*: a signal advances
exactly when the clock zone of the next tile activates, so delay is
measured in clock phases, not in gate propagation times.  Arrival-time
propagation therefore reduces to a longest-path computation over the
layout's signal graph with per-hop phase costs:

* under a gate-level :class:`~repro.layout.clocking.ClockingScheme`, a
  hop to a tile clocked ``d`` phases ahead costs ``d`` phases (1 for a
  perfectly pipelined hop, a full wave for a same-zone hop -- the
  signal stalls until the target zone re-activates);
* under a :class:`~repro.layout.supertile.SuperTilePlan`, consecutive
  rows merged into one electrode share a phase, so intra-zone hops are
  free and only zone-boundary crossings cost a phase ("signals traverse
  ``k`` rows per clock phase").

Every layout produced by the flow is a feed-forward DAG whose edges all
point one row down, so row-major order is a topological order and one
linear pass suffices -- the analysis is O(tiles) and costs microseconds
even on the largest Table-1 design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.layout.clocking import ClockingScheme
from repro.layout.gate_layout import GateLevelLayout, TileKind
from repro.layout.supertile import SuperTilePlan
from repro.tech.constants import CLOCK_PHASE_DURATION_PS

#: Version stamp of :meth:`TimingReport.to_dict`; bump on layout change.
TIMING_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PhaseDelayModel:
    """Per-hop delay model derived from a clock-zone assignment.

    ``intra_zone_free`` distinguishes the two physical regimes: merged
    super-tile zones ripple signals through same-zone rows within one
    phase, while a gate-level scheme stalls a same-zone hop for a full
    wave (``num_phases`` phases).
    """

    zone_of: Callable[[HexCoord], int]
    num_phases: int
    scheme_name: str
    intra_zone_free: bool = False
    phase_duration_ps: float = CLOCK_PHASE_DURATION_PS

    @classmethod
    def from_scheme(cls, scheme: ClockingScheme) -> "PhaseDelayModel":
        return cls(
            zone_of=scheme.zone_of,
            num_phases=scheme.num_phases,
            scheme_name=scheme.name,
        )

    @classmethod
    def from_supertiles(cls, plan: SuperTilePlan) -> "PhaseDelayModel":
        return cls(
            zone_of=plan.zone_of,
            num_phases=plan.layout.clocking.num_phases,
            scheme_name=(
                f"{plan.layout.clocking.name}"
                f"/supertiles(k={plan.rows_per_zone})"
            ),
            intra_zone_free=True,
        )

    def hop_phases(self, source: HexCoord, target: HexCoord) -> int:
        """Clock phases spent on one tile-to-tile hop.

        A hop whose target is clocked ``d`` phases ahead costs ``d``
        phases: the signal waits in the source zone until the target
        activates, so a pipelined hop costs one.  A same-zone hop costs
        a full wave, or nothing inside a merged super-tile zone.
        """
        delta = (
            self.zone_of(target) - self.zone_of(source)
        ) % self.num_phases
        if delta:
            return delta
        return 0 if self.intra_zone_free else self.num_phases


@dataclass(frozen=True)
class TimingReport:
    """The static timing verdict of one layout under one delay model.

    All phase counts use the convention that a primary input launches
    at phase 0 of its own zone; ``latency_phases`` is the worst arrival
    over all primary outputs.  Slack is measured against the paper's
    fully pipelined row discipline (one phase per tile row), whose
    reference latency is ``height - 1`` phases -- so the native
    row-based Columnar analysis of a flow-produced layout has
    ``wns_phases == 0`` and any scheme that misaligns with the placed
    geometry shows up as negative slack.
    """

    name: str
    scheme: str
    num_phases: int
    analyzed_tiles: int
    critical_path: tuple[HexCoord, ...]
    latency_phases: int
    throughput: tuple[int, int]
    wns_phases: int
    tns_phases: int
    max_skew_phases: int
    po_arrival_phases: dict[str, int] = field(default_factory=dict)
    phase_duration_ps: float = CLOCK_PHASE_DURATION_PS
    #: Latency of the same layout after super-tile merging (filled in
    #: by the flow, which analyzes both regimes).
    supertile_latency_phases: int | None = None
    supertile_rows_per_zone: int | None = None

    @property
    def latency_ps(self) -> float:
        """Worst PI-to-PO latency in picoseconds."""
        return self.latency_phases * self.phase_duration_ps

    @property
    def throughput_str(self) -> str:
        """The paper's ``waves/cycles`` notation (1/1 = fully pipelined)."""
        return f"{self.throughput[0]}/{self.throughput[1]}"

    def summary(self) -> str:
        return (
            f"{self.name} [{self.scheme}]: "
            f"latency {self.latency_phases} phases "
            f"({self.latency_ps / 1000.0:.2f} ns), "
            f"throughput {self.throughput_str}, "
            f"wns {self.wns_phases:+d}, "
            f"critical path {len(self.critical_path)} tiles"
        )

    def to_dict(self) -> dict:
        """JSON-ready record; inverse of :meth:`from_dict`."""
        return {
            "schema_version": TIMING_SCHEMA_VERSION,
            "name": self.name,
            "scheme": self.scheme,
            "num_phases": self.num_phases,
            "analyzed_tiles": self.analyzed_tiles,
            "critical_path": [[c.x, c.y] for c in self.critical_path],
            "latency_phases": self.latency_phases,
            "latency_ps": self.latency_ps,
            "throughput": list(self.throughput),
            "wns_phases": self.wns_phases,
            "tns_phases": self.tns_phases,
            "max_skew_phases": self.max_skew_phases,
            "po_arrival_phases": dict(self.po_arrival_phases),
            "phase_duration_ps": self.phase_duration_ps,
            "supertile_latency_phases": self.supertile_latency_phases,
            "supertile_rows_per_zone": self.supertile_rows_per_zone,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimingReport":
        return cls(
            name=data["name"],
            scheme=data["scheme"],
            num_phases=int(data["num_phases"]),
            analyzed_tiles=int(data["analyzed_tiles"]),
            critical_path=tuple(
                HexCoord(int(x), int(y)) for x, y in data["critical_path"]
            ),
            latency_phases=int(data["latency_phases"]),
            throughput=(
                int(data["throughput"][0]),
                int(data["throughput"][1]),
            ),
            wns_phases=int(data["wns_phases"]),
            tns_phases=int(data["tns_phases"]),
            max_skew_phases=int(data["max_skew_phases"]),
            po_arrival_phases={
                key: int(value)
                for key, value in data.get("po_arrival_phases", {}).items()
            },
            phase_duration_ps=float(
                data.get("phase_duration_ps", CLOCK_PHASE_DURATION_PS)
            ),
            supertile_latency_phases=data.get("supertile_latency_phases"),
            supertile_rows_per_zone=data.get("supertile_rows_per_zone"),
        )


#: A signal instance is identified by the tile it departs from and the
#: border it leaves through.
_SignalKey = tuple[HexCoord, HexDirection]


def analyze_timing(
    layout: GateLevelLayout,
    scheme: ClockingScheme | None = None,
    supertiles: SuperTilePlan | None = None,
    name: str | None = None,
) -> TimingReport:
    """Propagate arrival times and extract the critical path.

    With ``supertiles`` the merged-zone delay model is used (intra-zone
    hops free); otherwise ``scheme`` (default: the layout's own
    clocking) assigns gate-level zones.  The layout's geometry is taken
    as-is, so a layout placed under one scheme can be *re-zoned* under
    another to quantify how much latency that scheme would cost -- the
    basis of :func:`repro.timing.explore.explore_clocking`.
    """
    if supertiles is not None:
        model = PhaseDelayModel.from_supertiles(supertiles)
    else:
        model = PhaseDelayModel.from_scheme(scheme or layout.clocking)

    # Departure phase of every signal at its (tile, exit border), plus
    # back-pointers for critical-path reconstruction.  Row-major order
    # is topological: every signal edge points exactly one row down.
    departure: dict[_SignalKey, int] = {}
    parent: dict[_SignalKey, _SignalKey | None] = {}
    tile_arrival: dict[HexCoord, int] = {}
    gate_parent: dict[HexCoord, _SignalKey | None] = {}
    max_skew = 0

    for coord, content in layout.occupied():
        inputs: list[tuple[int, _SignalKey]] = []
        for in_dir in content.input_dirs:
            driver = layout.driver_of(coord, in_dir)
            if driver is None:
                continue
            source, _ = driver
            key = (source, in_dir.opposite)
            if key not in departure:
                continue
            arrival = departure[key] + model.hop_phases(source, coord)
            inputs.append((arrival, key))

        if content.kind is TileKind.GATE:
            if inputs:
                arrival_here, argmax = max(inputs, key=lambda item: item[0])
                if len(inputs) >= 2:
                    skew = arrival_here - min(a for a, _ in inputs)
                    max_skew = max(max_skew, skew)
            else:
                arrival_here, argmax = 0, None  # primary input
            tile_arrival[coord] = arrival_here
            gate_parent[coord] = argmax
            for out_dir in content.output_dirs:
                departure[(coord, out_dir)] = arrival_here
                parent[(coord, out_dir)] = argmax
        else:
            # Two independent signals pass through (CROSS/DOUBLE_WIRE);
            # each keeps its own arrival.
            for arrival, key in inputs:
                in_dir = key[1].opposite
                out_dir = content.signal_through(in_dir)
                departure[(coord, out_dir)] = arrival
                parent[(coord, out_dir)] = key
            if inputs:
                tile_arrival[coord] = max(a for a, _ in inputs)

    # Latency and slack over the primary outputs.
    po_arrivals: dict[str, int] = {}
    worst_po: HexCoord | None = None
    latency = 0
    required = layout.height - 1
    slacks: list[int] = []
    for coord, _ in layout.primary_outputs():
        arrival = tile_arrival.get(coord, 0)
        po_arrivals[str(coord)] = arrival
        slacks.append(required - arrival)
        if worst_po is None or arrival > latency:
            worst_po = coord
            latency = arrival

    # Critical path: follow per-signal back-pointers so the correct
    # signal is traced through two-signal (CROSS/DOUBLE) tiles.
    critical: list[HexCoord] = []
    if worst_po is not None:
        critical.append(worst_po)
        key = gate_parent.get(worst_po)
        while key is not None:
            critical.append(key[0])
            key = parent.get(key)
        critical.reverse()

    waves, cycles = 1, 1
    if max_skew:
        cycles = 1 + -(-max_skew // model.num_phases)  # ceil division

    return TimingReport(
        name=name or layout.name,
        scheme=model.scheme_name,
        num_phases=model.num_phases,
        analyzed_tiles=len(tile_arrival),
        critical_path=tuple(critical),
        latency_phases=latency,
        throughput=(waves, cycles),
        wns_phases=min(slacks) if slacks else 0,
        tns_phases=sum(s for s in slacks if s < 0),
        max_skew_phases=max_skew,
        po_arrival_phases=po_arrivals,
        phase_duration_ps=model.phase_duration_ps,
    )
