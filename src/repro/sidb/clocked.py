"""Clocked signal propagation (the Figure 2 demonstration).

SiDB clocking is expected to be achieved "through the modulation of
surface charge populations where segments can be deactivated by removing
surface charges, creating an electrically neutral region".  This module
models that mechanism on a BDL wire split into clock zones: a zone's
sites only participate in the ground-state search while *activated*; a
deactivated zone is electrically neutral.

Phase by phase, the information front advances one zone per phase while
the zone two phases behind is deactivated -- the pipeline of Figure 2.
Each phase is one input pattern of a
:class:`~repro.sidb.operational.GateUnderTest` simulated by
:func:`~repro.sidb.operational.simulate_pattern`, the check every tile
goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coords.lattice import LatticeSite
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest, simulate_pattern
from repro.tech.constants import CLOCK_PHASES
from repro.tech.parameters import SiDBSimulationParameters
from repro.gatelib.designs import CLOSE_GAP, FAR_GAP, OUT_GAP, WIRE_PITCH


@dataclass
class ClockedWire:
    """A straight BDL wire partitioned into clock zones."""

    pairs_per_zone: int = 2
    num_zones: int = CLOCK_PHASES
    parameters: SiDBSimulationParameters = field(
        default_factory=SiDBSimulationParameters
    )

    def __post_init__(self) -> None:
        self.zone_pairs: list[list[BdlPair]] = []
        row = 0
        for _ in range(self.num_zones):
            zone = []
            for _ in range(self.pairs_per_zone):
                zone.append(
                    BdlPair(
                        LatticeSite.from_row(0, row),
                        LatticeSite.from_row(0, row + 2),
                    )
                )
                row += WIRE_PITCH
            self.zone_pairs.append(zone)
        self._last_row = row - WIRE_PITCH + 2

    def simulate_phase(
        self, active_zones: list[int], input_bit: bool
    ) -> dict[int, list[bool | None]]:
        """Ground state of the active zones under the input stimulus.

        Returns, per active zone, the logic value read from each of its
        BDL pairs (``None`` for a pair holding no valid BDL state).
        Deactivated zones contribute no charges (electrically neutral
        regions acting as separators).
        """
        pairs = [
            (zone_index, pair)
            for zone_index in active_zones
            for pair in self.zone_pairs[zone_index]
        ]
        body = [site for _, pair in pairs for site in (pair.site0, pair.site1)]
        # Output-side hold perturber below the last *active* pair.
        last_active_row = max(pair.site1.row for _, pair in pairs)
        body.append(LatticeSite.from_row(0, last_active_row + OUT_GAP))
        # Input perturber (close = 1, far = 0) above the wire head.
        gate = GateUnderTest(
            body=body,
            input_stimuli=[
                (
                    [LatticeSite.from_row(0, -FAR_GAP)],
                    [LatticeSite.from_row(0, -CLOSE_GAP)],
                )
            ],
            output_pairs=[pair for _, pair in pairs],
            outputs=[TruthTable.variable(0, 1)] * len(pairs),
        )
        observed = simulate_pattern(
            gate, int(input_bit), self.parameters
        ).observed
        reads: dict[int, list[bool | None]] = {z: [] for z in active_zones}
        for (zone_index, _), value in zip(pairs, observed):
            reads[zone_index].append(value)
        return reads

    def propagate(self, input_bit: bool) -> list[dict[int, list[bool | None]]]:
        """Run the four-phase schedule; returns the per-phase zone reads.

        Phase ``p`` activates zones ``0..p`` (the information front
        reaches zone ``p``); the returned history shows the input value
        marching zone by zone through the wire.
        """
        history = []
        for phase in range(self.num_zones):
            active = list(range(phase + 1))
            history.append(self.simulate_phase(active, input_bit))
        return history

    def front_arrived(self, history, input_bit: bool) -> bool:
        """Whether the final phase delivered the input to the last zone."""
        final = history[-1]
        last_zone = self.num_zones - 1
        values = final.get(last_zone, [])
        return bool(values) and all(v == input_bit for v in values)
