"""Dot-accurate Bestagon tile designs.

Every design is assembled from BDL motifs whose parameters were found by
the exhaustive-oracle scans in ``scripts/design_gates.py`` (stored in
``found_designs.json``; hard-coded fallbacks are the last-known-good
values from those scans):

* **straight wire**: vertical BDL pairs, intra-pair 2 rows (0.768 nm),
  pitch 6 rows; validated to copy both logic values for chain lengths
  2-6 and lateral steps of up to 4 columns per pitch;
* **steep diagonal wire**: pitch 7 rows tolerates 5-6 columns per step,
  enough to cross the 30-column port offset of a tile;
* **Y junction**: two funnel chains converging on a shared pair realize
  OR or AND depending on the convergence/readout geometry;
* **inverting dogleg**: a laterally offset pair couples
  anti-ferromagnetically and flips the encoded bit;
* **fan-out junction**: one chain diverging into two.

Tile-local coordinates: columns 0..59, rows 0..45; the W ports sit at
column 15 and the E ports at column 45 (see ``repro.gatelib.tile``).
Designs assembled from motifs at parameters *between* scanned points are
marked ``validated=False`` until the SimAnneal tile check passes them
(see ``BestagonLibrary.validate`` and the Figure-5 bench).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.coords.lattice import LatticeSite
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest
from repro.gatelib.tile import Port

S = LatticeSite.from_row

_JSON_PATH = os.path.join(os.path.dirname(__file__), "found_designs.json")


def _load_found(path: str = _JSON_PATH) -> dict:
    """The scanned motif parameters.

    A missing file raises ``FileNotFoundError`` naming ``path``: without
    it 15 of the 29 built-in tiles would silently get other dots.
    """
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


FOUND = _load_found()

# Last-known-good motif parameters from the design scans.
WIRE_PITCH = 6
STEEP_PITCH = 7
INTRA_ROWS = 2
CLOSE_GAP = 2   # close (logic-1) input perturber rows above the wire
FAR_GAP = 6     # far (logic-0) input perturber rows above the wire
OUT_GAP = 4     # output perturber rows below the wire end

# Fan-out core (scan: dxo, og, gout).
_FANOUT = (FOUND.get("fanout") or [{"dxo": 4, "og": 4, "gout": 4}])[0]
# Inverter dogleg (scan: bx, brow, orow_off, gout).
_INVERTER = (FOUND.get("inverter") or [
    {"bx": 4, "brow": 8, "orow_off": 4, "gout": 4}
])[0]
# Two-input cores (scan: dx1, dx2, og, gout [+extra dots]).
_TWO_INPUT = FOUND.get("two_input", {})
# Cores re-tuned in the assembled-tile context take precedence.
_TWO_INPUT_TILE = FOUND.get("two_input_tile", {})
_CORE_DEFAULTS = {
    "or": {"dx1": 4, "dx2": 3, "og": 5, "gout": 4, "extra": []},
    "and": {"dx1": 4, "dx2": 4, "og": 4, "gout": 4, "extra": []},
}


def core_parameters(kind: str) -> dict | None:
    """Scanned core parameters for a two-input gate kind, if any.

    Prefers compact cores: no extra canvas dots, then the smallest extra
    footprint, so the assembled tile fits the 46-row budget.
    """
    tile_entries = _TWO_INPUT_TILE.get(kind)
    if tile_entries:
        return tile_entries[0]
    entries = list(_TWO_INPUT.get(kind, ()))
    if kind in _CORE_DEFAULTS:
        entries.append(_CORE_DEFAULTS[kind])
    if not entries:
        return None

    def footprint(entry: dict) -> tuple:
        extra = entry.get("extra", [])
        max_extra_row = max((row for _, row in extra), default=0)
        return (len(extra) > 0, max_extra_row, entry["og"])

    return min(entries, key=footprint)


W_COL, E_COL = 15, 45
STRAIGHT_TOPS = (2, 8, 14, 20, 26, 32, 38)
STEEP_TOPS = (1, 8, 15, 22, 29, 36, 43)  # 7 pairs, dx=5 per gap

_GATE_TABLES = {
    "and": TruthTable(2, 0b1000),
    "or": TruthTable(2, 0b1110),
    "nand": TruthTable(2, 0b0111),
    "nor": TruthTable(2, 0b0001),
    "xor": TruthTable(2, 0b0110),
    "xnor": TruthTable(2, 0b1001),
}


@dataclass(frozen=True)
class GateDesign:
    """A dot-accurate standard-tile design in tile-local coordinates."""

    name: str
    gate_kind: str  # e.g. "wire", "inv", "and", "cross", "pi", "po"
    input_ports: tuple[Port, ...]
    output_ports: tuple[Port, ...]
    sites: tuple[LatticeSite, ...]
    input_pairs: tuple[BdlPair, ...]
    output_pairs: tuple[BdlPair, ...]
    input_stimuli: tuple[tuple[tuple[LatticeSite, ...], tuple[LatticeSite, ...]], ...]
    output_perturbers: tuple[LatticeSite, ...]
    functions: tuple[TruthTable, ...]
    validated_motifs: bool = True

    @property
    def num_sidbs(self) -> int:
        return len(self.sites)

    @property
    def under_test(self) -> GateUnderTest:
        """The design as the operational check simulates it.

        The body is the tile's own dots followed by its output
        perturbers, which stand in for the downstream tile.
        """
        return GateUnderTest(
            body=self.sites + self.output_perturbers,
            input_stimuli=self.input_stimuli,
            output_pairs=self.output_pairs,
            outputs=self.functions,
        )


class _Assembler:
    """Collects pairs and dots while assembling a design."""

    def __init__(self) -> None:
        self.sites: list[LatticeSite] = []
        self.pairs: list[BdlPair] = []
        self.all_validated = True

    def pair(self, col: int, top_row: int) -> BdlPair:
        pair = BdlPair(S(col, top_row), S(col, top_row + INTRA_ROWS))
        self.sites += [pair.site0, pair.site1]
        self.pairs.append(pair)
        return pair

    def dot(self, col: int, row: int) -> LatticeSite:
        site = S(col, row)
        self.sites.append(site)
        return site

    def chain(
        self, col_from: int, col_to: int, tops: tuple[int, ...]
    ) -> list[BdlPair]:
        """A chain of pairs routed from one column to another.

        The lateral delta is distributed as evenly as possible across the
        gaps; steps beyond the validated envelope mark the design as
        needing tile-level validation.
        """
        gaps = len(tops) - 1
        delta = col_to - col_from
        pairs = []
        columns = [
            col_from + round(delta * index / gaps) if gaps else col_from
            for index in range(len(tops))
        ]
        pitch = tops[1] - tops[0] if gaps else WIRE_PITCH
        for (column, top), previous in zip(
            zip(columns, tops), [None] + columns[:-1]
        ):
            if previous is not None:
                step = abs(column - previous)
                if pitch == WIRE_PITCH and step > 4:
                    self.all_validated = False
                if pitch == STEEP_PITCH and step > 6:
                    self.all_validated = False
            pairs.append(self.pair(column, top))
        return pairs


def _input_stimulus(first_pair: BdlPair, dx: int = 0):
    """(far, close) perturber sets above a chain's first pair."""
    col = first_pair.site0.n - dx
    top = first_pair.site0.row
    far = (S(col, top - FAR_GAP),)
    close = (S(col, top - CLOSE_GAP),)
    return far, close


def _output_perturber(last_pair: BdlPair, dx: int = 0) -> LatticeSite:
    return S(last_pair.site1.n + dx, last_pair.site1.row + OUT_GAP)


def _port_col(port: Port) -> int:
    return W_COL if port in (Port.NW, Port.SW) else E_COL


def wire_design(in_port: Port, out_port: Port) -> GateDesign:
    """A wire tile: straight (same side) or steep diagonal (crossing)."""
    assembler = _Assembler()
    col_in, col_out = _port_col(in_port), _port_col(out_port)
    tops = STRAIGHT_TOPS if col_in == col_out else STEEP_TOPS
    chain = assembler.chain(col_in, col_out, tops)
    dx0 = chain[1].site0.n - chain[0].site0.n if len(chain) > 1 else 0
    dxn = chain[-1].site0.n - chain[-2].site0.n if len(chain) > 1 else 0
    stimulus = _input_stimulus(chain[0], dx0)
    return GateDesign(
        name=f"wire_{in_port.value}_{out_port.value}",
        gate_kind="wire",
        input_ports=(in_port,),
        output_ports=(out_port,),
        sites=tuple(assembler.sites),
        input_pairs=(chain[0],),
        output_pairs=(chain[-1],),
        input_stimuli=(stimulus,),
        output_perturbers=(_output_perturber(chain[-1], dxn),),
        functions=(TruthTable(1, 0b10),),
        validated_motifs=assembler.all_validated,
    )


def double_wire_design() -> GateDesign:
    """Two parallel straight wires (NW->SW and NE->SE)."""
    assembler = _Assembler()
    left = assembler.chain(W_COL, W_COL, STRAIGHT_TOPS)
    right = assembler.chain(E_COL, E_COL, STRAIGHT_TOPS)
    identity = TruthTable.variable(0, 2), TruthTable.variable(1, 2)
    return GateDesign(
        name="double_wire",
        gate_kind="double",
        input_ports=(Port.NW, Port.NE),
        output_ports=(Port.SW, Port.SE),
        sites=tuple(assembler.sites),
        input_pairs=(left[0], right[0]),
        output_pairs=(left[-1], right[-1]),
        input_stimuli=(_input_stimulus(left[0]), _input_stimulus(right[0])),
        output_perturbers=(
            _output_perturber(left[-1]),
            _output_perturber(right[-1]),
        ),
        functions=identity,
        validated_motifs=assembler.all_validated,
    )


def cross_design() -> GateDesign:
    """A crossing tile: NW->SE and NE->SW steep diagonals.

    The two chains pass each other at the center row with the clearance
    found by the crossing scan (falls back to 6 columns).
    """
    crossing = (FOUND.get("crossing") or [{"dx": 4, "sep": 6}])[0]
    sep = crossing["sep"]
    assembler = _Assembler()
    mid = (W_COL + E_COL) // 2
    # Left chain: approaches the center, passes at -sep/2, then jumps to
    # the right flank and continues to the SE port (and mirrored).
    left_cols = [W_COL, mid - sep // 2 - 5, mid - sep // 2]
    right_cols = [E_COL, mid + sep // 2 + 5, mid + sep // 2]
    left_cols += [mid + sep // 2 + 5, E_COL]
    right_cols += [mid - sep // 2 - 5, W_COL]
    tops = (2, 9, 16, 23, 30)
    left_pairs = [assembler.pair(c, t) for c, t in zip(left_cols, tops)]
    right_pairs = [assembler.pair(c, t) for c, t in zip(right_cols, tops)]
    left_out = assembler.pair(E_COL, 37)
    right_out = assembler.pair(W_COL, 37)
    for step in (left_cols, right_cols):
        if max(abs(b - a) for a, b in zip(step, step[1:])) > 6:
            assembler.all_validated = False
    assembler.all_validated = False  # crossing needs tile-level validation
    identity = TruthTable.variable(0, 2), TruthTable.variable(1, 2)
    return GateDesign(
        name="cross",
        gate_kind="cross",
        input_ports=(Port.NW, Port.NE),
        output_ports=(Port.SE, Port.SW),
        sites=tuple(assembler.sites),
        input_pairs=(left_pairs[0], right_pairs[0]),
        output_pairs=(left_out, right_out),
        input_stimuli=(
            _input_stimulus(left_pairs[0]),
            _input_stimulus(right_pairs[0]),
        ),
        output_perturbers=(
            _output_perturber(left_out),
            _output_perturber(right_out),
        ),
        functions=identity,
        validated_motifs=False,
    )


def inverter_design(in_port: Port, out_port: Port) -> GateDesign:
    """An inverter: wire, anti-aligned dogleg pair, wire.

    Reproduces the scanned dogleg geometry exactly: the offset pair's
    top dot sits level with the input chain's last dot, and the output
    pair follows ``orow_off`` rows below, both at the dogleg column.
    """
    bx = _INVERTER["bx"]
    orow_off = _INVERTER["orow_off"]
    # The scan places the dogleg pair's top ``brow - 8`` rows below the
    # input chain's last dot (the scanned input bottom row is 8).
    dog_drop = _INVERTER["brow"] - 8
    assembler = _Assembler()
    col_in, col_out = _port_col(in_port), _port_col(out_port)
    top_chain = assembler.chain(col_in, col_in, (2, 8))
    dog_col = col_in + (bx if col_out >= col_in else -bx)
    input_bottom = top_chain[-1].site1.row  # row 10
    dogleg = assembler.pair(dog_col, input_bottom + dog_drop)
    after = assembler.pair(dog_col, dogleg.site0.row + orow_off)
    # Continue at the validated straight pitch down to the output port.
    first_tail = after.site0.row + WIRE_PITCH
    rest_tops = tuple(
        range(first_tail, 40, WIRE_PITCH)
    )
    tail = assembler.chain(dog_col, col_out, rest_tops)
    if abs(col_out - dog_col) > 4 * (len(rest_tops) - 1):
        assembler.all_validated = False
    stimulus = _input_stimulus(top_chain[0])
    return GateDesign(
        name=f"inv_{in_port.value}_{out_port.value}",
        gate_kind="inv",
        input_ports=(in_port,),
        output_ports=(out_port,),
        sites=tuple(assembler.sites),
        input_pairs=(top_chain[0],),
        output_pairs=(tail[-1],),
        input_stimuli=(stimulus,),
        output_perturbers=(_output_perturber(tail[-1]),),
        functions=(TruthTable(1, 0b01),),
        validated_motifs=assembler.all_validated,
    )


def fanout_design(in_port: Port) -> GateDesign:
    """A 1-in-2-out fan-out: chain to a junction, two diverging chains."""
    dxo = _FANOUT["dxo"]
    og = _FANOUT["og"]
    assembler = _Assembler()
    col_in = _port_col(in_port)
    mid = (W_COL + E_COL) // 2
    head = assembler.chain(col_in, mid, (1, 8, 15, 22))
    branch_top = 22 + INTRA_ROWS + og
    left_first = assembler.pair(mid - dxo, branch_top)
    right_first = assembler.pair(mid + dxo, branch_top)
    left_tail = assembler.chain(
        mid - dxo, W_COL, (branch_top + 7, branch_top + 14)
    )
    right_tail = assembler.chain(
        mid + dxo, E_COL, (branch_top + 7, branch_top + 14)
    )
    assembler.all_validated = False  # mixed-pitch assembly
    identity = TruthTable.variable(0, 1)
    return GateDesign(
        name=f"fanout_{in_port.value}",
        gate_kind="fanout",
        input_ports=(in_port,),
        output_ports=(Port.SW, Port.SE),
        sites=tuple(assembler.sites),
        input_pairs=(head[0],),
        output_pairs=(left_tail[-1], right_tail[-1]),
        input_stimuli=(
            _input_stimulus(head[0], head[1].site0.n - head[0].site0.n),
        ),
        output_perturbers=(
            _output_perturber(left_tail[-1]),
            _output_perturber(right_tail[-1]),
        ),
        functions=(identity, identity),
        validated_motifs=False,
    )


def gate2_design(kind: str, out_port: Port) -> GateDesign:
    """A two-input Y-shaped gate (AND/OR/NAND/NOR/XOR/XNOR).

    Assembled from the scanned junction core where available.  Inverted
    flavors without a scanned core fall back to the base core followed by
    an inverting dogleg; XOR/XNOR without a scanned core embed the best
    canvas-search result and are flagged unvalidated.
    """
    base = {"nand": "and", "nor": "or", "xnor": "xor"}.get(kind, kind)
    invert_output = kind != base and core_parameters(kind) is None
    core_kind = kind if core_parameters(kind) else base
    core = core_parameters(core_kind)
    canvas_dots: list[tuple[int, int]] = []
    validated = core is not None and not invert_output
    if core is None and base == "xor":
        xor_entry = FOUND.get("xor_canvas")
        core = (xor_entry or {}).get(
            "template", {"dx1": 4, "dx2": 4, "og": 8, "gout": 4}
        )
        canvas_dots = [tuple(d) for d in (xor_entry or {}).get("canvas", [])]
        validated = bool(xor_entry) and xor_entry.get("correct") == xor_entry.get(
            "total"
        )
        invert_output = kind == "xnor"
    if core is None:
        core = _CORE_DEFAULTS["and" if base in ("and", "xor") else "or"]

    dx1, dx2, og = core["dx1"], core["dx2"], core["og"]
    assembler = _Assembler()
    # The junction/output pair sits at the output port column; the core's
    # rows replicate the scanned geometry exactly (input pairs 8 rows
    # apart at +-(dx1+dx2)/+-dx2, junction 2+og below the second pair).
    junction_col = _port_col(out_port)
    # Inverted flavors append a dogleg + output pair below the junction;
    # shift the core up so everything fits the 46-row tile.
    r0 = min(25, 37 - 8 - og) if invert_output else 25
    a_first = assembler.pair(junction_col - dx2 - dx1, r0)
    a_second = assembler.pair(junction_col - dx2, r0 + 6)
    b_first = assembler.pair(junction_col + dx2 + dx1, r0)
    b_second = assembler.pair(junction_col + dx2, r0 + 6)
    junction_top = r0 + 8 + og
    junction = assembler.pair(junction_col, junction_top)
    for col, row in canvas_dots:
        assembler.dot(junction_col + col, r0 + row)
    for col, row in core.get("extra", []):
        assembler.dot(junction_col + col, r0 + row)

    # Funnel wires from the ports to the core's first input pairs:
    # steep pitch-7 hops first, a gentle pitch-6 hop onto the core.
    def funnel(col_from: int, col_to: int) -> list[BdlPair]:
        tops = (1, 8, 15)
        caps = (6, 6, 6)
        delta = col_to - col_from
        columns = [col_from]
        remaining = delta
        for gap_index, cap in enumerate(caps):
            gaps_left = len(caps) - gap_index
            step = max(-cap, min(cap, round(remaining / gaps_left)))
            columns.append(columns[-1] + step)
            remaining -= step
        if remaining != 0:
            assembler.all_validated = False
            columns[-1] += remaining
        pairs = [
            assembler.pair(column, top)
            for column, top in zip(columns, tops + (None,))
            if top is not None
        ]
        return pairs

    # The funnel's last pair must land one pitch above the core's first
    # pair; funnel() produces pairs at rows 1, 8, 15 and the core first
    # pair at r0 = 25 is 10 rows below row 15 -- bridged by one more
    # pair at row 19 (pitch 6 to the core).
    def approach(col_from: int, target_col: int) -> list[BdlPair]:
        if r0 >= 25:
            tops = (1, 8, 15, 19)
        elif r0 >= 21:
            tops = (1, 8, 15)
        else:
            tops = (1, 8)
        return assembler.chain(col_from, target_col, tops)

    a_chain = approach(W_COL, a_first.site0.n)
    b_chain = approach(E_COL, b_first.site0.n)

    if invert_output:
        dog_col = junction_col + (
            _INVERTER["bx"] if out_port is Port.SW else -_INVERTER["bx"]
        )
        dogleg = assembler.pair(dog_col, junction_top + 2)
        out_pair = assembler.pair(
            junction_col, dogleg.site0.row + _INVERTER["orow_off"]
        )
        validated = False
    else:
        out_pair = junction
    assembler.all_validated = validated and assembler.all_validated

    table = _GATE_TABLES[kind]
    return GateDesign(
        name=f"{kind}_{out_port.value}",
        gate_kind=kind,
        input_ports=(Port.NW, Port.NE),
        output_ports=(out_port,),
        sites=tuple(assembler.sites),
        input_pairs=(a_chain[0], b_chain[0]),
        output_pairs=(out_pair,),
        input_stimuli=(
            _input_stimulus(
                a_chain[0], a_chain[1].site0.n - a_chain[0].site0.n
            ),
            _input_stimulus(
                b_chain[0], b_chain[1].site0.n - b_chain[0].site0.n
            ),
        ),
        output_perturbers=(_output_perturber(out_pair),),
        functions=(table,),
        validated_motifs=assembler.all_validated,
    )


def pi_design(out_port: Port) -> GateDesign:
    """A primary-input tile: a straight wire at the output port column."""
    assembler = _Assembler()
    col = _port_col(out_port)
    chain = assembler.chain(col, col, STRAIGHT_TOPS)
    return GateDesign(
        name=f"pi_{out_port.value}",
        gate_kind="pi",
        input_ports=(),
        output_ports=(out_port,),
        sites=tuple(assembler.sites),
        input_pairs=(chain[0],),
        output_pairs=(chain[-1],),
        input_stimuli=(_input_stimulus(chain[0]),),
        output_perturbers=(_output_perturber(chain[-1]),),
        functions=(TruthTable(1, 0b10),),
        validated_motifs=True,
    )


def po_design(in_port: Port) -> GateDesign:
    """A primary-output tile: a straight wire ending in the readout pair."""
    assembler = _Assembler()
    col = _port_col(in_port)
    chain = assembler.chain(col, col, STRAIGHT_TOPS)
    return GateDesign(
        name=f"po_{in_port.value}",
        gate_kind="po",
        input_ports=(in_port,),
        output_ports=(),
        sites=tuple(assembler.sites),
        input_pairs=(chain[0],),
        output_pairs=(chain[-1],),
        input_stimuli=(_input_stimulus(chain[0]),),
        output_perturbers=(_output_perturber(chain[-1]),),
        functions=(TruthTable(1, 0b10),),
        validated_motifs=True,
    )


def half_adder_design() -> GateDesign:
    """A 2-in-2-out half adder tile (XOR to SW, AND to SE).

    Composed of the XOR and AND cores side by side fed from shared input
    fan-out pairs; an optional/extension tile of the library (the paper
    lists single-tile half adders among its templates).
    """
    xor = gate2_design("xor", Port.SW)
    and_gate = gate2_design("and", Port.SE)
    # Merge naively: keep XOR dots, add AND dots shifted to avoid clashes.
    assembler = _Assembler()
    seen = set()
    for site in xor.sites:
        if site not in seen:
            assembler.sites.append(site)
            seen.add(site)
    for site in and_gate.sites:
        if site not in seen:
            assembler.sites.append(site)
            seen.add(site)
    return GateDesign(
        name="half_adder",
        gate_kind="ha",
        input_ports=(Port.NW, Port.NE),
        output_ports=(Port.SW, Port.SE),
        sites=tuple(assembler.sites),
        input_pairs=(xor.input_pairs[0], xor.input_pairs[1]),
        output_pairs=(xor.output_pairs[0], and_gate.output_pairs[0]),
        input_stimuli=xor.input_stimuli,
        output_perturbers=(
            xor.output_perturbers[0],
            and_gate.output_perturbers[0],
        ),
        functions=(_GATE_TABLES["xor"], _GATE_TABLES["and"]),
        validated_motifs=False,
    )


def builtin_designs() -> dict[str, GateDesign]:
    """All standard-tile designs of the library, keyed by name."""
    designs: dict[str, GateDesign] = {}

    def register(design: GateDesign) -> None:
        designs[design.name] = design

    for in_port in (Port.NW, Port.NE):
        for out_port in (Port.SW, Port.SE):
            register(wire_design(in_port, out_port))
            register(inverter_design(in_port, out_port))
        register(fanout_design(in_port))
        register(po_design(in_port))
    for out_port in (Port.SW, Port.SE):
        register(pi_design(out_port))
        for kind in ("and", "or", "nand", "nor", "xor", "xnor"):
            register(gate2_design(kind, out_port))
    register(double_wire_design())
    register(cross_design())
    register(half_adder_design())
    return designs
