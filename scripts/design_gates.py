#!/usr/bin/env python3
"""Offline design-space exploration for the Bestagon library.

Scans geometric parameter spaces (and runs the canvas designer) at the
Bestagon parameter set (mu = -0.32 eV), writing every validated motif to
``src/repro/gatelib/found_designs.json``.  The library builders in
``repro.gatelib.designs`` read that file.

Every candidate is a :class:`~repro.sidb.operational.GateUnderTest`
judged by :func:`~repro.sidb.operational.check_operational`, the check
every library tile goes through: a candidate is kept only when, for
each input pattern, every degenerate ground state shows the expected
value on every checked pair.  Candidates whose dots collide are
rejected.

    PYTHONPATH=src python scripts/design_gates.py [stage ...]

Stages (default: all but ``two_input_tile``): ``wires``, ``inverter``,
``fanout``, ``crossing`` (wire motifs), ``two_input`` (isolated
Y-junction cores, see :func:`~repro.gatelib.designs.two_input_core`),
``xor`` (canvas search on the XOR template) and ``two_input_tile``
(cores re-tuned inside the assembled tile; this one changes the
library's two-input tiles, so it runs only when named).
``REPRO_WORKERS=N`` scores the ``two_input`` and ``two_input_tile``
candidates over N processes with the same scan order and results.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.coords.lattice import LatticeSite
from repro.gatelib.designs import (
    CLOSE_GAP,
    FAR_GAP,
    GATE_TABLES,
    TWO_INPUT_TEMPLATES,
    GateDesign,
    gate2_design,
    two_input_core,
)
from repro.gatelib.tile import Port
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest, check_operational
from repro.sidb.parallel import run_tasks, workers_from_env
from repro.sidb.simanneal import SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)
IDENTITY = TruthTable(1, 0b10)
NOT = TruthTable(1, 0b01)
# Annealing schedule of a tile candidate whose exact search spends
# QuickExact's node budget; the assembled two-input tiles have 29-31
# sites and need under a thousand nodes each, so engine auto judges every
# candidate exactly.
SCHEDULE = SimAnnealParameters(instances=10, sweeps=200, seed=5)
# Candidate scoring fans out over this many worker processes (the scan
# order and results are identical to the serial default).
WORKERS = workers_from_env()
OUT = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "gatelib",
    "found_designs.json",
)

RESULTS: dict = {}
if os.path.exists(OUT):
    with open(OUT, encoding="utf-8") as _handle:
        RESULTS.update(json.load(_handle))


def save() -> None:
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(RESULTS, handle, indent=1, sort_keys=True)
    print("saved", flush=True)


def operational(gate: GateUnderTest) -> bool:
    """Whether ``gate`` passes the operational check (False on collision)."""
    try:
        return check_operational(gate, P32).operational
    except ValueError:
        return False


def pair(col: int, row: int) -> BdlPair:
    """A vertical BDL pair whose top dot is at ``(col, row)``."""
    return BdlPair(S(col, row), S(col, row + 2))


def dots(pairs: list[BdlPair]) -> list[LatticeSite]:
    return [site for p in pairs for site in (p.site0, p.site1)]


def stimulus(col: int) -> tuple[list[LatticeSite], list[LatticeSite]]:
    """Far (logic 0) and close (logic 1) perturbers above row 0."""
    return [S(col, -FAR_GAP)], [S(col, -CLOSE_GAP)]


def stage_steep_wires():
    """Which per-step lateral displacements does a chain tolerate?"""
    found = []
    for dx in range(0, 9):
        for pitch in (5, 6, 7):
            pairs = [pair(dx * k, pitch * k) for k in range(5)]
            wire = GateUnderTest(
                body=dots(pairs) + [S(5 * dx, pairs[-1].site1.row + 4)],
                input_stimuli=[stimulus(-dx)],
                output_pairs=pairs,
                outputs=[IDENTITY] * len(pairs),
            )
            if operational(wire):
                found.append({"dx": dx, "pitch": pitch})
                print("wire ok:", dx, pitch, flush=True)
    RESULTS["wires"] = found
    save()


def stage_inverter():
    """1-in-1-out inverting doglegs: input chain, offset pair, output."""
    found = []
    for bx in range(2, 8):
        for brow in range(8, 18, 2):
            for orow_off in range(4, 10, 2):
                for gout in (3, 4, 5):
                    chain = [pair(0, 0), pair(0, 6)]
                    out_pair = pair(bx, brow + orow_off)
                    inverter = GateUnderTest(
                        body=dots(chain + [pair(bx, brow), out_pair])
                        + [S(bx, out_pair.site1.row + gout)],
                        input_stimuli=[stimulus(0)],
                        output_pairs=chain + [out_pair],
                        outputs=[IDENTITY, IDENTITY, NOT],
                    )
                    if operational(inverter):
                        entry = {
                            "bx": bx, "brow": brow,
                            "orow_off": orow_off, "gout": gout,
                        }
                        found.append(entry)
                        print("inv ok:", entry, flush=True)
            if len(found) >= 6:
                break
    RESULTS["inverter"] = found
    save()


def stage_fanout():
    """1-in-2-out: input chain into a junction, two diverging chains."""
    found = []
    for dxo in (3, 4, 5):
        for og in (4, 5, 6):
            for gout in (3, 4, 5):
                lrow = 8 + og
                pairs = [
                    pair(0, 0), pair(0, 6), pair(-dxo, lrow), pair(dxo, lrow),
                ]
                fanout = GateUnderTest(
                    body=dots(pairs) + [
                        S(-2 * dxo, lrow + 2 + gout),
                        S(2 * dxo, lrow + 2 + gout),
                    ],
                    input_stimuli=[stimulus(0)],
                    output_pairs=pairs,
                    outputs=[IDENTITY] * len(pairs),
                )
                if operational(fanout):
                    entry = {"dxo": dxo, "og": og, "gout": gout}
                    found.append(entry)
                    print("fanout ok:", entry, flush=True)
    RESULTS["fanout"] = found
    save()


def classify_candidate(core: dict) -> str | None:
    """The first gate kind whose isolated ``core`` passes, if any.

    Every kind's check simulates the same pattern layouts, so the
    checks after the first are served from the ground-state memo.
    """
    for kind, function in GATE_TABLES.items():
        if operational(two_input_core(core, function)):
            return kind
    return None


def stage_two_input_gates():
    found: dict[str, list] = {}
    extras = [[]]
    # Canvas decorations: symmetric dot pairs around/below the output pair.
    for h in (2, 3, 4, 5, 6):
        for hr in (10, 12, 14, 16, 18, 20):
            extras.append([[-h, hr], [h, hr]])
    for c in (0,):
        for cr in (16, 18, 20, 22):
            extras.append([[c, cr]])
    candidates = [
        {"dx1": dx1, "dx2": dx2, "og": og, "gout": gout, "extra": extra}
        for dx1 in (3, 4, 5)
        for dx2 in (2, 3, 4, 5)
        for og in (3, 4, 5, 6, 8)
        for gout in (2, 3, 4, 5)
        for extra in extras
    ]
    # Chunked fan-out: each chunk maps over the worker pool (ordered,
    # so the selection below matches a serial scan), then the running
    # results are checkpointed.
    chunk = 240
    for start in range(0, len(candidates), chunk):
        batch = candidates[start:start + chunk]
        kinds = run_tasks(
            classify_candidate,
            batch,
            workers=WORKERS,
            label="design_gates.candidates",
        )
        for core, kind in zip(batch, kinds):
            if kind and len(found.get(kind, [])) < 8:
                found.setdefault(kind, []).append(core)
                print(kind, "ok:", core, flush=True)
        RESULTS["two_input"] = found
        save()
    print("two-input scan done over", len(candidates), "candidates", flush=True)


def stage_crossing():
    """Two diagonal chains crossing near the tile center.

    Chain L runs NW->SE (left to right), chain R runs NE->SW; they pass
    each other at a lateral clearance ``sep`` at the crossing row 12.
    """
    found = []
    for dx in (3, 4):
        for sep in (4, 6, 8):
            half = sep // 2
            l_cols = [
                -half - 2 * dx, -half - dx, -half, half + dx, half + 2 * dx,
            ]
            r_cols = [-col for col in l_cols]
            rows = [0, 6, 12, 18, 24]
            left = [pair(c, r) for c, r in zip(l_cols, rows)]
            right = [pair(c, r) for c, r in zip(r_cols, rows)]
            crossing = GateUnderTest(
                body=dots(left + right)
                + [S(l_cols[-1] + dx, 30), S(r_cols[-1] - dx, 30)],
                input_stimuli=[
                    stimulus(l_cols[0] - dx),
                    stimulus(r_cols[0] + dx),
                ],
                output_pairs=left + right,
                outputs=[TruthTable.variable(0, 2)] * len(left)
                + [TruthTable.variable(1, 2)] * len(right),
            )
            if operational(crossing):
                entry = {"dx": dx, "sep": sep}
                found.append(entry)
                print("cross ok:", entry, flush=True)
    RESULTS["crossing"] = found
    save()


def stage_xor_canvas():
    """Canvas search for XOR on the two-input template."""
    from repro.gatelib.designer import CanvasSearchProblem, search_canvas_design

    template = TWO_INPUT_TEMPLATES["xor"]
    core = two_input_core(template, GATE_TABLES["xor"])
    *holds, junction = core.output_pairs
    problem = CanvasSearchProblem(
        fixed_sites=list(core.body),
        candidate_sites=[
            S(c, r)
            for c in range(-7, 8)
            for r in range(10, junction.site0.row - 1)
        ],
        input_stimuli=core.input_stimuli,
        output_pairs=[junction],
        outputs=[core.outputs[-1]],
        parameters=P32,
        input_pairs_to_hold=[(p, 0) for p in holds[:2]]
        + [(p, 1) for p in holds[2:]],
    )
    best = None
    for seed in range(6):
        result = search_canvas_design(
            problem, max_dots=5, iterations=250, seed=seed
        )
        if result is None:
            continue
        canvas, correct, total = result
        print(f"xor seed {seed}: {correct}/{total}", flush=True)
        if best is None or correct > best[1]:
            best = (canvas, correct, total)
        if correct == total:
            break
    if best is not None:
        canvas, correct, total = best
        RESULTS["xor_canvas"] = {
            "template": template,
            "canvas": [[s.n, s.row] for s in sorted(canvas)],
            "correct": correct,
            "total": total,
        }
        save()


def candidate_tile(kind: str, core: dict) -> GateDesign:
    """The SE-variant tile of ``kind`` built around ``core``."""
    return gate2_design(kind, Port.SE, core)


def tile_score(task) -> int:
    """Correct patterns of the candidate tile of one ``(kind, core)``.

    -1 when the candidate's dots collide.
    """
    kind, core = task
    try:
        report = check_operational(
            candidate_tile(kind, core).under_test, P32, schedule=SCHEDULE
        )
    except ValueError:
        return -1
    return sum(result.correct for result in report.patterns)


def tune_tile_core(kind: str) -> dict | None:
    """The first core whose tile passes every pattern, else the best."""
    best = None
    best_score = 0
    extras = [[]]
    for h in (2, 3, 4):
        for hr in (16, 18, 20):
            extras.append([[-h, hr], [h, hr]])
    cores = [
        {"dx1": dx1, "dx2": dx2, "og": og, "gout": gout, "extra": extra}
        for dx1 in (3, 4)
        for dx2 in (3, 4, 5)
        for og in (3, 4, 5, 6)
        for gout in (4,)
        for extra in extras
    ]
    # Chunked fan-out preserves the serial early exit: chunks are
    # scored in scan order, and the first perfect core wins.
    chunk = max(8, 4 * WORKERS)
    for start in range(0, len(cores), chunk):
        batch = cores[start:start + chunk]
        scores = run_tasks(
            tile_score,
            [(kind, core) for core in batch],
            workers=WORKERS,
            label="design_gates.tile_cores",
        )
        for core, score in zip(batch, scores):
            if score > best_score:
                best_score = score
                best = core
                print(f"{kind}: {score}/4 {core}", flush=True)
            if score == 4:
                return best
    return best


def stage_two_input_tile():
    """Re-tune the two-input cores inside the assembled SE tile.

    Embedded between full-length funnel wires, a core sees other
    charges than in isolation.  This scans the core knobs (junction gap
    ``og``, convergence ``dx2``, optional hold dots) in the tile and
    stores the best core of each kind under ``two_input_tile``, which
    :func:`~repro.gatelib.designs.core_parameters` prefers.
    """
    for kind in ("and", "or", "nand", "xor"):
        print(f"=== tuning {kind}", flush=True)
        core = tune_tile_core(kind)
        if core is not None:
            RESULTS.setdefault("two_input_tile", {})[kind] = [core]
            save()
            print(f"saved {kind}: {core}", flush=True)


if __name__ == "__main__":
    start = time.time()
    stages = sys.argv[1:] or [
        "wires", "inverter", "fanout", "two_input", "crossing", "xor",
    ]
    dispatch = {
        "wires": stage_steep_wires,
        "inverter": stage_inverter,
        "fanout": stage_fanout,
        "two_input": stage_two_input_gates,
        "crossing": stage_crossing,
        "xor": stage_xor_canvas,
        "two_input_tile": stage_two_input_tile,
    }
    for stage in stages:
        print(f"=== stage {stage} ({time.time() - start:.0f}s)", flush=True)
        dispatch[stage]()
    print(f"ALL DONE in {time.time() - start:.0f}s", flush=True)
