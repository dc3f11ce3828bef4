#!/usr/bin/env python3
"""Tile-context re-tuning of the two-input gate cores.

The isolated-core scans of ``design_gates.py`` find junction geometries
that compute AND/OR with bare stimulus perturbers; embedded in a full
tile, the funnel wire charges shift the electrostatic balance.  This
script re-scans the core knobs (junction gap ``og``, convergence ``dx2``,
optional hold dots) *in the assembled-tile context*, using the library's
own operational check as the oracle, and stores the winners under
``two_input_tile`` in ``found_designs.json``.

The assembled 2-input tiles have 29-31 sites, within QuickExact's
32-site ceiling, so engine ``auto`` judges every candidate exactly,
with no annealing noise; ``SCHEDULE`` only matters for a candidate
above the ceiling, which is annealed.  Run with ``PYTHONPATH=src``;
``REPRO_WORKERS=N`` scores candidates over N processes and
``--collect DIR`` records every check as a training example.
"""

from __future__ import annotations

import json
import os
import sys

from repro.gatelib.designs import GateDesign, gate2_design
from repro.gatelib.library import BestagonLibrary
from repro.gatelib.tile import Port
from repro.sidb.parallel import run_tasks, workers_from_env
from repro.sidb.simanneal import SimAnnealParameters

OUT = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "gatelib",
    "found_designs.json",
)
SCHEDULE = SimAnnealParameters(instances=10, sweeps=200, seed=5)
# Core candidates are scored over this many worker processes; the scan
# order (and therefore the selected winner) matches the serial default.
WORKERS = workers_from_env()


def candidate_tile(kind: str, core: dict) -> GateDesign:
    """The SE-variant tile of ``kind`` built around ``core``."""
    return gate2_design(kind, Port.SE, core)


def evaluate(kind: str, core: dict) -> int:
    """Correct patterns of the candidate tile built from ``core``."""
    try:
        design = candidate_tile(kind, core)
        library = BestagonLibrary({design.name: design})
        report = library.validate(design.name, engine="auto", schedule=SCHEDULE)
        return sum(p.correct for p in report.patterns)
    except Exception:
        return -1


def evaluate_candidate(task):
    """Worker entry: score one ``(kind, core)`` candidate."""
    kind, core = task
    return evaluate(kind, core)


def tune(kind: str) -> dict | None:
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
            evaluate_candidate,
            [(kind, core) for core in batch],
            workers=WORKERS,
            label="tune_gate_tiles.cores",
        )
        for core, score in zip(batch, scores):
            if score > best_score:
                best_score = score
                best = core
                print(f"{kind}: {score}/4 {core}", flush=True)
            if score == 4:
                return best
    return best


if __name__ == "__main__":
    arguments = sys.argv[1:]
    collector = None
    if "--collect" in arguments:
        # Buffer every tile-context operational check (the library
        # validate path fires the check_operational learn hook) into a
        # training shard.  Collection is in-process, so force a serial
        # scan -- worker processes would evaluate behind the hook's back.
        from repro.learn import hooks as learn_hooks
        from repro.learn.dataset import ExampleCollector

        where = arguments.index("--collect")
        try:
            collect_dir = arguments[where + 1]
        except IndexError:
            sys.exit("--collect requires a directory argument")
        del arguments[where:where + 2]
        collector = ExampleCollector(collect_dir)
        learn_hooks.set_collector(collector)
        if WORKERS > 1:
            print("--collect forces a serial scan (workers=1)", flush=True)
            WORKERS = 1
    kinds = arguments or ["and", "or", "nand", "xor"]
    data = json.load(open(OUT)) if os.path.exists(OUT) else {}
    tile_section = data.setdefault("two_input_tile", {})
    for kind in kinds:
        print(f"=== tuning {kind}", flush=True)
        core = tune(kind)
        if core is not None:
            tile_section[kind] = [core]
            json.dump(data, open(OUT, "w"), indent=1, sort_keys=True)
            print(f"saved {kind}: {core}", flush=True)
    if collector is not None:
        shard = collector.flush()
        if shard is None:
            print("collected no examples", flush=True)
        else:
            print(f"collected examples -> {shard}", flush=True)
