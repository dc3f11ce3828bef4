"""Tile-library workload: Fig. 5 validation of every built-in Bestagon tile.

Each pass validates all tiles over all input patterns with a fresh
library (``BestagonLibrary.validate`` memoises per instance) and a
cleared geometry cache, so every pass starts as cold as a fresh process.
Engine ``auto``: QuickExact solves patterns of up to 30 sites, SimAnneal
(seeded by the workload seed) the larger ones.  The traced pass wraps
the engine entry points the operational check dispatches to, so each
per-pattern engine call is timed and its ``GroundStateResult.stats``
read, while ``validate`` itself runs unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from harness import (
    ItemRow, PassResult, cpu_clock, patched, run_items, sum_counters, timed,
)

import repro.sidb.operational as operational
from repro.gatelib.designs import GateDesign
from repro.gatelib.library import BestagonLibrary
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import clear_geometry_cache, geometry_cache_stats
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import OperationalReport
from repro.sidb.quickexact import quickexact_ground_state
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

#: Fig. 5 annealing schedule.
SCHEDULE = {"instances": 12, "sweeps": 250}
#: Patterns up to this many sites are cross-checked against ExGS.
EXGS_CHECK_MAX_SITES = 20
#: Largest relative ground-energy difference accepted from ExGS.
ENERGY_TOLERANCE = 1e-9


@dataclass
class TileOutput:
    design: GateDesign
    report: OperationalReport


def _schedule(seed: int) -> SimAnnealParameters:
    return SimAnnealParameters(**SCHEDULE, seed=seed)


def _pattern_layout(design: GateDesign, pattern: int) -> SidbLayout:
    """The simulated system of one input pattern (body plus stimuli)."""
    layout = SidbLayout(list(design.sites) + list(design.output_perturbers))
    for bit, (far, close) in enumerate(design.input_stimuli):
        layout.extend(close if (pattern >> bit) & 1 else far)
    return layout


class _EngineProbe:
    """Times every ground-state engine call the operational check makes."""

    def __init__(self, row: ItemRow) -> None:
        self.row = row
        self.stats: list[object] = []
        self.simanneal_calls = 0
        row.spans.update({"quickexact.cpu_s": [], "simanneal.cpu_s": []})

    def quickexact(self, layout, *args, **kwargs):
        start = cpu_clock()
        result = quickexact_ground_state(layout, *args, **kwargs)
        self.row.spans["quickexact.cpu_s"].append((start, cpu_clock()))
        self.stats.append(result.stats)
        return result

    def simanneal_class(self) -> type:
        probe = self

        class TimedSimAnneal(SimAnneal):
            def __init__(self, *args, **kwargs):
                self._probe_start = cpu_clock()
                super().__init__(*args, **kwargs)

            def run(self, *args, **kwargs):
                result = super().run(*args, **kwargs)
                probe.row.spans["simanneal.cpu_s"].append(
                    (self._probe_start, cpu_clock())
                )
                probe.simanneal_calls += 1
                return result

        return TimedSimAnneal

    def counters(self) -> dict[str, float]:
        qe = self.stats
        return {
            "quickexact.calls": len(qe),
            "quickexact.nodes_visited": sum(s.nodes_visited for s in qe),
            "quickexact.leaves_evaluated": sum(s.leaves_evaluated for s in qe),
            "quickexact.cuts": sum(sum(s.cut_histogram().values()) for s in qe),
            # Ratio of sums; the per-layer total below recomputes it.
            "quickexact.configurations": sum(
                s.configurations_enumerated for s in qe
            ),
            "quickexact.search_space": sum(s.search_space for s in qe),
            "simanneal.calls": self.simanneal_calls,
        }


class TileWorkload:
    name = "tile_library"
    predicted_layer = "quickexact"
    excluded: dict[str, str] = {}

    def setup(self) -> SiDBSimulationParameters:
        """What a fresh process builds before validating its first tile."""
        BestagonLibrary()
        return SiDBSimulationParameters.bestagon()

    def items(self, seed: int) -> list[str]:
        order = BestagonLibrary().names()
        random.Random(seed).shuffle(order)
        return order

    @staticmethod
    def warmup_items(items: list[str]) -> list[str]:
        """Every fourth tile in library order: both engines, a quarter of a pass."""
        return BestagonLibrary().names()[::4]

    def run_pass(self, parameters, items, seed) -> PassResult:
        clear_geometry_cache()
        library = BestagonLibrary()
        schedule = _schedule(seed)

        def validate(name: str, row: ItemRow) -> TileOutput:
            report = library.validate(
                name, parameters, engine="auto", schedule=schedule
            )
            return TileOutput(library.design(name), report)

        return run_items(items, validate)

    def traced_pass(self, parameters, items, seed) -> PassResult:
        clear_geometry_cache()
        library = BestagonLibrary()
        schedule = _schedule(seed)

        def validate(name: str, row: ItemRow) -> TileOutput:
            probe = _EngineProbe(row)
            with patched(
                operational, "quickexact_ground_state", probe.quickexact
            ), patched(
                operational, "SimAnneal", probe.simanneal_class()
            ), timed(row, "validate.cpu_s"):
                report = library.validate(
                    name, parameters, engine="auto", schedule=schedule
                )
            row.counters["validate.patterns"] = len(report.patterns)
            row.counters.update(probe.counters())
            return TileOutput(library.design(name), report)

        result = run_items(items, validate)
        layers = sum_counters(result.rows)
        space = layers.pop("quickexact.search_space", 0)
        configs = layers.pop("quickexact.configurations", 0)
        layers["quickexact.enumerated_fraction"] = configs / space if space else 0.0
        cache = geometry_cache_stats()
        layers["geometry.hits"] = cache["hits"]
        layers["geometry.misses"] = cache["misses"]
        result.layers = layers
        return result

    @staticmethod
    def leaf_layers(layers: dict[str, float]) -> dict[str, float]:
        """Disjoint layer CPU times (they sum to the attributed CPU)."""
        qe = layers.get("quickexact.cpu_s", 0.0)
        sa = layers.get("simanneal.cpu_s", 0.0)
        return {
            "quickexact": qe,
            "simanneal": sa,
            "validate.other": layers.get("validate.cpu_s", 0.0) - qe - sa,
        }

    @staticmethod
    def check(output: TileOutput) -> list[str]:
        """Pattern coverage and an ExGS cross-check of small patterns."""
        design, report = output.design, output.report
        patterns = 1 << len(design.input_stimuli)
        if sorted(p.pattern for p in report.patterns) != list(range(patterns)):
            return [f"covers {len(report.patterns)} of {patterns} patterns"]
        problems = []
        clear_geometry_cache()
        parameters = SiDBSimulationParameters.bestagon()
        for result in report.patterns:
            layout = _pattern_layout(design, result.pattern)
            if len(layout) > EXGS_CHECK_MAX_SITES:
                continue
            reference = exhaustive_ground_state(layout, parameters).ground_energy
            if not math.isclose(
                reference, result.ground_energy, rel_tol=ENERGY_TOLERANCE,
                abs_tol=ENERGY_TOLERANCE,
            ):
                problems.append(
                    f"pattern {result.pattern}: ground energy "
                    f"{result.ground_energy!r}, ExGS {reference!r}"
                )
        return problems

    @staticmethod
    def unfaithful(traced: TileOutput, untraced: TileOutput) -> list[str]:
        def verdicts(output: TileOutput):
            return [
                (p.pattern, p.correct, p.observed, p.ground_energy)
                for p in output.report.patterns
            ]

        if verdicts(traced) != verdicts(untraced):
            return ["traced pattern verdicts differ from the untraced pass"]
        return []

    @staticmethod
    def fingerprint(result: PassResult) -> dict:
        counts = {
            "geometry.misses": result.layers.get("geometry.misses"),
        }
        for row in result.rows:
            if row.output is None:
                continue
            report = row.output.report
            counts[f"{row.name}.patterns_correct"] = sum(
                p.correct for p in report.patterns
            )
            for key in ("quickexact.nodes_visited", "quickexact.calls",
                        "simanneal.calls"):
                counts[f"{row.name}.{key}"] = row.counters.get(key)
        return counts

    @staticmethod
    def headline(rows: list[ItemRow], passed: set[str]) -> dict[str, int]:
        outputs = [row.output for row in rows if row.output is not None]
        return {
            # Every Bestagon tile occupies one hexagonal tile.
            "area_tiles": len(outputs),
            "sidbs": sum(o.design.num_sidbs for o in outputs),
            "patterns_correct": sum(
                p.correct for o in outputs for p in o.report.patterns
            ),
            "tiles_operational": sum(o.report.operational for o in outputs),
        }

    @staticmethod
    def describe(row: ItemRow) -> str:
        output: TileOutput | None = row.output
        if output is None:
            return "-"
        correct = sum(p.correct for p in output.report.patterns)
        sites = len(_pattern_layout(output.design, 0))
        text = (
            f"sites={sites} patterns={correct}/{len(output.report.patterns)} "
            f"operational={output.report.operational}"
        )
        if row.counters:
            text += (
                f" qe={row.counters['quickexact.calls']}x/"
                f"{row.counters['quickexact.cpu_s']:.3f}s"
                f" nodes={row.counters['quickexact.nodes_visited']}"
                f" sa={row.counters['simanneal.calls']}x/"
                f"{row.counters['simanneal.cpu_s']:.3f}s"
            )
        return text


TILE_LIBRARY = TileWorkload()
