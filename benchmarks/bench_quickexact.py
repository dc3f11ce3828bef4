"""Exact engines head to head: brute-force ExGS vs pruned QuickExact.

Races ground-state searches on BDL wires of 10-30 SiDBs (ExGS only up
to its feasible range), prints the wall-time/pruning table and writes
the record to ``benchmarks/artifacts/BENCH_quickexact.json``.  QuickExact
must return bit-identical ground states wherever both engines run and
beat ExGS by at least 10x at 20 sites.
"""

import time

from conftest import print_header, write_artifact
from repro.sidb.bdl import scaling_layout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.quickexact import quickexact_ground_state

#: System sizes of the exact ground-state sweep.  ExGS is only timed up to
#: :data:`QUICKEXACT_EXGS_CEILING` (2^n enumeration beyond that would
#: dominate the whole benchmark run); QuickExact covers the full range.
QUICKEXACT_SIZES = (10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)
QUICKEXACT_EXGS_CEILING = 22

#: The size at which the QuickExact-over-ExGS speedup is asserted.
QUICKEXACT_GATE_SIZE = 20


def _time(function, repeats: int) -> tuple[float, object]:
    function()  # warm-up: geometry cache, allocator, imports
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_quickexact_point(num_sites: int, repeats: int = 3) -> dict:
    """Time ExGS vs QuickExact at one BDL-wire size.

    Both engines share one prebuilt :class:`EnergyModel`, so the timing
    isolates the search itself.  ExGS runs only up to
    :data:`QUICKEXACT_EXGS_CEILING` sites; beyond, the record carries
    QuickExact alone (there is nothing exact left to race).
    """
    layout = scaling_layout(num_sites)
    model = EnergyModel(layout)

    quickexact_time, quickexact_result = _time(
        lambda: quickexact_ground_state(layout, model=model), repeats
    )
    stats = quickexact_result.stats
    point = {
        "num_sites": num_sites,
        "search_space": stats.search_space,
        "quickexact_seconds": quickexact_time,
        "quickexact_energy": quickexact_result.ground_energy,
        "degeneracy": quickexact_result.degeneracy,
        "nodes_visited": stats.nodes_visited,
        "configurations_enumerated": stats.configurations_enumerated,
        "enumerated_fraction": stats.enumerated_fraction,
        "cut_histogram": stats.cut_histogram(),
    }
    if num_sites <= QUICKEXACT_EXGS_CEILING:
        exgs_time, exgs_result = _time(
            lambda: exhaustive_ground_state(layout, model=model), repeats
        )
        point["exgs_seconds"] = exgs_time
        point["speedup_quickexact_over_exgs"] = exgs_time / quickexact_time
        point["results_identical"] = bool(
            exgs_result.ground_energy == quickexact_result.ground_energy
            and {tuple(s) for s in exgs_result.ground_states}
            == {tuple(s) for s in quickexact_result.ground_states}
        )
    return point


def run_quickexact_benchmark(
    sizes: tuple[int, ...] = QUICKEXACT_SIZES, repeats: int = 3
) -> dict:
    """The ExGS-vs-QuickExact race; returns the ``BENCH_quickexact`` record."""
    points = [measure_quickexact_point(n, repeats=repeats) for n in sizes]
    return {
        "benchmark": "quickexact_vs_exgs",
        "description": (
            "Wall time of exact ground-state search on BDL wires: "
            "brute-force ExGS enumeration vs the pruned QuickExact "
            "engine (witness bounds + branch-and-bound + vectorized "
            "leaves), with nodes-visited pruning telemetry."
        ),
        "points": points,
    }


def test_quickexact_vs_exgs(benchmark):
    record = benchmark.pedantic(
        run_quickexact_benchmark, rounds=1, iterations=1
    )
    path = write_artifact(record, "BENCH_quickexact.json")

    print_header(
        "Exact ground-state search on BDL wires: ExGS vs QuickExact"
    )
    print(f"{'sites':>6} {'exgs':>9} {'quickexact':>11} "
          f"{'speedup':>8} {'enumerated':>11}")
    for point in record["points"]:
        exgs = (
            f"{point['exgs_seconds']:>8.3f}s"
            if "exgs_seconds" in point
            else f"{'--':>9}"
        )
        speedup = (
            f"{point['speedup_quickexact_over_exgs']:>7.1f}x"
            if "speedup_quickexact_over_exgs" in point
            else f"{'--':>8}"
        )
        print(
            f"{point['num_sites']:>6} {exgs} "
            f"{point['quickexact_seconds']:>10.3f}s "
            f"{speedup} "
            f"{point['enumerated_fraction']:>10.2%}"
        )
    print(f"  artifact: {path}")

    by_size = {p["num_sites"]: p for p in record["points"]}
    assert set(by_size) == set(QUICKEXACT_SIZES)
    for point in record["points"]:
        if point["num_sites"] <= QUICKEXACT_EXGS_CEILING:
            assert point["results_identical"], (
                f"QuickExact diverged from ExGS at "
                f"{point['num_sites']} sites"
            )
    gate = by_size[QUICKEXACT_GATE_SIZE]
    assert gate["speedup_quickexact_over_exgs"] >= 10.0, (
        f"QuickExact only {gate['speedup_quickexact_over_exgs']:.1f}x "
        f"over ExGS at {QUICKEXACT_GATE_SIZE} sites"
    )
