"""Repository benchmark: the Table-1 flow, exact-P&R UNSAT proofs and the
Fig. 5 tile-library physics, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``): ``table1``, ``pnr_unsat`` and
``tile_library``.  Every item runs in this process, one after another,
with one worker and no threads.  A run builds the inputs, runs one
untimed warm-up pass over the workload's warm-up items, then

* ``--trace 0``: timed passes (at least one, more while they fit in
  ``--seconds``) with the flow's tracing and the ``repro.obs`` recorder
  off, plus set-up time measured in fresh child processes; prints the
  end-to-end metrics;
* ``--trace 1``: one untraced reference pass and two traced passes
  that time each layer; checks that the traced pass reproduces the
  untraced one exactly and that both traced passes count the same work; prints
  the per-layer metrics.

Times are scaled to a fixed reference core speed by a same-thread speed
probe (see ``harness.py``); the raw times are printed beside them.
Every pass's outputs are checked outside the timed region.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero if
any item failed.
"""

from __future__ import annotations

import os

# One thread per process: the flow runs with workers=1 and the
# benchmark must not measure BLAS thread pools.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import SpeedProbe, cpu_clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh processes whose set-up times make up ``setup_s`` (median).
SETUP_PROBES = 9
SETUP_PROBE_TIMEOUT_S = 60


def _load_workloads() -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from flow_bench import PNR_UNSAT, TABLE1
    from tile_bench import TILE_LIBRARY

    return {w.name: w for w in (TABLE1, PNR_UNSAT, TILE_LIBRARY)}


def _setup_sample(workload: str) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its first item being ready.

    The child reports the time itself, on the system-wide monotonic
    clock, so neither its exit nor the parent's wait is counted.
    Returns (at the reference speed, as measured).
    """
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--setup-only", repr(time.monotonic())],
        cwd=ROOT, check=True, timeout=SETUP_PROBE_TIMEOUT_S,
        capture_output=True, text=True,
    )
    scaled, raw = completed.stdout.split()[-2:]
    return float(scaled), float(raw)


def _setup_only(workload_name: str, launched: float) -> None:
    """Build the workload's set-up and print its time since ``launched``.

    The wall time is scaled by the reference-to-measured CPU ratio of
    the set-up, as a pass's wall time is.
    """
    with SpeedProbe() as probe:
        start = cpu_clock()
        _load_workloads()[workload_name].setup()
        end = cpu_clock()
        raw = time.monotonic() - launched - probe.probe_cpu(start, end)
    raw_cpu = end - start - probe.probe_cpu(start, end)
    scaled = raw * probe.reference_cpu(start, end) / raw_cpu
    print(scaled, raw)


def _check_pass(workload, result) -> dict[str, list[str]]:
    """Problems of every item of a pass that raised or fails a check."""
    failed = {}
    for row in result.rows:
        if row.error is not None:
            failed[row.name] = [row.error]
            continue
        try:
            problems = workload.check(row.output)
        except Exception as error:  # a check that cannot run fails
            problems = [f"check raised {type(error).__name__}: {error}"]
        if problems:
            failed[row.name] = problems
    return failed


def _print_rows(workload, rows, cpu_by_item: dict[str, list[float]]) -> None:
    print(f"{'item':16s} {'cpu_s':>9s}  outputs")
    for row in rows:
        cpu = statistics.median(cpu_by_item[row.name])
        print(f"{row.name:16s} {cpu:9.4f}  {workload.describe(row)}")


def _warm_up(workload, inputs, items, args) -> None:
    """One untimed pass over the workload's warm-up items."""
    workload.run_pass(inputs, workload.warmup_items(items), args.seed)


def _timed_run(workload, inputs, items, args) -> tuple[dict, list]:
    """Warm-up, then timed passes while they fit in ``args.seconds``.

    The set-up probes are spread over the run (before and after the
    warm-up, between passes, at the end) so that their median does not
    hang on the machine's load during a single moment.
    """
    setup = [_setup_sample(workload.name)]
    _warm_up(workload, inputs, items, args)
    setup.append(_setup_sample(workload.name))
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs, items, args.seed))
        if len(setup) < SETUP_PROBES - 1:
            setup.append(_setup_sample(workload.name))
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].raw_wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_sample(workload.name))

    def listed(values) -> str:
        return " ".join(f"{value:.4f}" for value in values)

    print(f"{len(passes)} timed pass(es), at the reference speed: cpu "
          f"{listed(p.cpu_s for p in passes)} s; wall "
          f"{listed(p.wall_s for p in passes)} s; set-up "
          f"{listed(scaled for scaled, _ in setup)} s")
    print(f"as measured: cpu {listed(p.raw_cpu_s for p in passes)} s; wall "
          f"{listed(p.raw_wall_s for p in passes)} s; set-up "
          f"{listed(raw for _, raw in setup)} s; core slowdown "
          f"{listed(p.slowdown for p in passes)}")
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "pass_cpu_s": statistics.median(p.cpu_s for p in passes),
        "pass_wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, passes


def _traced_run(workload, inputs, items, args) -> tuple[dict, list, dict]:
    """Warm-up, an untraced reference pass and two traced passes."""
    _warm_up(workload, inputs, items, args)
    untraced = workload.run_pass(inputs, items, args.seed)
    traced = [workload.traced_pass(inputs, items, args.seed) for _ in range(2)]
    first = traced[0]
    unfaithful: dict[str, list[str]] = {}
    for row, reference in zip(first.rows, untraced.rows):
        if row.output is not None and reference.output is not None:
            problems = workload.unfaithful(row.output, reference.output)
            if problems:
                unfaithful[row.name] = problems
    counts = [workload.fingerprint(result) for result in traced]
    mismatches = sorted(
        key for key in counts[0].keys() | counts[1].keys()
        if counts[0].get(key) != counts[1].get(key)
    )
    for key in mismatches:
        print(f"DETERMINISM MISMATCH between traced passes: {key}: "
              f"{counts[0].get(key)!r} vs {counts[1].get(key)!r}")

    leaves = workload.leaf_layers(first.layers)
    attributed = sum(leaves.values())
    layers = dict(first.layers)
    layers["trace.pass_cpu_s"] = first.cpu_s
    layers["trace.unattributed_cpu_s"] = first.cpu_s - attributed
    layers["trace.overhead_s"] = first.cpu_s - untraced.cpu_s
    layers["trace.determinism_mismatches"] = len(mismatches)
    layers["trace.core_slowdown"] = first.slowdown

    print(f"at the reference speed: untraced pass cpu {untraced.cpu_s:.4f} s; "
          "traced passes cpu " + " ".join(f"{p.cpu_s:.4f}" for p in traced)
          + " s; core slowdown "
          + " ".join(f"{p.slowdown:.4f}" for p in [untraced] + traced))
    print(f"{'layer':18s} {'cpu_s':>9s} {'share':>7s}")
    for layer, cpu in leaves.items():
        print(f"{layer:18s} {cpu:9.4f} {cpu / first.cpu_s:7.1%}")
    print(f"{'(unattributed)':18s} {first.cpu_s - attributed:9.4f} "
          f"{(first.cpu_s - attributed) / first.cpu_s:7.1%}")
    dominant = max(leaves, key=leaves.get)
    verdict = "confirmed" if dominant == workload.predicted_layer else "NOT confirmed"
    print(f"dominant layer: {dominant} (predicted {workload.predicted_layer}): "
          f"{verdict}")
    return layers, [untraced] + traced, unfaithful


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", type=float, metavar="LAUNCHED", default=None,
        help="build the workload's set-up, print the seconds since the "
        "monotonic time LAUNCHED, at the reference speed and as measured, "
        "and exit (one setup_s sample)",
    )
    args = parser.parse_args(argv)
    if args.setup_only is not None:  # a child of _setup_sample
        _setup_only(args.workload, args.setup_only)
        return 0
    workloads = _load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    workload = workloads[args.workload]

    from repro import obs

    obs.disable()
    inputs = workload.setup()
    items = workload.items(args.seed)
    print(f"workload {workload.name}, seed {args.seed}: " + ", ".join(items))
    for name, reason in workload.excluded.items():
        print(f"excluded: {name}: {reason}")

    if args.trace:
        values, passes, unfaithful = _traced_run(workload, inputs, items, args)
        shown = passes[1]
    else:
        values, passes = _timed_run(workload, inputs, items, args)
        unfaithful = {}
        shown = passes[-1]

    # Outputs are checked outside the timed region: (pass, item) failures.
    problems: dict[str, list[str]] = {}
    failed_runs = set()
    for index, result in enumerate(passes):
        for name, found in _check_pass(workload, result).items():
            problems.setdefault(name, []).extend(found)
            failed_runs.add((index, name))
    for name, found in unfaithful.items():
        problems.setdefault(name, []).extend(found)
        failed_runs.add((1, name))
    if not args.trace:
        passed = {row.name for row in shown.rows} - problems.keys()
        values.update(workload.headline(shown.rows, passed))

    cpu_by_item: dict[str, list[float]] = {}
    for result in passes[1:] if args.trace else passes:
        for row in result.rows:
            cpu_by_item.setdefault(row.name, []).append(row.cpu_s)
    _print_rows(workload, shown.rows, cpu_by_item)

    attempted = len(items) * len(passes)
    for name, found in sorted(problems.items()):
        print(f"FAILED {name}: " + "; ".join(dict.fromkeys(found)))
    print(f"fail_ratio {len(failed_runs) / attempted:.4f} "
          f"({len(failed_runs)}/{attempted})")
    declared = _declared_units(args.trace)
    # A layer the workload never enters reads 0 in a traced run.
    metrics = {
        name: (values.get(name, 0) if args.trace else values[name], unit)
        for name, unit in declared.items()
    }
    for name, value in sorted(values.items()):
        print(f"{name:34s} {value!r:>24s} {declared.get(name, '')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }


if __name__ == "__main__":
    sys.exit(main())
