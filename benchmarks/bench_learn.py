"""Learned-guidance flywheel: collect, train, screen, verify.

One :func:`run_learn_benchmark` call exercises the whole flywheel:

* **auc** -- held-out ROC-AUC of a surrogate trained on the bootstrap
  curriculum (collection and training happen inside the run, from
  scratch, in a temporary directory);
* **speedup** -- wall-clock ratio of unguided vs surrogate-ranked
  screening of a candidate pool on the or-core problem: both scans
  stop at the first canvas the ground-state oracle verifies as
  operational, the unguided figure is the median over several
  scan orders (a single order is a coin flip at ~10% positive rate);
* **verdict_equality** -- a Bestagon library sweep run once with learn
  collection enabled and once without must produce bit-identical
  operational verdicts and per-pattern observed truth tables.

Prints the table, writes ``benchmarks/artifacts/BENCH_learn.json`` and
gates held-out AUC >= :data:`AUC_FLOOR`, screening speedup >=
:data:`SPEEDUP_FLOOR` and verdict equality (the surrogate re-orders
physics, it never replaces it).
"""

import random
import tempfile
import time

from conftest import print_header, write_artifact
from repro.gatelib.designer import screen_canvas_candidates
from repro.gatelib.library import BestagonLibrary
from repro.learn import hooks
from repro.learn.collect import (
    bootstrap_problems,
    collect_canvas_examples,
    screening_pool,
    two_input_problem,
)
from repro.learn.dataset import ExampleCollector, load_examples
from repro.learn.guide import SurrogateGuide
from repro.learn.model import evaluate_surrogate, train_surrogate

#: Minimum held-out ROC-AUC of the bootstrap-trained surrogate.
AUC_FLOOR = 0.85

#: Minimum unguided/guided screening wall-clock ratio.
SPEEDUP_FLOOR = 1.5

#: Library tiles swept for the verdict-equality gate: a mix of
#: operational and non-operational designs, cheap enough to sweep
#: twice (~4 s total) while still covering multi-output and 2-input
#: functions.
SWEEP_TILES = (
    "wire_NE_SE",
    "inv_NE_SE",
    "inv_NE_SW",
    "double_wire",
    "fanout_NE",
    "xor_SE",
    "nand_SE",
    "half_adder",
)


def _sweep_library(collect: bool) -> dict:
    """Validate :data:`SWEEP_TILES`, optionally with collection on."""
    library = BestagonLibrary()
    collector = ExampleCollector(directory=None) if collect else None
    verdicts: dict[str, dict] = {}
    previous = hooks.set_collector(collector)
    try:
        for name in SWEEP_TILES:
            report = library.validate(name)
            verdicts[name] = {
                "operational": report.operational,
                "observed": [
                    [None if bit is None else bool(bit) for bit in row]
                    for row in report.truth_table_observed()
                ],
            }
    finally:
        hooks.set_collector(previous)
    return {
        "verdicts": verdicts,
        "examples_collected": len(collector) if collector else 0,
    }


def run_learn_benchmark(
    samples: int = 160,
    seed: int = 0,
    holdout: float = 0.25,
    pool_size: int = 120,
    pool_dots: int = 4,
    pool_seed: int = 11,
    orders: int = 3,
) -> dict:
    """Collect, train, screen and sweep; return gate metrics."""
    record: dict = {
        "benchmark": "or_core_screening",
        "samples": samples,
        "seed": seed,
        "pool_size": pool_size,
        "pool_dots": pool_dots,
        "auc_floor": AUC_FLOOR,
        "speedup_floor": SPEEDUP_FLOOR,
    }

    # 1) collect the bootstrap curriculum and train the surrogate.
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        stats = collect_canvas_examples(
            directory=tmp,
            samples=samples,
            seed=seed,
            problems=bootstrap_problems(),
        )
        dataset = load_examples(tmp)
    record["collect_seconds"] = time.perf_counter() - started
    record["examples"] = stats["examples"]
    record["per_problem"] = stats["per_problem"]

    started = time.perf_counter()
    train, held_out = dataset.split(holdout=holdout, seed=seed)
    model = train_surrogate(
        train.features, train.fractions(), seed=seed
    )
    record["train_seconds"] = time.perf_counter() - started
    evaluation = evaluate_surrogate(
        model, held_out.features, held_out.labels()
    )
    record["held_out"] = evaluation
    record["auc"] = evaluation["auc"]

    # 2) ranked screening vs pool-order screening on the or-core.
    problem = two_input_problem("or").problem
    pool = screening_pool(
        problem, size=pool_size, dots=pool_dots, seed=pool_seed
    )
    unguided_times = []
    for order_seed in range(orders):
        order = list(range(len(pool)))
        random.Random(order_seed).shuffle(order)
        shuffled = [pool[i] for i in order]
        started = time.perf_counter()
        result = screen_canvas_candidates(problem, shuffled)
        unguided_times.append(time.perf_counter() - started)
        if result is None:
            raise RuntimeError("screening pool holds no operational design")
    unguided = sorted(unguided_times)[len(unguided_times) // 2]

    guide = SurrogateGuide(model)
    started = time.perf_counter()
    guided_result = screen_canvas_candidates(problem, pool, guide=guide)
    guided = time.perf_counter() - started
    if guided_result is None:
        raise RuntimeError("guided screening missed the operational design")
    record["unguided_seconds"] = unguided
    record["unguided_all_seconds"] = unguided_times
    record["guided_seconds"] = guided
    record["guided_evaluations"] = guide.evaluated
    record["guide_stats"] = guide.stats()
    record["speedup"] = unguided / guided if guided > 0 else float("inf")

    # 3) verdict equality: collection on vs off, same sweep.
    plain = _sweep_library(collect=False)
    collected = _sweep_library(collect=True)
    record["sweep_tiles"] = list(SWEEP_TILES)
    record["sweep_examples_collected"] = collected["examples_collected"]
    record["verdict_equality"] = (
        plain["verdicts"] == collected["verdicts"]
    )
    record["verdicts"] = plain["verdicts"]
    return record


def test_learn_guidance(benchmark):
    record = benchmark.pedantic(
        run_learn_benchmark, rounds=1, iterations=1
    )
    path = write_artifact(record, "BENCH_learn.json")

    print_header("Learned guidance: surrogate-ranked gate screening")
    print(f"  bootstrap examples   {record['examples']:>8} "
          f"({record['collect_seconds']:.1f}s to collect)")
    print(f"  held-out AUC         {record['auc']:>8.4f} "
          f"(floor {record['auc_floor']})")
    print(f"  unguided screening   {record['unguided_seconds']:>7.2f}s "
          f"(median of {len(record['unguided_all_seconds'])} orders)")
    print(f"  guided screening     {record['guided_seconds']:>7.2f}s "
          f"({record['guided_evaluations']} physics evaluations)")
    print(f"  speedup              {record['speedup']:>7.2f}x "
          f"(floor {record['speedup_floor']}x)")
    print(f"  verdict equality     {record['verdict_equality']} "
          f"over {len(record['sweep_tiles'])} tiles")
    print(f"  artifact: {path}")

    assert record["auc"] >= AUC_FLOOR, (
        f"held-out AUC {record['auc']:.4f} below {AUC_FLOOR}"
    )
    assert record["speedup"] >= SPEEDUP_FLOOR, (
        f"screening speedup {record['speedup']:.2f}x below "
        f"{SPEEDUP_FLOOR}x"
    )
    assert record["verdict_equality"], (
        "library sweep verdicts changed with learn collection enabled"
    )
