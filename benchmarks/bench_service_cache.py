"""Design-service cache: cold run vs. warm hit on ``mux21``.

Times ``api.design(cache=...)`` three ways:

* **cold** -- a full flow run on an empty store (the miss path: run +
  persist);
* **warm memo** -- the same call again against the same store (the
  in-memory memo path that repeated in-process calls and the job
  scheduler's dedup hit);
* **warm disk** -- hydration through a *fresh* :class:`ArtifactStore`
  instance (the cross-process path: manifest verification + JSON
  deserialization, no flow work).

Asserts the memo hit is at least :data:`MEMO_SPEEDUP_LIMIT` times
faster than the cold run with byte-identical ``.sqd`` output, and
reports sustained warm requests per second.  Writes
``benchmarks/artifacts/BENCH_service.json``.
"""

import tempfile
import time

from conftest import print_header, write_artifact
from repro import api
from repro.networks import benchmark_verilog
from repro.service.digest import design_digest
from repro.service.store import ArtifactStore

#: The measured circuit: large enough that a cold run dwarfs every
#: fixed cost, small enough for a CI budget.
CACHE_BENCHMARK = "mux21"

#: Minimum cold/warm-memo ratio.
MEMO_SPEEDUP_LIMIT = 100.0

#: Warm requests timed for the throughput figure.
THROUGHPUT_REQUESTS = 200


def run_service_cache_benchmark(
    benchmark: str = CACHE_BENCHMARK,
    repeats: int = 3,
    throughput_requests: int = THROUGHPUT_REQUESTS,
) -> dict:
    """Time cold, warm-memo and warm-disk paths; return the record."""
    verilog = benchmark_verilog(benchmark)
    digest = design_digest(verilog, benchmark)

    cold_seconds = []
    memo_seconds = []
    disk_seconds = []
    sqd_identical = True
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
            store = ArtifactStore(root)

            start = time.perf_counter()
            cold = api.design(verilog, name=benchmark, cache=store)
            cold_seconds.append(time.perf_counter() - start)

            start = time.perf_counter()
            warm = api.design(verilog, name=benchmark, cache=store)
            memo_seconds.append(time.perf_counter() - start)
            sqd_identical &= (
                warm.from_cache and warm.to_sqd() == cold.to_sqd()
            )

            fresh = ArtifactStore(root)
            start = time.perf_counter()
            hydrated = fresh.load_result(digest)
            disk_seconds.append(time.perf_counter() - start)
            sqd_identical &= (
                hydrated is not None and hydrated.to_sqd() == cold.to_sqd()
            )

            start = time.perf_counter()
            for _ in range(throughput_requests):
                api.design(verilog, name=benchmark, cache=store)
            throughput = throughput_requests / (time.perf_counter() - start)

    cold_best = min(cold_seconds)
    memo_best = min(memo_seconds)
    disk_best = min(disk_seconds)
    return {
        "benchmark": benchmark,
        "repeats": repeats,
        "digest": digest,
        "cold_seconds": cold_best,
        "warm_memo_seconds": memo_best,
        "warm_disk_seconds": disk_best,
        "memo_speedup": cold_best / memo_best if memo_best else float("inf"),
        "disk_speedup": cold_best / disk_best if disk_best else float("inf"),
        "warm_throughput_per_second": throughput,
        "sqd_identical": sqd_identical,
    }


def test_service_cache(benchmark):
    record = benchmark.pedantic(
        run_service_cache_benchmark, rounds=1, iterations=1
    )
    path = write_artifact(record, "BENCH_service.json")

    print_header(
        f"Design-service cache on {record['benchmark']} "
        f"(min of {record['repeats']} repeats)"
    )
    print(f"  cold run    : {record['cold_seconds'] * 1000:10.2f} ms")
    print(
        f"  warm (memo) : {record['warm_memo_seconds'] * 1000:10.3f} ms "
        f"({record['memo_speedup']:.0f}x)"
    )
    print(
        f"  warm (disk) : {record['warm_disk_seconds'] * 1000:10.3f} ms "
        f"({record['disk_speedup']:.0f}x)"
    )
    print(
        f"  throughput  : "
        f"{record['warm_throughput_per_second']:10.0f} warm req/s"
    )
    print(f"  artifact: {path}")

    assert record["sqd_identical"], "cache returned different .sqd bytes"
    assert record["memo_speedup"] >= MEMO_SPEEDUP_LIMIT, (
        f"warm memo hit is only {record['memo_speedup']:.0f}x faster than "
        f"the cold run (limit {MEMO_SPEEDUP_LIMIT:.0f}x)"
    )
