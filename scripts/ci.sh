#!/bin/sh
# Tier-1 continuous integration: API surface guard + full test suite.
#
#     sh scripts/ci.sh
set -e
cd "$(dirname "$0")/.."

echo "== repro.api surface =="
python scripts/check_api_surface.py --strict

echo "== structured log schema =="
PYTHONPATH=src python scripts/check_log_schema.py

echo "== learn dataset/model schema =="
PYTHONPATH=src python scripts/check_learn_schema.py

echo "== design service smoke =="
PYTHONPATH=src python scripts/service_smoke.py

# A traced benchmark pass patches engine entry points and reads their
# counters.  run.py fails on an unfaithful pass; a non-deterministic one
# is caught from its trace.determinism_mismatches metric.
traced_run() {
    trace_run=$(python3 perfbench/run.py --workload "$1" --seed 1 \
        --seconds 1 --trace 1) || { printf '%s\n' "$trace_run"; exit 1; }
    printf '%s\n' "$trace_run" | tail -n 1 | python3 -c '
import json, sys
value = json.load(sys.stdin)["metrics"]["trace.determinism_mismatches"]["value"]
sys.exit("trace.determinism_mismatches = %s" % value if value else 0)'
}

echo "== benchmark solver hooks (traced table1 run) =="
# Subclasses repro.sat.Solver and reads its counters.
traced_run table1

echo "== benchmark physics hooks (traced tile_library run) =="
# Patches repro.sidb.operational.quickexact_ground_state and SimAnneal
# and reads QuickExactStatistics fields.
traced_run tile_library

echo "== benchmark imports =="
# Collects (imports) every benchmark without running it.
PYTHONPATH=src python -m pytest benchmarks --collect-only -q

echo "== examples =="
# Runs every example from a temporary directory: quickstart.py writes
# mux21.sqd into its working directory.
repo=$(pwd)
examples_dir=$(mktemp -d)
trap 'rm -rf "$examples_dir"' EXIT
for example in examples/*.py; do
    echo "$example"
    (cd "$examples_dir" && PYTHONPATH="$repo/src" python "$repo/$example") \
        > /dev/null
done

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q
