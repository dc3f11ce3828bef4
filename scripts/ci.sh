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

echo "== package data =="
# An installed repro builds its tiles from gatelib/found_designs.json,
# so a plain setuptools build (no wheel, nothing downloaded) must ship it.
build_dir=$(mktemp -d)
trap 'rm -rf "$build_dir"' EXIT
cp -r src pyproject.toml setup.py README.md "$build_dir"
build_log=$(cd "$build_dir" && python setup.py -q build 2>&1) \
    || { printf '%s\n' "$build_log"; exit 1; }
if [ -z "$(find "$build_dir/build" -path '*/repro/gatelib/found_designs.json')" ]
then
    echo "setup.py build left out repro/gatelib/found_designs.json"
    exit 1
fi
rm -rf "$build_dir"

# A traced benchmark pass patches engine entry points and reads their
# counters.  run.py fails on an unfaithful pass; traced_run then checks
# trace.determinism_mismatches = 0 and every name=value pin it is given,
# and fails with the list of every mismatch.  The pins are the search
# counts at seed 1: a change meant to keep the searches leaves them.
traced_run() {
    workload=$1
    shift
    trace_run=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 1) || { printf '%s\n' "$trace_run"; exit 1; }
    printf '%s\n' "$trace_run" | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
pins = dict(pin.split("=", 1) for pin in sys.argv[1:])
pins["trace.determinism_mismatches"] = "0"
found = {name: metrics.get(name, {}).get("value") for name in pins}
wrong = [
    "%s = %s, expected %s" % (name, found[name], value)
    for name, value in pins.items()
    if found[name] != float(value)
]
sys.exit("\n".join(wrong) if wrong else 0)' "$@"
}

echo "== benchmark solver hooks (traced table1 run) =="
# Subclasses repro.sat.Solver and reads its counters.
traced_run table1 place_route.conflicts=135 \
    place_route.propagations=21691 verify.conflicts=119

echo "== benchmark physics hooks (traced tile_library run) =="
# Patches repro.sidb.operational.quickexact_ground_state and SimAnneal
# and reads QuickExactStatistics fields.  Engine auto solves every
# pattern of up to 32 sites exactly, so QuickExact runs once per
# isometry class of 84 patterns (48 classes), on the class's canonical
# form, and SimAnneal only on half_adder's 4 patterns of 52 sites; a
# memo hit builds no geometry.  The node, leaf and cut counts include
# the configuration-stability (hop) witness's pruning.
traced_run tile_library quickexact.calls=48 quickexact.nodes_visited=33874 \
    quickexact.leaves_evaluated=1927 quickexact.cuts=15058 \
    simanneal.calls=4 geometry.hits=0 geometry.misses=52 \
    validate.patterns=88

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
