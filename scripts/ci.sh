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
# Subclasses repro.sat.Solver and reads its counters.  xor5_majority's
# last gate depends on all 5 PIs, so exact P&R starts at 6 rows, not 5:
# its 5x5 and 6x5 UNSAT proofs are no longer made.
traced_run table1 place_route.conflicts=103 \
    place_route.propagations=19928 verify.conflicts=119

echo "== exact P&R height bound (traced pnr_unsat run) =="
# newtag's last NAND depends on all 8 PIs, so no layout has fewer than
# 9 rows: exact P&R starts at 8x9, SAT in 10 conflicts, and proves
# nothing UNSAT (8x7, 9x7, 8x8, 10x7 and 9x8 took 2,363 conflicts).
traced_run pnr_unsat place_route.candidates=1 \
    place_route.unsat_candidates=0 place_route.conflicts=10 \
    library.sidbs=666 sqd.bytes=100645

echo "== benchmark physics hooks (traced tile_library run) =="
# Patches repro.sidb.operational.quickexact_ground_state and SimAnneal
# and reads QuickExactStatistics fields.  Engine auto solves every
# pattern exactly within QuickExact's node budget, so QuickExact runs
# once per isometry class of all 88 patterns (52 classes: half_adder's
# 4 patterns of 52 sites included), on the class's canonical form, and
# SimAnneal never runs; a memo hit builds no geometry.  The node, leaf
# and cut counts are the witnesses' pruning, with the hop witness over
# each site's two strongest earlier partners and 6-site leaves:
# half_adder's searches add 47,478 of the 95,834 nodes.
traced_run tile_library quickexact.calls=52 quickexact.nodes_visited=95834 \
    quickexact.leaves_evaluated=1451 quickexact.cuts=46518 \
    simanneal.calls=0 geometry.hits=0 geometry.misses=52 \
    validate.patterns=88

echo "== design script load =="
# Runs only the top level of the offline design scans (imports and
# constants): no stage runs and nothing is written, but an API the
# script imports that moved or vanished fails here.  The tier-1 tests
# run its fast stages.
PYTHONPATH=src python -c '
import runpy
runpy.run_path("scripts/design_gates.py", run_name="ci")
'

echo "== benchmark imports =="
# Collects (imports) every benchmark without running it.
PYTHONPATH=src python -m pytest benchmarks --collect-only -q

echo "== paper-figure benches (Fig. 1a, 1c, 2, 5) =="
# Runs the fast figure benches in full (a few seconds, nothing
# written): Fig. 1a checks a driven BDL pair, Fig. 1c the OR gate at
# Huff et al.'s parameters under ExGS and SimAnneal, Fig. 2 the clocked
# wire, Fig. 5 the library tiles under engine auto.
PYTHONPATH=src python -m pytest benchmarks/bench_fig1_cells.py \
    benchmarks/bench_fig1c_or_gate.py benchmarks/bench_fig2_clocking.py \
    benchmarks/bench_fig5_gate_library.py -q

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
