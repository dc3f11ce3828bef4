"""Ablation benches for the design choices the paper calls out.

A1  XAG vs AIG as the synthesis data structure (Section 4.2: XAGs are
    "potentially more compact" because the Bestagon library has XOR tiles)
A2  cut rewriting on/off (flow step 2)
A3  exact vs heuristic physical design
A4  clocking schemes: row-based Columnar vs 2DDWave vs USE
A6  close/far input perturbers vs Huff-style present/absent encoding
"""

import pytest

from conftest import print_header
from repro.coords.lattice import LatticeSite
from repro.flow import FlowConfiguration, design_sidb_circuit
from repro.layout.clocking import two_d_d_wave, use_scheme
from repro.networks import benchmark_network, benchmark_verilog
from repro.networks.truth_table import TruthTable
from repro.networks.xag import Xag, XagNodeKind
from repro.physical_design import (
    ExactPhysicalDesign,
    HeuristicPhysicalDesign,
    PhysicalDesignError,
)
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest, check_operational
from repro.synthesis import cut_rewrite, map_to_bestagon
from repro.synthesis.rewrite import RewriteStatistics
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row


def _xag_to_aig_size(xag):
    """Size of the genuine AIG conversion (XORs become 3 ANDs)."""
    from repro.networks.aig import aig_from_xag

    return aig_from_xag(xag).num_gates


@pytest.mark.parametrize(
    "name", ["xor2", "par_check", "xor5_r1", "cm82a_5", "1bitAdderAOIG"]
)
def test_a1_xag_vs_aig(benchmark, name):
    xag = benchmark_network(name)
    aig_size = benchmark.pedantic(
        _xag_to_aig_size, args=(xag,), rounds=1, iterations=1
    )
    print(f"\n  {name:14s}: XAG {xag.num_gates:3d} gates, "
          f"AIG {aig_size:3d} gates "
          f"({aig_size / max(1, xag.num_gates):.1f}x)")
    assert aig_size >= xag.num_gates  # XAGs never lose on XOR-rich logic


@pytest.mark.parametrize("name", ["majority_5_r1", "cm82a_5", "newtag"])
def test_a2_rewriting_effect(benchmark, name, npn_database):
    xag = benchmark_network(name)
    stats = RewriteStatistics()
    rewritten = benchmark.pedantic(
        cut_rewrite, args=(xag, npn_database),
        kwargs={"statistics": stats}, rounds=1, iterations=1,
    )
    print(f"\n  {name:14s}: {stats.gates_before} -> {stats.gates_after} "
          f"gates in {stats.iterations} iteration(s)")
    assert rewritten.num_gates <= xag.num_gates


@pytest.mark.parametrize("name", ["xor2", "par_gen", "xor5_r1"])
def test_a3_exact_vs_heuristic(benchmark, name, npn_database):
    network = map_to_bestagon(cut_rewrite(benchmark_network(name), npn_database))
    exact = ExactPhysicalDesign().run(network)

    def run_heuristic():
        return HeuristicPhysicalDesign(seed=5).run(network)

    heuristic = benchmark.pedantic(run_heuristic, rounds=1, iterations=1)
    print(f"\n  {name:10s}: exact {exact.width}x{exact.height}"
          f"={exact.num_tiles}, heuristic {heuristic.width}x"
          f"{heuristic.height}={heuristic.num_tiles} "
          f"(+{heuristic.num_tiles - exact.num_tiles} tiles)")
    assert heuristic.num_tiles >= exact.num_tiles


def test_a4_clocking_schemes(benchmark, npn_database):
    print_header("Ablation A4 -- clocking schemes")
    network = map_to_bestagon(cut_rewrite(benchmark_network("xor2"), npn_database))

    columnar = benchmark.pedantic(
        ExactPhysicalDesign().run, args=(network,), rounds=1, iterations=1
    )
    print(f"  columnar-rows: {columnar.width}x{columnar.height} (routable)")

    # USE is not feed-forward: needs intra-super-tile routing
    # (the paper's future work) and is rejected by construction.
    with pytest.raises(PhysicalDesignError):
        ExactPhysicalDesign(clocking=use_scheme())
    print("  use-hex      : rejected (not feed-forward; future work)")

    # 2DDWave admits only SE hops on hexagons: strictly more restrictive.
    from repro.layout.drc import check_layout

    wave_layout = ExactPhysicalDesign(clocking=two_d_d_wave()).run(network)
    violations = [
        v for v in check_layout(wave_layout) if v.rule == "clocking"
    ]
    print(f"  2ddwave-hex  : {len(violations)} SW hops violate the scheme")


def _perturber_robustness(encoding: str):
    """Wire driven by close/far (paper) or present/absent (Huff) inputs,
    with a parasitic disturbance dot near the wire; returns operational."""
    body = []
    pairs = []
    for k in range(3):
        body += [S(0, 6 * k), S(0, 6 * k + 2)]
        pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
    body.append(S(0, 18))  # output hold perturber
    body.append(S(7, 8))   # parasitic neighboring SiDB structure
    if encoding == "close_far":
        stimuli = [([S(0, -6)], [S(0, -2)])]
    else:  # Huff: perturber absent for 0, present for 1
        stimuli = [([], [S(0, -2)])]
    report = check_operational(
        GateUnderTest(body, stimuli, [pairs[-1]], [TruthTable(1, 0b10)]),
        SiDBSimulationParameters.bestagon(),
    )
    return report.operational


def test_a6_perturber_encoding(benchmark):
    print_header("Ablation A6 -- input encodings under disturbance")
    close_far = benchmark.pedantic(
        _perturber_robustness, args=("close_far",), rounds=1, iterations=1
    )
    huff = _perturber_robustness("huff")
    print(f"  close/far perturbers (paper) : "
          f"{'operational' if close_far else 'fails'}")
    print(f"  present/absent (Huff et al.) : "
          f"{'operational' if huff else 'fails'}")
    # The paper's refinement must be at least as robust as Huff's.
    assert close_far or not huff
