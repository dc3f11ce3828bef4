"""Figure 1c: the Y-shaped OR gate simulated at Huff et al.'s parameters.

The paper recreates Huff et al.'s experimentally demonstrated OR gate in
SiQAD and simulates it with SimAnneal at mu = -0.28 eV, eps_r = 5.6,
lambda_TF = 5 nm, showing the output toggling to 1 whenever at least one
input is 1.  This bench reproduces that simulation on our OR-gate core
with both the exhaustive engine and SimAnneal, through the operational
check every tile goes through: each input is a perturber at row -2
(logic 1) or row -6 (logic 0), and the degenerate ground states of a
pattern must agree on the output.
"""

from dataclasses import replace

from conftest import print_header
from repro.gatelib.designs import core_parameters, two_input_core
from repro.networks.truth_table import TruthTable
from repro.sidb.operational import GateUnderTest, check_operational
from repro.tech.parameters import SiDBSimulationParameters

OBSERVED_OR = [(False,), (True,), (True,), (True,)]


def _or_gate() -> GateUnderTest:
    """The scanned OR core, read at its junction pair only."""
    core = two_input_core(core_parameters("or"), TruthTable(2, 0b1110))
    return replace(
        core, output_pairs=core.output_pairs[-1:], outputs=core.outputs[-1:]
    )


def _check(engine: str, parameters: SiDBSimulationParameters):
    return check_operational(_or_gate(), parameters, engine)


def test_fig1c_or_gate_exact(benchmark):
    """Exhaustive ground states reproduce the OR truth table."""
    report = benchmark.pedantic(
        _check,
        args=("exhaustive", SiDBSimulationParameters.huff_or_gate()),
        rounds=1, iterations=1,
    )
    print_header(
        "Figure 1c -- OR gate, mu=-0.28 eV, eps_r=5.6, lambda_TF=5 nm (ExGS)"
    )
    for result in report.patterns:
        a, b = result.pattern & 1, result.pattern >> 1 & 1
        print(f"  inputs ({a},{b}) -> output {int(bool(result.observed[0]))}")
    assert report.truth_table_observed() == OBSERVED_OR
    assert report.operational


def test_fig1c_or_gate_simanneal(benchmark):
    """SimAnneal agrees with the exhaustive oracle (the paper's engine)."""
    report = benchmark.pedantic(
        _check,
        args=("simanneal", SiDBSimulationParameters.huff_or_gate()),
        rounds=1, iterations=1,
    )
    assert report.truth_table_observed() == OBSERVED_OR
    assert report.operational


def test_fig1c_also_operational_at_bestagon_parameters(benchmark):
    report = benchmark.pedantic(
        _check,
        args=("exhaustive", SiDBSimulationParameters.bestagon()),
        rounds=1, iterations=1,
    )
    assert report.truth_table_observed() == OBSERVED_OR
    assert report.operational
