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

from conftest import print_header
from repro.coords.lattice import LatticeSite
from repro.gatelib.designs import core_parameters
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest, check_operational
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
OBSERVED_OR = [(False,), (True,), (True,), (True,)]


def _or_gate() -> GateUnderTest:
    params = core_parameters("or")
    dx1, dx2, og = params["dx1"], params["dx2"], params["og"]
    sites = []
    for sign in (-1, 1):
        c0, c1 = sign * (dx2 + dx1), sign * dx2
        sites += [S(c0, 0), S(c0, 2), S(c1, 6), S(c1, 8)]
    orow = 8 + og
    sites += [S(0, orow), S(0, orow + 2)]
    for c, r in params.get("extra", []):
        sites.append(S(c, r))
    sites.append(S(0, orow + 2 + params["gout"]))
    stim = dx2 + 2 * dx1
    return GateUnderTest(
        body=sites,
        input_stimuli=[
            ([S(column, -6)], [S(column, -2)]) for column in (-stim, stim)
        ],
        output_pairs=[BdlPair(S(0, orow), S(0, orow + 2))],
        outputs=[TruthTable(2, 0b1110)],
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
