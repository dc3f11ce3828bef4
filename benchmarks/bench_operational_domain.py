"""Operational-domain evaluation (the paper's Section-6 outlook).

The paper names "a streamlined operational domain evaluation framework"
as a key follow-up; this bench runs ours over the canonical BDL wire and
the Y-shaped OR-gate core, sweeping epsilon_r x lambda_TF around the
calibrated point (5.6, 5 nm) and printing the domain maps with their
coverage figures.
"""

import pytest

from conftest import print_header
from repro.coords.lattice import LatticeSite
from repro.gatelib.designs import core_parameters
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.operational import GateUnderTest
from repro.sidb.operational_domain import compute_operational_domain
from repro.sidb.parallel import workers_from_env

S = LatticeSite.from_row

X_VALUES = (4.6, 5.1, 5.6, 6.1, 6.6)
Y_VALUES = (3.5, 4.25, 5.0, 5.75, 6.5)

# Grid points fan out over this many worker processes (results are
# bit-identical to the serial default of 1).
WORKERS = workers_from_env()


def _wire_fixture():
    sites, pairs = [], []
    for k in range(3):
        sites += [S(0, 6 * k), S(0, 6 * k + 2)]
        pairs.append(BdlPair(S(0, 6 * k), S(0, 6 * k + 2)))
    sites.append(S(0, 18))
    return GateUnderTest(
        sites,
        [([S(0, -6)], [S(0, -2)])],
        [pairs[-1]],
        [TruthTable(1, 0b10)],
    )


def _or_fixture():
    core = core_parameters("or")
    dx1, dx2, og = core["dx1"], core["dx2"], core["og"]
    sites = []
    for sign in (-1, 1):
        c0, c1 = sign * (dx2 + dx1), sign * dx2
        sites += [S(c0, 0), S(c0, 2), S(c1, 6), S(c1, 8)]
    orow = 8 + og
    sites += [S(0, orow), S(0, orow + 2)]
    for c, r in core.get("extra", []):
        sites.append(S(c, r))
    sites.append(S(0, orow + 2 + core["gout"]))
    stim = dx2 + 2 * dx1
    return GateUnderTest(
        sites,
        [
            ([S(-stim, -6)], [S(-stim, -2)]),
            ([S(stim, -6)], [S(stim, -2)]),
        ],
        [BdlPair(S(0, orow), S(0, orow + 2))],
        [TruthTable(2, 0b1110)],
    )


@pytest.mark.parametrize("fixture_name", ["wire", "or_gate"])
def test_operational_domain(benchmark, fixture_name):
    gate = _wire_fixture() if fixture_name == "wire" else _or_fixture()
    domain = benchmark.pedantic(
        compute_operational_domain,
        args=(gate,),
        kwargs={
            "x_values": X_VALUES,
            "y_values": Y_VALUES,
            "workers": WORKERS,
        },
        rounds=1, iterations=1,
    )
    print_header(
        f"Operational domain of the {fixture_name} "
        f"(x: epsilon_r, y: lambda_TF [nm])"
    )
    print(domain.to_ascii())
    print(f"  coverage: {domain.coverage:.0%} of "
          f"{len(domain.points)} sampled points")
    # The calibrated point (5.6, 5.0) must lie inside the domain.
    nominal = [
        p for p in domain.points if p.x == 5.6 and p.y == 5.0
    ]
    assert nominal and nominal[0].operational
    assert domain.coverage > 0.2
