"""Figure 1a/1b: QCA vs BDL cell encodings and the H-Si(100)-2x1 lattice.

Reproduces the quantitative content behind the illustration: the BDL
bit encoding (one electron per dot pair, position = logic value) and the
surface-lattice geometry SiDBs are fabricated on.  The driven cell is
judged by the operational check every library tile goes through.
"""

import pytest

from conftest import print_header
from repro.coords.lattice import LatticeSite, SurfaceLattice
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.energy import clear_geometry_cache
from repro.sidb.operational import GateUnderTest, check_operational
from repro.tech.constants import LATTICE_A_NM, LATTICE_B_NM, LATTICE_C_NM
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
# The driven pair, a hold dot below it, and a driver far above it for
# logic 0 or close above it for logic 1.
CELL = GateUnderTest(
    body=[S(0, 0), S(0, 2), S(0, 6)],
    input_stimuli=[([S(0, -6)], [S(0, -2)])],
    output_pairs=[BdlPair(S(0, 0), S(0, 2))],
    outputs=[TruthTable(1, 0b10)],
)


def _bdl_cell_states():
    """The operational check of the driven pair, simulated afresh.

    Clearing the caches first makes each timed call simulate both
    driver positions instead of returning a memo hit.
    """
    clear_geometry_cache()
    return check_operational(CELL, SiDBSimulationParameters.bestagon())


def test_fig1a_bdl_encoding(benchmark):
    report = benchmark(_bdl_cell_states)
    print_header("Figure 1a -- BDL cell: driver distance sets the bit")
    for result in report.patterns:
        print(
            f"  driver {'close' if result.pattern else 'far '} "
            f"-> pair reads {result.observed[0]}"
        )
    assert report.truth_table_observed() == [(False,), (True,)]
    assert report.operational


def test_fig1b_lattice_geometry(benchmark):
    def geometry():
        a = SurfaceLattice.distance_nm(S(0, 0), S(1, 0))
        dimer = SurfaceLattice.distance_nm(
            LatticeSite(0, 0, 0), LatticeSite(0, 0, 1)
        )
        row = SurfaceLattice.distance_nm(
            LatticeSite(0, 0, 0), LatticeSite(0, 1, 0)
        )
        return a, dimer, row

    a, dimer, row = benchmark(geometry)
    print_header("Figure 1b -- H-Si(100)-2x1 lattice constants")
    print(f"  dimer-row pitch a      = {a:.3f} nm (paper: 0.384)")
    print(f"  intra-dimer separation = {dimer:.3f} nm (paper: 0.225)")
    print(f"  inter-row pitch b      = {row:.3f} nm (paper: 0.768)")
    assert a == pytest.approx(LATTICE_A_NM)
    assert dimer == pytest.approx(LATTICE_C_NM)
    assert row == pytest.approx(LATTICE_B_NM)
