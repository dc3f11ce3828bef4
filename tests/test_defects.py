"""Tests of the surface-defect subsystem (repro.defects)."""

import math

import pytest

from repro.coords.hexagonal import HexCoord
from repro.coords.lattice import LatticeSite
from repro.defects import (
    DefectType,
    SidbDefect,
    SurfaceDefects,
    blocked_tiles,
    recheck_layout_against_defects,
    tile_is_blocked,
)
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.gatelib.library import BestagonLibrary
from repro.gatelib.tile import TileGeometry
from repro.networks import benchmark_verilog
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel, external_potential_vector
from repro.sidb.operational import check_operational
from repro.sqd.sqd import read_sqd, read_sqd_defects, write_sqd
from repro.tech.parameters import SiDBSimulationParameters


def _defect_under_tile(coord: HexCoord, kind=DefectType.SILOXANE) -> SidbDefect:
    """A defect dead-center in the footprint of ``coord``."""
    geometry = TileGeometry()
    column0, row0 = geometry.origin_of(coord)
    column = column0 + geometry.width_columns // 2
    sub_row = row0 + geometry.height_rows // 2
    return SidbDefect(
        LatticeSite(column, sub_row // 2, sub_row % 2), kind
    )


# --- model ---------------------------------------------------------------


def test_defect_types_and_charges():
    assert DefectType.DB.is_charged
    assert DefectType.SI_VACANCY.is_charged
    assert not DefectType.SILOXANE.is_charged
    assert SidbDefect(LatticeSite(0, 0, 0), DefectType.DB).charge == -1
    assert SidbDefect(LatticeSite(0, 0, 0), DefectType.ARSENIC).charge == 1
    assert SidbDefect(LatticeSite(0, 0, 0), DefectType.SILOXANE).charge == 0
    custom = SidbDefect(LatticeSite(0, 0, 0), DefectType.DB, charge=-2)
    assert custom.charge == -2


def test_surface_collection_rejects_duplicate_site():
    surface = SurfaceDefects()
    surface.add(SidbDefect(LatticeSite(1, 2, 0), DefectType.DB))
    with pytest.raises(ValueError):
        surface.add(SidbDefect(LatticeSite(1, 2, 0), DefectType.SILOXANE))


def test_surface_json_round_trip():
    surface = SurfaceDefects(
        [
            SidbDefect(LatticeSite(3, 4, 1), DefectType.DB),
            SidbDefect(LatticeSite(10, 2, 0), DefectType.MISSING_DIMER),
            SidbDefect(LatticeSite(7, 7, 1), DefectType.ARSENIC, charge=1),
        ]
    )
    restored = SurfaceDefects.from_json(surface.to_json())
    assert list(restored) == list(surface)


def test_sample_is_deterministic():
    a = SurfaceDefects.sample(200, 100, density_per_nm2=1e-3, seed=7)
    b = SurfaceDefects.sample(200, 100, density_per_nm2=1e-3, seed=7)
    c = SurfaceDefects.sample(200, 100, density_per_nm2=1e-3, seed=8)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert len(a) > 0


# --- electrostatics ------------------------------------------------------


def test_zero_defects_energy_model_bit_identical():
    layout = SidbLayout([LatticeSite(0, 0, 0), LatticeSite(5, 2, 1)])
    parameters = SiDBSimulationParameters()
    pristine = EnergyModel(layout, parameters)
    with_empty = EnergyModel(layout, parameters, defects=())
    assert with_empty.external_potential is None
    for n in ([0, 0], [1, 0], [1, 1]):
        assert pristine.energy(n) == with_empty.energy(n)


def test_charged_defect_shifts_energy():
    layout = SidbLayout([LatticeSite(0, 0, 0), LatticeSite(5, 2, 1)])
    parameters = SiDBSimulationParameters()
    defect = SidbDefect(LatticeSite(10, 4, 0), DefectType.DB)
    model = EnergyModel(layout, parameters, defects=[defect])
    pristine = EnergyModel(layout, parameters)
    # A negative defect repels DB- electrons: occupied states get
    # strictly more positive energy; the empty state is unchanged.
    assert model.energy([0, 0]) == pristine.energy([0, 0])
    assert model.energy([1, 1]) > pristine.energy([1, 1])


def test_structural_defect_has_no_potential():
    layout = SidbLayout([LatticeSite(0, 0, 0)])
    defect = SidbDefect(LatticeSite(4, 2, 0), DefectType.SILOXANE)
    vector = external_potential_vector(
        list(layout.sites()), [defect], SiDBSimulationParameters()
    )
    assert vector is None


def test_defect_on_sidb_site_rejected():
    site = LatticeSite(2, 2, 0)
    layout = SidbLayout([site])
    with pytest.raises(ValueError):
        EnergyModel(
            layout,
            SiDBSimulationParameters(),
            defects=[SidbDefect(site, DefectType.DB)],
        )


# --- exclusion geometry --------------------------------------------------


def test_structural_defect_blocks_only_its_tile():
    defect = _defect_under_tile(HexCoord(1, 0))
    blocked = blocked_tiles(4, 4, SurfaceDefects([defect]))
    assert blocked == {(1, 0)}


def test_charged_defect_blocks_by_separation():
    geometry = TileGeometry()
    defect = _defect_under_tile(HexCoord(0, 0), DefectType.DB)
    assert tile_is_blocked(HexCoord(0, 0), [defect], geometry)
    # The 10 nm separation reaches past the tile border: a charge just
    # left of tile (1,0) blocks it, a tile further away is untouched.
    edge = SidbDefect(
        LatticeSite(geometry.width_columns - 1, 11, 1), DefectType.DB
    )
    assert tile_is_blocked(HexCoord(1, 0), [edge], geometry)
    assert not tile_is_blocked(HexCoord(3, 0), [edge], geometry)


def test_no_defects_blocks_nothing():
    assert blocked_tiles(8, 8, None) == frozenset()
    assert blocked_tiles(8, 8, SurfaceDefects()) == frozenset()


# --- defect-aware flow ---------------------------------------------------


def test_empty_defects_flow_bit_identical():
    verilog = benchmark_verilog("xor2")
    pristine = design_sidb_circuit(verilog, "xor2")
    empty = design_sidb_circuit(
        verilog, "xor2", FlowConfiguration(defects=SurfaceDefects())
    )
    assert empty.sqd == pristine.sqd
    assert empty.defect_report is None
    assert [s.name for s in empty.trace.children] == [
        s.name for s in pristine.trace.children
    ]


@pytest.mark.parametrize("name", ["xor2", "mux21"])
def test_exact_engine_avoids_defect_under_used_tile(name):
    verilog = benchmark_verilog(name)
    pristine = design_sidb_circuit(verilog, name)
    used = sorted((c.x, c.y) for c, _ in pristine.layout.occupied())
    defects = SurfaceDefects([_defect_under_tile(HexCoord(*used[0]))])
    config = FlowConfiguration(engine="exact", defects=defects)
    result = design_sidb_circuit(verilog, name, config)
    blocked = blocked_tiles(
        result.layout.width, result.layout.height, defects
    )
    assert used[0] in blocked
    occupied = {(c.x, c.y) for c, _ in result.layout.occupied()}
    assert not occupied & blocked
    assert result.equivalence is not None and result.equivalence.equivalent


def test_heuristic_engine_avoids_defect():
    verilog = benchmark_verilog("xor2")
    pristine = design_sidb_circuit(
        verilog, "xor2", FlowConfiguration(engine="heuristic")
    )
    used = sorted((c.x, c.y) for c, _ in pristine.layout.occupied())
    defects = SurfaceDefects([_defect_under_tile(HexCoord(*used[0]))])
    config = FlowConfiguration(engine="heuristic", defects=defects)
    result = design_sidb_circuit(verilog, "xor2", config)
    blocked = blocked_tiles(
        result.layout.width, result.layout.height, defects
    )
    occupied = {(c.x, c.y) for c, _ in result.layout.occupied()}
    assert not occupied & blocked
    assert result.equivalence is not None and result.equivalence.equivalent


# --- operational recheck -------------------------------------------------


def test_recheck_zero_defects_identical_to_pristine():
    result = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    report = recheck_layout_against_defects(
        result.layout, SurfaceDefects()
    )
    assert report.operational
    assert report.tiles_checked == 0
    assert all(tile.skipped for tile in report.tiles)


def test_recheck_negligible_far_charge_is_operational():
    result = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    far = SurfaceDefects(
        [SidbDefect(LatticeSite(5000, 2000, 0), DefectType.ARSENIC)]
    )
    report = recheck_layout_against_defects(
        result.layout, far, influence_radius_nm=math.inf
    )
    assert report.tiles_checked == len(report.tiles)
    assert report.operational


def test_recheck_close_charge_regresses_a_tile():
    result = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    geometry = TileGeometry()
    library_sites = sorted(result.sidb_layout.sites(), key=lambda s: s.row)
    anchor = library_sites[0]
    close = SurfaceDefects(
        [SidbDefect(anchor.translated(2, 1), DefectType.DB)]
    )
    report = recheck_layout_against_defects(result.layout, close)
    assert report.tiles_checked >= 1
    assert not report.operational
    assert report.failing_tiles


def test_recheck_structural_defect_on_design_site_fails_tile():
    result = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    site = next(iter(result.sidb_layout.sites()))
    clobber = SurfaceDefects([SidbDefect(site, DefectType.MISSING_DIMER)])
    report = recheck_layout_against_defects(result.layout, clobber)
    assert not report.operational


@pytest.mark.parametrize(
    "site, kind",
    [
        # The output perturber of the pi_SE tile at (0, 0) ...
        ((45, 22, 0), DefectType.DB),
        ((45, 22, 0), DefectType.ARSENIC),
        # ... and the close stimulus of its input.
        ((45, 0, 0), DefectType.DB),
    ],
)
def test_recheck_charged_defect_on_a_simulated_site_fails_tile(site, kind):
    result = design_sidb_circuit(benchmark_verilog("xor2"), "xor2")
    defect = SidbDefect(LatticeSite(*site), kind)
    # Simulated by the tile check, but not a fabricated dot.
    assert defect.site not in set(result.sidb_layout.sites())
    report = recheck_layout_against_defects(
        result.layout, SurfaceDefects([defect])
    )
    tile = next(t for t in report.tiles if t.coord == HexCoord(0, 0))
    assert tile.design_name == "pi_SE"
    assert not tile.operational
    assert not report.operational


@pytest.mark.parametrize(
    "name", ["wire_NW_SW", "inv_NW_SW", "or_SE", "fanout_NW"]
)
def test_translation_keeps_the_tile_verdict(name):
    """The recheck's pristine baseline is the untranslated tile."""
    geometry = TileGeometry()
    parameters = SiDBSimulationParameters.bestagon()
    gate = BestagonLibrary().design(name).under_test
    reference = check_operational(gate, parameters)
    # Origins (60, 0), (30, 46) and (210, 230).
    for coord in (HexCoord(1, 0), HexCoord(0, 1), HexCoord(3, 5)):
        moved = check_operational(
            gate.translated(*geometry.origin_of(coord)), parameters
        )
        assert len(moved.patterns) == len(reference.patterns)
        for base, shifted in zip(reference.patterns, moved.patterns):
            assert shifted.observed == base.observed
            assert shifted.correct == base.correct
            assert shifted.ground_energy == pytest.approx(
                base.ground_energy, abs=1e-12
            )


# --- .sqd round trip -----------------------------------------------------


def test_sqd_round_trip_with_defect_annotations():
    layout = SidbLayout([LatticeSite(0, 0, 0), LatticeSite(4, 2, 1)])
    defects = SurfaceDefects(
        [
            SidbDefect(LatticeSite(9, 3, 0), DefectType.DB),
            SidbDefect(LatticeSite(12, 1, 1), DefectType.SILOXANE),
        ]
    )
    text = write_sqd(layout, "demo", defects)
    assert sorted(read_sqd(text).sites()) == sorted(layout.sites())
    restored = read_sqd_defects(text)
    assert list(restored) == list(defects)


def test_sqd_pristine_unchanged_by_defects_parameter():
    layout = SidbLayout([LatticeSite(0, 0, 0)])
    assert write_sqd(layout, "demo") == write_sqd(layout, "demo", None)
    assert write_sqd(layout, "demo") == write_sqd(
        layout, "demo", SurfaceDefects()
    )
    assert read_sqd_defects(write_sqd(layout, "demo")).to_json() == (
        SurfaceDefects().to_json()
    )
