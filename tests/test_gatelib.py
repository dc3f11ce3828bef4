"""Tests for the Bestagon gate library: geometry, designs, lookup,
application and physics validation of the core tiles."""

import re

import pytest

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.gatelib import BestagonLibrary, TileGeometry, apply_library
from repro.gatelib.designer import score_design
from repro.gatelib.designs import _load_found, builtin_designs, core_parameters
from repro.gatelib.tile import CANVAS_FIRST_ROW, CANVAS_LAST_ROW, Port
from repro.layout.gate_layout import (
    GateLevelLayout,
    TileContent,
    TileKind,
    cross_tile,
    wire_tile,
)
from repro.networks.logic_network import GateType
from repro.learn.collect import bootstrap_problems
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import GateUnderTest, check_operational
from repro.sidb.simanneal import SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

NW, NE = HexDirection.NORTH_WEST, HexDirection.NORTH_EAST
SW, SE = HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST


class TestTileGeometry:
    def test_even_row_origin(self):
        geometry = TileGeometry()
        assert geometry.origin_of(HexCoord(2, 0)) == (120, 0)

    def test_odd_row_half_shift(self):
        geometry = TileGeometry()
        assert geometry.origin_of(HexCoord(0, 1)) == (30, 46)

    def test_port_alignment_across_tiles(self):
        """A tile's SE port column equals its SE neighbor's NW port column."""
        geometry = TileGeometry()
        for coord in (HexCoord(1, 0), HexCoord(1, 1), HexCoord(2, 3)):
            se = coord.neighbor(SE)
            own = geometry.port_position(coord, Port.SE)
            theirs = geometry.port_position(se, Port.NW)
            assert own[0] == theirs[0]
            sw = coord.neighbor(SW)
            assert (
                geometry.port_position(coord, Port.SW)[0]
                == geometry.port_position(sw, Port.NE)[0]
            )

    def test_canvas_separation_respects_rule(self):
        geometry = TileGeometry()
        assert geometry.canvas_separation_ok()
        assert geometry.canvas_separation_nm() >= 10.0

    def test_canvas_rows_ordered(self):
        assert CANVAS_FIRST_ROW < CANVAS_LAST_ROW < 46


class TestDesigns:
    def test_all_builtin_designs_present(self):
        designs = builtin_designs()
        expected = {
            "wire_NW_SW", "wire_NW_SE", "wire_NE_SW", "wire_NE_SE",
            "inv_NW_SW", "inv_NW_SE", "inv_NE_SW", "inv_NE_SE",
            "fanout_NW", "fanout_NE", "double_wire", "cross",
            "pi_SW", "pi_SE", "po_NW", "po_NE", "half_adder",
        }
        for kind in ("and", "or", "nand", "nor", "xor", "xnor"):
            expected.add(f"{kind}_SW")
            expected.add(f"{kind}_SE")
        assert expected <= set(designs)

    def test_designs_fit_inside_tile(self):
        for name, design in builtin_designs().items():
            for site in design.sites:
                assert -1 <= site.n <= 60, f"{name} column {site.n}"
                assert 0 <= site.row <= 45, f"{name} row {site.row}"

    def test_designs_have_no_duplicate_dots(self):
        for name, design in builtin_designs().items():
            assert len(set(design.sites)) == len(design.sites), name

    def test_gate_functions_declared(self):
        designs = builtin_designs()
        assert designs["and_SE"].functions[0] == TruthTable(2, 0b1000)
        assert designs["nor_SW"].functions[0] == TruthTable(2, 0b0001)
        assert designs["inv_NW_SW"].functions[0] == TruthTable(1, 0b01)

    def test_scanned_cores_available(self):
        assert core_parameters("and") is not None
        assert core_parameters("or") is not None

    def test_sidb_counts_reasonable(self):
        for name, design in builtin_designs().items():
            assert 4 <= design.num_sidbs <= 60, name

    def test_missing_parameter_file_is_an_error(self, tmp_path):
        missing = tmp_path / "found_designs.json"
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            _load_found(str(missing))


class TestLibraryLookup:
    def test_wire_lookup(self):
        library = BestagonLibrary()
        content = wire_tile(0, NW, SE)
        assert library.design_for(content).name == "wire_NW_SE"

    def test_gate_lookup(self):
        library = BestagonLibrary()
        content = TileContent(
            TileKind.GATE, GateType.XNOR2, (0,), (NW, NE), (SW,)
        )
        assert library.design_for(content).name == "xnor_SW"

    def test_cross_lookup(self):
        library = BestagonLibrary()
        assert library.design_for(cross_tile(0, 1)).name == "cross"

    def test_pi_po_lookup(self):
        library = BestagonLibrary()
        pi = TileContent(TileKind.GATE, GateType.PI, (0,), (), (SE,))
        po = TileContent(TileKind.GATE, GateType.PO, (1,), (NE,), ())
        assert library.design_for(pi).name == "pi_SE"
        assert library.design_for(po).name == "po_NE"

    def test_unknown_design_rejected(self):
        with pytest.raises(KeyError):
            BestagonLibrary().design("warp_gate")


class TestApply:
    def test_apply_counts_and_translation(self):
        layout = GateLevelLayout(2, 3, name="w")
        layout.place(
            HexCoord(0, 0),
            TileContent(TileKind.GATE, GateType.PI, (0,), (), (SE,)),
        )
        layout.place(HexCoord(0, 1), wire_tile(1, NW, SW))
        layout.place(
            HexCoord(0, 2),
            TileContent(TileKind.GATE, GateType.PO, (2,), (NE,), ()),
        )
        library = BestagonLibrary()
        sidb = apply_library(layout, library)
        expected = (
            library.design("pi_SE").num_sidbs
            + library.design("wire_NW_SW").num_sidbs
            + library.design("po_NE").num_sidbs
        )
        assert len(sidb) == expected
        # Dot rows of the middle tile must be translated by 46.
        rows = sorted(site.row for site in sidb.sites())
        assert rows[0] >= 0
        assert rows[-1] >= 2 * 46


class TestPhysicsValidation:
    """Operational checks of the core validated tiles (Figure 5)."""

    @pytest.mark.parametrize("name", ["wire_NW_SW", "wire_NE_SE", "pi_SE"])
    def test_straight_wires_operational(self, name):
        library = BestagonLibrary()
        report = library.validate(name, engine="simanneal")
        assert report.operational, [
            (p.pattern, p.expected, p.observed) for p in report.patterns
        ]

    def test_validation_cached(self):
        """Memoised per arguments: same arguments, same report object;
        other parameters, engine or schedule values, a fresh report."""
        library = BestagonLibrary()
        schedule = SimAnnealParameters(instances=4, sweeps=50)
        annealed = library.validate("pi_SW", engine="simanneal", schedule=schedule)
        assert (
            library.validate(
                "pi_SW",
                engine="simanneal",
                schedule=SimAnnealParameters(instances=4, sweeps=50),
            )
            is annealed
        )
        exact = library.validate("pi_SW")
        assert exact is not annealed
        assert library.validate("pi_SW", SiDBSimulationParameters.bestagon()) is exact
        shifted = library.validate(
            "pi_SW", SiDBSimulationParameters(mu_minus=-0.28)
        )
        assert shifted is not exact
        assert [p.ground_energy for p in shifted.patterns] != [
            p.ground_energy for p in exact.patterns
        ]
        schedule.seed = 1
        assert (
            library.validate("pi_SW", engine="simanneal", schedule=schedule)
            is not annealed
        )

    def test_core_or_gate_operational_isolated(self):
        """The scanned OR core passes the exhaustive operational check."""
        from repro.coords.lattice import LatticeSite

        S = LatticeSite.from_row
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
        from repro.sidb.bdl import BdlPair

        gate = GateUnderTest(
            body=sites,
            input_stimuli=[
                ([S(-(dx2 + 2 * dx1), -6)], [S(-(dx2 + 2 * dx1), -2)]),
                ([S(dx2 + 2 * dx1, -6)], [S(dx2 + 2 * dx1, -2)]),
            ],
            output_pairs=[BdlPair(S(0, orow), S(0, orow + 2))],
            outputs=[TruthTable(2, 0b1110)],
        )
        report = check_operational(
            gate, SiDBSimulationParameters.bestagon(), engine="exhaustive"
        )
        assert report.operational


def exgs_score(problem, canvas) -> tuple[int, int]:
    """Reference canvas score: every ExGS ground state must show the
    expected outputs and hold every pinned input pair."""
    total = 1 << len(problem.input_stimuli)
    correct = 0
    for pattern in range(total):
        try:
            layout = SidbLayout(problem.fixed_sites)
            layout.extend(sorted(canvas))
            for bit, (far, close) in enumerate(problem.input_stimuli):
                layout.extend(close if (pattern >> bit) & 1 else far)
        except ValueError:
            return 0, total
        result = exhaustive_ground_state(layout, problem.parameters)
        expected = [
            (pair, table.get_bit(pattern))
            for pair, table in zip(problem.output_pairs, problem.outputs)
        ] + [
            (pair, bool((pattern >> bit) & 1))
            for pair, bit in problem.input_pairs_to_hold
        ]
        if result.ground_states and all(
            read_bdl_pair(layout, state, pair) == value
            for state in result.ground_states
            for pair, value in expected
        ):
            correct += 1
    return correct, total


class TestDesignerOracle:
    """``score_design`` (QuickExact through ``simulate_pattern``) gives
    the verdicts of the ExGS reference loop."""

    @pytest.mark.parametrize(
        "bootstrap", bootstrap_problems(), ids=lambda b: b.name
    )
    def test_matches_exgs_reference(self, bootstrap):
        problem = bootstrap.problem
        canvases = [bootstrap.known_good] + [
            bootstrap.known_good | {site}
            for site in problem.candidate_sites[::5][:6]
        ]
        for canvas in canvases:
            assert score_design(problem, canvas) == exgs_score(
                problem, canvas
            ), sorted(canvas)

    def test_canvas_on_a_stimulus_site_scores_zero(self):
        problem = bootstrap_problems()[1].problem
        close_stimulus = problem.input_stimuli[0][1][0]
        assert score_design(problem, frozenset({close_stimulus})) == (0, 4)

    def test_above_the_quickexact_ceiling_raises(self):
        problem = bootstrap_problems()[1].problem
        canvas = frozenset(problem.candidate_sites[::3][:20])
        assert len(problem.fixed_sites) + len(canvas) + 2 > 32
        with pytest.raises(ValueError, match="QuickExact limit"):
            score_design(problem, canvas)
