"""Tests for the Bestagon gate library: geometry, designs, lookup,
application and physics validation of the core tiles."""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.coords.lattice import LatticeSite
from repro.gatelib import BestagonLibrary, TileGeometry, apply_library
from repro.gatelib.designer import (
    CanvasSearchProblem,
    score_design,
    search_canvas_design,
)
from repro.gatelib.designs import (
    GATE_TABLES,
    TWO_INPUT_TEMPLATES,
    _load_found,
    builtin_designs,
    core_parameters,
    two_input_core,
)
from repro.gatelib.tile import CANVAS_FIRST_ROW, CANVAS_LAST_ROW, Port
from repro.layout.gate_layout import (
    GateLevelLayout,
    TileContent,
    TileKind,
    cross_tile,
    wire_tile,
)
from repro.networks.logic_network import GateType
from repro.networks.truth_table import TruthTable
from repro.sidb import operational
from repro.sidb.bdl import BdlPair, read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import check_operational
from repro.sidb.quickexact import BudgetExhausted
from repro.sidb.simanneal import SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

NW, NE = HexDirection.NORTH_WEST, HexDirection.NORTH_EAST
SW, SE = HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST
S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)
DESIGN_SCANS = Path(__file__).parent.parent / "scripts" / "design_gates.py"


def design_scans():
    """A fresh module of ``scripts/design_gates.py`` (no stage run)."""
    spec = importlib.util.spec_from_file_location("design_gates", DESIGN_SCANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    def test_libraries_share_the_frozen_designs(self):
        """Designs are built once per process; each dict is the caller's."""
        first, second = builtin_designs(), builtin_designs()
        assert first is not second
        assert all(first[name] is second[name] for name in first)
        first.pop("or_SE")
        assert "or_SE" in builtin_designs()
        assert (
            BestagonLibrary().design("xor_SE")
            is BestagonLibrary().design("xor_SE")
        )

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
        # No xor fallback core: the XOR tiles embed the canvas design.
        assert core_parameters("xor") is None

    def test_tile_tuning_scores_the_candidate_core(self):
        """The tile scored for a candidate core is built around it."""
        core = {"dx1": 3, "dx2": 3, "og": 6, "gout": 4,
                "extra": [[-2, 18], [2, 18]]}
        tile = design_scans().candidate_tile("or", core)
        # The SE junction sits at column 45 below a core starting at row 25.
        extra = {LatticeSite.from_row(45 + col, 25 + row)
                 for col, row in core["extra"]}
        assert extra <= set(tile.sites)
        assert tile.sites != builtin_designs()["or_SE"].sites

    def test_sidb_counts_reasonable(self):
        for name, design in builtin_designs().items():
            assert 4 <= design.num_sidbs <= 60, name

    def test_missing_parameter_file_is_an_error(self, tmp_path):
        missing = tmp_path / "found_designs.json"
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            _load_found(str(missing))


class TestDesignScans:
    """The design scans find exactly the motifs stored in
    ``found_designs.json``."""

    @pytest.fixture
    def scans(self, tmp_path, monkeypatch):
        module = design_scans()
        monkeypatch.setattr(module, "OUT", str(tmp_path / "found.json"))
        module.RESULTS.clear()
        return module

    @pytest.mark.parametrize(
        "stage, key",
        [
            ("stage_steep_wires", "wires"),
            ("stage_inverter", "inverter"),
            ("stage_fanout", "fanout"),
            ("stage_crossing", "crossing"),
        ],
    )
    def test_stage_finds_the_stored_motifs(self, scans, tmp_path, stage, key):
        getattr(scans, stage)()
        assert scans.RESULTS == {key: _load_found()[key]}
        assert _load_found(str(tmp_path / "found.json")) == scans.RESULTS

    def test_stored_two_input_cores_classify_as_their_kind(self, scans):
        for kind, cores in _load_found()["two_input"].items():
            for core in cores:
                assert scans.classify_candidate(core) == kind, core


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
        """The scanned OR core passes the exhaustive operational check:
        its junction computes OR and its input pairs hold the inputs."""
        gate = two_input_core(core_parameters("or"), TruthTable(2, 0b1110))
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


def wire_canvas_problem() -> CanvasSearchProblem:
    """Bridge the 10-row gap of a pitch-6 wire with one BDL pair.

    The canvas ``{(0, 6), (0, 8)}`` completes the three-pair chain: the
    input pair holds the input and the output pair copies it.
    """
    input_pair = BdlPair(S(0, 0), S(0, 2))
    output_pair = BdlPair(S(0, 12), S(0, 14))
    return CanvasSearchProblem(
        fixed_sites=[
            input_pair.site0,
            input_pair.site1,
            output_pair.site0,
            output_pair.site1,
            S(0, 18),  # output perturber, gout=4 under the pair
        ],
        candidate_sites=[
            S(column, row) for column in range(-3, 4) for row in range(4, 11)
        ],
        input_stimuli=[([S(0, -6)], [S(0, -2)])],
        output_pairs=[output_pair],
        outputs=[TruthTable(1, 0b10)],
        parameters=P32,
        input_pairs_to_hold=[(input_pair, 0)],
    )


def core_canvas_problem(kind: str) -> CanvasSearchProblem:
    """Decorate the two-input core of template ``kind`` with canvas dots.

    The fixed sites, stimuli and pairs are those of
    :func:`~repro.gatelib.designs.two_input_core`; input A's pairs hold
    input 0, input B's input 1, and the junction shows the function.
    """
    gate = two_input_core(TWO_INPUT_TEMPLATES[kind], GATE_TABLES[kind])
    *holds, junction = gate.output_pairs
    fixed = set(gate.body)
    return CanvasSearchProblem(
        fixed_sites=list(gate.body),
        candidate_sites=[
            S(column, row)
            for column in range(-5, 6)
            for row in range(3, junction.site0.row - 1)
            if S(column, row) not in fixed
        ],
        input_stimuli=[
            (list(far), list(close)) for far, close in gate.input_stimuli
        ],
        output_pairs=[junction],
        outputs=[gate.outputs[-1]],
        parameters=P32,
        input_pairs_to_hold=[(pair, 0) for pair in holds[:2]]
        + [(pair, 1) for pair in holds[2:]],
    )


#: Canvas problems with a known-good canvas each: the or-core is a gate
#: without canvas dots, the xor-core is not.
CANVAS_CASES = [
    pytest.param(
        wire_canvas_problem(), frozenset({S(0, 6), S(0, 8)}), id="wire"
    ),
    pytest.param(core_canvas_problem("or"), frozenset(), id="core-or"),
    pytest.param(core_canvas_problem("xor"), frozenset(), id="core-xor"),
]


class TestDesignerOracle:
    """``score_design`` (QuickExact through ``simulate_pattern``) gives
    the verdicts of the ExGS reference loop."""

    @pytest.mark.parametrize("problem, known_good", CANVAS_CASES)
    def test_matches_exgs_reference(self, problem, known_good):
        canvases = [known_good] + [
            known_good | {site} for site in problem.candidate_sites[::5][:6]
        ]
        for canvas in canvases:
            assert score_design(problem, canvas) == exgs_score(
                problem, canvas
            ), sorted(canvas)

    def test_canvas_on_a_stimulus_site_scores_zero(self):
        problem = core_canvas_problem("or")
        close_stimulus = problem.input_stimuli[0][1][0]
        assert score_design(problem, frozenset({close_stimulus})) == (0, 4)

    def test_spent_quickexact_budget_raises(self, monkeypatch):
        problem = core_canvas_problem("or")
        canvas = frozenset(problem.candidate_sites[::3][:20])
        assert len(problem.fixed_sites) + len(canvas) + 2 > 32
        monkeypatch.setattr(operational, "QUICKEXACT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExhausted, match="budget of 1 nodes"):
            score_design(problem, canvas)

    def test_search_winner_rescores_and_seeded_search_repeats(self):
        """The search the ``xor`` design scan runs: its winner's score
        is the oracle's, and the same seed walks the same way."""
        problem = core_canvas_problem("xor")
        result = search_canvas_design(
            problem, max_dots=3, iterations=12, seed=0
        )
        assert result is not None
        canvas, correct, total = result
        assert 0 < correct <= total == 4
        assert score_design(problem, canvas) == (correct, total)
        assert search_canvas_design(
            problem, max_dots=3, iterations=12, seed=0
        ) == result
