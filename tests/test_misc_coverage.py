"""Additional coverage: half-adder tile, SiDB layout bounding boxes,
rendering variants, solver reuse and CLI file input."""

import pytest

from repro.coords.lattice import LatticeSite
from repro.gatelib.designs import builtin_designs, half_adder_design
from repro.gatelib.tile import Port
from repro.networks.truth_table import TruthTable
from repro.sat import Cnf, Solver, SolverResult
from repro.sidb.charge import SidbLayout

S = LatticeSite.from_row


class TestHalfAdderTile:
    """The paper lists single-tile half adders among its templates."""

    def test_ports_and_functions(self):
        design = half_adder_design()
        assert design.input_ports == (Port.NW, Port.NE)
        assert design.output_ports == (Port.SW, Port.SE)
        assert design.functions == (
            TruthTable(2, 0b0110),  # sum = XOR
            TruthTable(2, 0b1000),  # carry = AND
        )

    def test_two_output_pairs(self):
        design = half_adder_design()
        assert len(design.output_pairs) == 2
        assert design.output_pairs[0] != design.output_pairs[1]

    def test_in_library(self):
        assert "half_adder" in builtin_designs()


class TestBdlDetectionOnDesigns:
    def test_bounding_box(self):
        layout = SidbLayout([S(0, 0), S(10, 4)])
        min_x, min_y, max_x, max_y = layout.bounding_box_nm()
        assert min_x == 0.0 and max_x == pytest.approx(3.84)


class TestRenderVariants:
    def test_svg_without_zones(self):
        from repro.layout.gate_layout import GateLevelLayout
        from repro.layout.render import layout_to_svg

        svg = layout_to_svg(GateLevelLayout(2, 2), show_zones=False)
        assert "#dbeafe" not in svg

    def test_ascii_marks_clock_zones(self):
        from repro.layout.gate_layout import GateLevelLayout
        from repro.layout.render import layout_to_ascii

        text = layout_to_ascii(GateLevelLayout(2, 5))
        assert "z0" in text and "z3" in text


class TestSolverReuse:
    def test_add_cnf_incremental(self):
        solver = Solver()
        first = Cnf()
        a = first.new_var()
        first.add_clause([a])
        solver.add_cnf(first)
        assert solver.solve() is SolverResult.SAT
        second = Cnf()
        second.num_vars = 1
        second.add_clause([-a])
        solver.add_cnf(second)
        assert solver.solve() is SolverResult.UNSAT

    def test_model_before_solve_rejected(self):
        with pytest.raises(RuntimeError):
            Solver().model()


class TestCliFileInput:
    def test_synth_from_file(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "toy.v"
        source.write_text(
            "module toy (a, b, f); input a, b; output f;\n"
            "assign f = a ^ b; endmodule\n"
        )
        assert main(["synth", str(source)]) == 0
        assert "toy" in capsys.readouterr().out
