"""Tests for Verilog and SQD I/O."""

import pytest

from repro.coords.lattice import LatticeSite
from repro.networks import BENCHMARK_NAMES, benchmark_network
from repro.networks.simulation import exhaustive_equivalent
from repro.networks.verilog import VerilogError, parse_verilog, write_verilog
from repro.networks.xag import Xag
from repro.sidb.charge import SidbLayout
from repro.sqd.sqd import read_sqd, write_sqd


class TestVerilogParser:
    def test_assign_expressions(self):
        xag = parse_verilog(
            """
            module m (a, b, c, f);
              input a, b, c;
              output f;
              wire w;
              assign w = a & ~b;
              assign f = w | (b ^ c);
            endmodule
            """
        )
        assert xag.num_pis == 3 and xag.num_pos == 1
        reference = Xag()
        a, b, c = (reference.create_pi() for _ in range(3))
        w = reference.create_and(a, reference.create_not(b))
        reference.create_po(reference.create_or(w, reference.create_xor(b, c)))
        assert exhaustive_equivalent(xag, reference)

    def test_ternary_operator(self):
        xag = parse_verilog(
            "module m (s, a, b, f); input s, a, b; output f;\n"
            "assign f = s ? a : b; endmodule"
        )
        assert xag.evaluate([True, True, False]) == [True]
        assert xag.evaluate([False, True, False]) == [False]

    def test_gate_primitives(self):
        xag = parse_verilog(
            "module m (a, b, f); input a, b; output f;\n"
            "nand g1 (f, a, b); endmodule"
        )
        assert xag.evaluate([True, True]) == [False]
        assert xag.evaluate([True, False]) == [True]

    def test_comments_stripped(self):
        xag = parse_verilog(
            "// comment\nmodule m (a, f); /* block */ input a; output f;\n"
            "assign f = ~a; endmodule"
        )
        assert xag.evaluate([False]) == [True]

    def test_undefined_net_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f; assign f = ghost; endmodule"
            )

    def test_double_assignment_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f;\n"
                "assign f = a; assign f = ~a; endmodule"
            )

    def test_assign_to_input_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f;\n"
                "assign a = f; endmodule"
            )

    def test_combinational_cycle_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f; wire x, y;\n"
                "assign x = y & a; assign y = x; assign f = y; endmodule"
            )

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_roundtrip_all_benchmarks(self, name):
        xag = benchmark_network(name)
        parsed = parse_verilog(write_verilog(xag))
        assert exhaustive_equivalent(xag, parsed)


class TestSqd:
    def test_roundtrip(self):
        layout = SidbLayout(
            [LatticeSite(0, 0, 0), LatticeSite(3, 1, 1), LatticeSite(7, 2, 0)]
        )
        parsed = read_sqd(write_sqd(layout, "test"))
        assert sorted(parsed.sites()) == sorted(layout.sites())

    def test_physloc_in_angstroms(self):
        layout = SidbLayout([LatticeSite(1, 0, 0)])
        text = write_sqd(layout)
        assert 'x="3.840000"' in text

    def test_missing_latcoord_rejected(self):
        with pytest.raises(ValueError):
            read_sqd("<siqad><design><layer><dbdot/></layer></design></siqad>")
