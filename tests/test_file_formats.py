"""Tests for Verilog and SQD I/O."""

import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest

from repro.coords.lattice import LatticeSite
from repro.defects import SurfaceDefects
from repro.flow import FlowConfiguration, design_sidb_circuit
from repro.networks import BENCHMARK_NAMES, benchmark_network, benchmark_verilog
from repro.networks.simulation import exhaustive_equivalent
from repro.networks.verilog import VerilogError, parse_verilog, write_verilog
from repro.networks.xag import Xag
from repro.sidb.charge import SidbLayout
from repro.sqd.sqd import read_sqd, write_sqd
from repro.synthesis import NpnDatabase


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


def _dom_sqd(layout, design_name="layout", defects=None):
    """The ``.sqd`` writer as it was: an ElementTree document printed by
    minidom's ``toprettyxml``.  The oracle for the direct writer."""
    root = ET.Element("siqad")
    program = ET.SubElement(root, "program")
    ET.SubElement(program, "file_purpose").text = "save"
    ET.SubElement(program, "name").text = "repro-bestagon"
    ET.SubElement(program, "version").text = "1.0.0"
    gui = ET.SubElement(root, "gui")
    ET.SubElement(gui, "zoom").text = "1"
    design = ET.SubElement(root, "design", {"name": design_name})
    ET.SubElement(
        design,
        "layer_prop",
        {"name": "Lattice", "type": "Lattice", "role": "Design"},
    )
    db_layer = ET.SubElement(design, "layer", {"type": "DB", "name": "Surface"})
    for site in layout.sites():
        dbdot = ET.SubElement(db_layer, "dbdot")
        ET.SubElement(dbdot, "layer_id").text = "2"
        ET.SubElement(
            dbdot,
            "latcoord",
            {"n": str(site.n), "m": str(site.m), "l": str(site.l)},
        )
        x_nm, y_nm = site.position_nm
        ET.SubElement(
            dbdot,
            "physloc",
            {"x": f"{x_nm * 10:.6f}", "y": f"{y_nm * 10:.6f}"},
        )
    if defects:
        defect_layer = ET.SubElement(
            design, "layer", {"type": "Defects", "name": "Defects"}
        )
        for defect in defects:
            element = ET.SubElement(defect_layer, "defect")
            ET.SubElement(element, "layer_id").text = "3"
            coords = ET.SubElement(element, "incl_coords")
            ET.SubElement(
                coords,
                "latcoord",
                {
                    "n": str(defect.site.n),
                    "m": str(defect.site.m),
                    "l": str(defect.site.l),
                },
            )
            ET.SubElement(element, "defect_type").text = defect.kind.value
            ET.SubElement(element, "charge").text = str(defect.charge)
    raw = ET.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="  ")


class TestSqdBytes:
    """The direct ``.sqd`` writer gives the DOM path's bytes."""

    def test_table1_rows(self):
        configuration = FlowConfiguration(database=NpnDatabase())
        for name in (
            "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
            "xor5_majority", "t", "t_5", "c17", "majority",
        ):
            result = design_sidb_circuit(
                benchmark_verilog(name), name, configuration
            )
            assert result.sqd == _dom_sqd(result.sidb_layout, name), name

    def test_defect_surface(self):
        defects = SurfaceDefects.sample(
            columns=120, rows=120, density_per_nm2=2e-3, seed=4
        )
        # Charged and structural defects, so -1, 0 and +1 charges.
        assert {d.charge for d in defects} == {-1, 0, 1}
        layout = SidbLayout([LatticeSite(n, n % 3, n % 2) for n in range(9)])
        text = write_sqd(layout, "defects", defects)
        assert text == _dom_sqd(layout, "defects", defects)

    def test_empty_layout_and_escaped_name(self):
        name = "a&b<\"c'>é"
        for layout in (SidbLayout(), SidbLayout([LatticeSite(2, 1, 1)])):
            assert write_sqd(layout, name) == _dom_sqd(layout, name)
        assert '<layer type="DB" name="Surface"/>' in write_sqd(SidbLayout())
        assert 'name="a&amp;b&lt;&quot;c\'&gt;é"' in write_sqd(
            SidbLayout(), name
        )
