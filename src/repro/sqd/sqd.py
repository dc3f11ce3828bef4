"""SiQAD ``.sqd`` design-file writer and reader.

The paper's flow ends by "generat[ing] a design file from the SiDB layout
for physical simulation and/or fabrication" (step 8); SiQAD's XML format
is the interchange format of the SiDB community.  We emit the ``DB``
layer with both lattice coordinates (``latcoord n m l``) and physical
locations in angstroms (``physloc``), which SiQAD and fiction can read.

Surface defects ride along in a dedicated ``Defects`` layer (one
``<defect>`` per record with its lattice coordinate, type and charge),
mirroring how SiQAD annotates fabrication imperfections; pristine
layouts serialize byte-identically to the defect-free writer.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.dom import minidom

from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect, SurfaceDefects
from repro.sidb.charge import SidbLayout

_PROGRAM_NAME = "repro-bestagon"
_PROGRAM_VERSION = "1.0.0"

#: Version of the ``.sqd`` serialization itself.  Part of the design-
#: service cache digest: bump it whenever :func:`write_sqd` changes its
#: output bytes, so cached artifacts are re-generated rather than served
#: with a stale layout encoding.
SQD_WRITER_VERSION = _PROGRAM_VERSION


def write_sqd(
    layout: SidbLayout,
    design_name: str = "layout",
    defects: SurfaceDefects | None = None,
) -> str:
    """Serialize an SiDB layout as a SiQAD .sqd XML document."""
    root = ET.Element("siqad")
    program = ET.SubElement(root, "program")
    ET.SubElement(program, "file_purpose").text = "save"
    ET.SubElement(program, "name").text = _PROGRAM_NAME
    ET.SubElement(program, "version").text = _PROGRAM_VERSION

    gui = ET.SubElement(root, "gui")
    ET.SubElement(gui, "zoom").text = "1"

    design = ET.SubElement(root, "design", {"name": design_name})
    ET.SubElement(
        design,
        "layer_prop",
        {"name": "Lattice", "type": "Lattice", "role": "Design"},
    )
    db_layer = ET.SubElement(
        design, "layer", {"type": "DB", "name": "Surface"}
    )
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


def read_sqd(text: str) -> SidbLayout:
    """Parse a SiQAD .sqd XML document into an SiDB layout."""
    root = ET.fromstring(text)
    layout = SidbLayout()
    for dbdot in root.iter("dbdot"):
        latcoord = dbdot.find("latcoord")
        if latcoord is None:
            raise ValueError("dbdot without latcoord")
        site = LatticeSite(
            int(latcoord.get("n", "0")),
            int(latcoord.get("m", "0")),
            int(latcoord.get("l", "0")),
        )
        layout.add(site)
    return layout


def read_sqd_defects(text: str) -> SurfaceDefects:
    """Parse the ``Defects`` layer of a SiQAD .sqd XML document."""
    root = ET.fromstring(text)
    defects = SurfaceDefects()
    for element in root.iter("defect"):
        latcoord = element.find("incl_coords/latcoord")
        if latcoord is None:
            raise ValueError("defect without incl_coords/latcoord")
        site = LatticeSite(
            int(latcoord.get("n", "0")),
            int(latcoord.get("m", "0")),
            int(latcoord.get("l", "0")),
        )
        kind_text = element.findtext("defect_type", DefectType.DB.value)
        charge_text = element.findtext("charge")
        defects.add(
            SidbDefect(
                site,
                DefectType(kind_text),
                charge=None if charge_text is None else int(charge_text),
            )
        )
    return defects
