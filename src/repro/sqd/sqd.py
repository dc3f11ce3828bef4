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


def _escape(text: str) -> str:
    """Escape ``& < " >`` as minidom's writer does (an apostrophe stays)."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace(">", "&gt;")
    )


def _element(indent: str, open_tag: str, children: list[str]) -> list[str]:
    """An element's lines: self-closing when it has no child."""
    if not children:
        return [f"{indent}<{open_tag}/>"]
    name = open_tag.split(" ", 1)[0]
    return [f"{indent}<{open_tag}>", *children, f"{indent}</{name}>"]


def write_sqd(
    layout: SidbLayout,
    design_name: str = "layout",
    defects: SurfaceDefects | None = None,
) -> str:
    """Serialize an SiDB layout as a SiQAD .sqd XML document.

    The text is written directly, laid out as minidom's
    ``toprettyxml(indent="  ")`` lays out the document: one element per
    line, two spaces per level, text-only elements on one line, empty
    ones self-closing.
    """
    dots: list[str] = []
    for site in layout.sites():
        x_nm, y_nm = site.position_nm
        dots += (
            "      <dbdot>",
            "        <layer_id>2</layer_id>",
            f'        <latcoord n="{site.n}" m="{site.m}" l="{site.l}"/>',
            f'        <physloc x="{x_nm * 10:.6f}" y="{y_nm * 10:.6f}"/>',
            "      </dbdot>",
        )
    lines = [
        '<?xml version="1.0" ?>',
        "<siqad>",
        "  <program>",
        "    <file_purpose>save</file_purpose>",
        f"    <name>{_PROGRAM_NAME}</name>",
        f"    <version>{_PROGRAM_VERSION}</version>",
        "  </program>",
        "  <gui>",
        "    <zoom>1</zoom>",
        "  </gui>",
        f'  <design name="{_escape(design_name)}">',
        '    <layer_prop name="Lattice" type="Lattice" role="Design"/>',
        *_element("    ", 'layer type="DB" name="Surface"', dots),
    ]
    if defects:
        records: list[str] = []
        for defect in defects:
            site = defect.site
            records += (
                "      <defect>",
                "        <layer_id>3</layer_id>",
                "        <incl_coords>",
                f'          <latcoord n="{site.n}" m="{site.m}" l="{site.l}"/>',
                "        </incl_coords>",
                f"        <defect_type>{_escape(defect.kind.value)}"
                "</defect_type>",
                f"        <charge>{_escape(str(defect.charge))}</charge>",
                "      </defect>",
            )
        lines += _element("    ", 'layer type="Defects" name="Defects"', records)
    lines += ("  </design>", "</siqad>", "")
    return "\n".join(lines)


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
