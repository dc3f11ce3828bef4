"""Defect-aware operational re-validation of placed gate tiles.

Blacklisting keeps charged defects out of every tile's >= 10 nm
exclusion zone, but a charge sitting *just outside* that zone still
perturbs the electrostatics of the tile under it.  This module
re-validates each placed tile of a gate-level layout against the
defects under (and around) its hexagon: the tile's dot-accurate design
is translated to its lattice position and the nearby fixed charges are
folded into the ground-state simulation of every input pattern
(:func:`repro.sidb.operational.check_operational` with ``defects``).

At zero defects every tile is trivially operational and no simulation
runs, so the pristine flow is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.coords.hexagonal import HexCoord
from repro.defects.exclusion import defects_near_tile
from repro.defects.model import SidbDefect, SurfaceDefects
from repro.gatelib.library import BestagonLibrary
from repro.gatelib.tile import TileGeometry
from repro.layout.gate_layout import GateLevelLayout
from repro.sidb.operational import check_operational
from repro.tech.constants import DEFECT_INFLUENCE_RADIUS_NM
from repro.tech.parameters import SiDBSimulationParameters


@dataclass
class TileDefectCheck:
    """Re-validation outcome of one placed tile.

    ``operational`` means *no defect-caused regression*: every input
    pattern that simulates correctly on the pristine surface still does
    with the defects present.  Judging against the pristine baseline --
    rather than absolute correctness -- isolates the defect's impact
    from any pre-existing imperfection of the tile design itself.
    """

    coord: HexCoord
    design_name: str
    nearby_defects: int
    operational: bool
    #: Patterns that simulated correctly / total (0/0 when skipped).
    patterns_correct: int = 0
    patterns_total: int = 0
    #: Patterns correct on the pristine surface (the comparison basis).
    patterns_pristine: int = 0

    @property
    def skipped(self) -> bool:
        """True when no defect was near and no simulation ran."""
        return self.nearby_defects == 0

    def to_dict(self) -> dict:
        """JSON-ready record; inverse of :meth:`from_dict`."""
        return {
            "coord": [self.coord.x, self.coord.y],
            "design_name": self.design_name,
            "nearby_defects": self.nearby_defects,
            "operational": self.operational,
            "patterns_correct": self.patterns_correct,
            "patterns_total": self.patterns_total,
            "patterns_pristine": self.patterns_pristine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TileDefectCheck":
        x, y = data["coord"]
        return cls(
            coord=HexCoord(int(x), int(y)),
            design_name=str(data["design_name"]),
            nearby_defects=int(data["nearby_defects"]),
            operational=bool(data["operational"]),
            patterns_correct=int(data.get("patterns_correct", 0)),
            patterns_total=int(data.get("patterns_total", 0)),
            patterns_pristine=int(data.get("patterns_pristine", 0)),
        )


@dataclass
class DefectAwareReport:
    """Aggregated defect re-validation of a whole layout."""

    operational: bool
    tiles: list[TileDefectCheck] = field(default_factory=list)
    defects_total: int = 0
    influence_radius_nm: float = DEFECT_INFLUENCE_RADIUS_NM

    @property
    def tiles_checked(self) -> int:
        """Tiles that actually ran a defect-aware simulation."""
        return sum(1 for tile in self.tiles if not tile.skipped)

    @property
    def failing_tiles(self) -> list[TileDefectCheck]:
        return [tile for tile in self.tiles if not tile.operational]

    def summary(self) -> str:
        if not self.defects_total:
            return "no surface defects"
        verdict = "operational" if self.operational else "NOT operational"
        return (
            f"{self.defects_total} surface defects, "
            f"{self.tiles_checked}/{len(self.tiles)} tiles re-simulated, "
            f"{verdict}"
        )

    def to_dict(self) -> dict:
        """JSON-ready record; inverse of :meth:`from_dict`.

        This is the ``defects.json`` artifact the design service
        persists alongside a cached layout.
        """
        return {
            "operational": self.operational,
            "defects_total": self.defects_total,
            "influence_radius_nm": self.influence_radius_nm,
            "tiles": [tile.to_dict() for tile in self.tiles],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DefectAwareReport":
        return cls(
            operational=bool(data["operational"]),
            tiles=[
                TileDefectCheck.from_dict(tile)
                for tile in data.get("tiles", [])
            ],
            defects_total=int(data.get("defects_total", 0)),
            influence_radius_nm=float(
                data.get("influence_radius_nm", DEFECT_INFLUENCE_RADIUS_NM)
            ),
        )


def structural_defect_sites(
    defects: SurfaceDefects | list[SidbDefect],
) -> set:
    """Lattice sites destroyed by structural defects."""
    return {d.site for d in defects if d.is_structural}


def recheck_layout_against_defects(
    layout: GateLevelLayout,
    defects: SurfaceDefects,
    library: BestagonLibrary | None = None,
    influence_radius_nm: float = DEFECT_INFLUENCE_RADIUS_NM,
    workers: int = 1,
) -> DefectAwareReport:
    """Re-validate every placed tile against the defects under it.

    For each occupied tile, charged defects within
    ``influence_radius_nm`` of the tile footprint become fixed point
    charges in the tile's operational check.  A defect that sits on
    the tile fails it outright: a structural one on a dot of the
    design (the dot cannot be fabricated), a charged one on any site
    the check simulates, stimuli and output perturbers included.
    Tiles with no nearby defect are reported as skipped -- their
    pristine validation stands.

    A tile fails only on a *regression*: an input pattern correct on
    the pristine surface that the defects flip.  The pristine baseline
    is ``library.validate`` of the untranslated design, memoised per
    library: tile origins are whole dimer rows apart, so translation
    leaves the electrostatics invariant.
    """
    library = library or BestagonLibrary()
    geometry = TileGeometry()
    parameters = SiDBSimulationParameters.bestagon()
    blocked_sites = structural_defect_sites(defects)
    report = DefectAwareReport(
        operational=True,
        defects_total=len(defects),
        influence_radius_nm=influence_radius_nm,
    )
    occupied = list(layout.occupied())
    for tile_index, (coord, content) in enumerate(occupied):
        obs.progress(
            "defects.tiles", tile_index + 1, len(occupied), tile=str(coord)
        )
        design = library.design_for(content)
        nearby = defects_near_tile(
            coord, defects, influence_radius_nm, geometry
        )
        gate = design.under_test.translated(*geometry.origin_of(coord))
        # The body starts with the design's own dots; its output
        # perturbers and the input stimuli are simulated, not built.
        fabricated = set(gate.body[: design.num_sidbs])
        simulated = set(gate.body).union(
            *(far + close for far, close in gate.input_stimuli)
        )
        # A fixed charge on a simulated site leaves no site to host
        # that dot's electron.
        clobbered = (blocked_sites & fabricated) | (
            {d.site for d in nearby} & simulated
        )
        nearby = [d for d in nearby if d.site not in clobbered]
        check = TileDefectCheck(
            coord=coord,
            design_name=design.name,
            nearby_defects=len(nearby) + len(clobbered),
            operational=True,
        )
        if clobbered:
            check.operational = False
        elif nearby:
            tile_report = check_operational(
                gate, parameters, workers=workers, defects=nearby
            )
            baseline = library.validate(design.name, parameters)
            check.operational = not any(
                base.correct and not with_defects.correct
                for base, with_defects in zip(
                    baseline.patterns, tile_report.patterns
                )
            )
            check.patterns_total = len(tile_report.patterns)
            check.patterns_correct = sum(
                1 for pattern in tile_report.patterns if pattern.correct
            )
            check.patterns_pristine = sum(
                1 for pattern in baseline.patterns if pattern.correct
            )
        obs.add("defects.checked", check.nearby_defects)
        if not check.skipped:
            obs.add("defects.tiles_rechecked")
        report.tiles.append(check)
        report.operational = report.operational and check.operational
    return report
