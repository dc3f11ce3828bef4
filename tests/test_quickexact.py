"""Cross-validation of the pruned QuickExact engine against ExGS.

QuickExact must be *bit-exact*: identical ground energy and identical
degenerate-state sets on every layout both engines can solve, with and
without charged-defect external potentials -- plus the engine-selector
plumbing that makes it the default exact simulator.

The search itself (node, leaf and cut counts, ``valid_count`` and the
ordered ground states) is pinned on a fixed corpus by a golden file
(``tests/golden/quickexact_searches.json``); regenerate it only after an
intentional change to the search with::

    PYTHONPATH=src python tests/test_quickexact.py --regenerate
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect
from repro.gatelib.library import BestagonLibrary
from repro.sidb.bdl import scaling_layout
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import (
    ENGINES,
    _ground_state,
    check_operational,
)
from repro.sidb.quickexact import (
    MAX_QUICKEXACT_SITES,
    QuickExactStatistics,
    quickexact_ground_state,
)
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.sidb.stability import is_metastable
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)
#: Charged defects near the random layouts of ``random_layout``.
CHARGED_DEFECTS = (
    SidbDefect(LatticeSite(18, 4, 0), DefectType.DB),
    SidbDefect(LatticeSite(18, 20, 0), DefectType.ARSENIC),
)


def ground_set(result):
    return {tuple(int(x) for x in state) for state in result.ground_states}


def assert_bit_exact(layout, model=None, **kwargs):
    exgs = exhaustive_ground_state(layout, P32, model=model, **kwargs)
    quick = quickexact_ground_state(layout, P32, model=model, **kwargs)
    if np.isinf(exgs.ground_energy):
        assert np.isinf(quick.ground_energy)
    else:
        assert quick.ground_energy == exgs.ground_energy
    assert ground_set(quick) == ground_set(exgs)
    return exgs, quick


def random_layout(rng, num_sites):
    coords = set()
    while len(coords) < num_sites:
        coords.add((int(rng.integers(0, 16)), int(rng.integers(0, 30))))
    return SidbLayout(S(column, row) for column, row in coords)


def pattern_layouts(design):
    """(pattern, simulated layout) of every input pattern of a tile."""
    for pattern in range(1 << len(design.input_stimuli)):
        layout = SidbLayout(
            list(design.sites) + list(design.output_perturbers)
        )
        for bit, (far, close) in enumerate(design.input_stimuli):
            layout.extend(close if (pattern >> bit) & 1 else far)
        yield pattern, layout


class TestCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 24)),
            min_size=5,
            max_size=12,
            unique=True,
        ),
        st.booleans(),
    )
    def test_property_matches_exgs(self, pairs, require_stability):
        layout = SidbLayout(S(n, r) for n, r in pairs)
        assert_bit_exact(
            layout, require_configuration_stability=require_stability
        )

    @pytest.mark.parametrize("num_sites", [5, 8, 11, 14, 16, 18, 20])
    def test_randomized_sizes_5_to_20(self, num_sites):
        rng = np.random.default_rng(num_sites)
        layout = random_layout(rng, num_sites)
        assert_bit_exact(layout)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 24)),
            min_size=5,
            max_size=14,
            unique=True,
        ),
        st.integers(1, 16),
        st.booleans(),
        st.booleans(),
    )
    def test_property_leaf_bits(
        self, pairs, leaf_bits, require_stability, energy_pruning
    ):
        """Any leaf depth, including a single leaf at the root."""
        layout = SidbLayout(S(n, r) for n, r in pairs)
        exgs = exhaustive_ground_state(
            layout, P32, require_configuration_stability=require_stability
        )
        quick = quickexact_ground_state(
            layout,
            P32,
            require_configuration_stability=require_stability,
            leaf_bits=leaf_bits,
            energy_pruning=energy_pruning,
        )
        assert quick.ground_energy == exgs.ground_energy
        assert ground_set(quick) == ground_set(exgs)
        if not energy_pruning:
            assert quick.valid_count == exgs.valid_count

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 24)),
            min_size=5,
            max_size=14,
            unique=True,
        ),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(1, 4),
    )
    # Two single-electron states one zero-energy hop apart.
    @example([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)], False, False, True, 1)
    # A hop towards the defects that only their potential keeps uphill.
    @example([(0, 0), (0, 1), (0, 6), (1, 0), (9, 0)], True, True, True, 1)
    def test_property_witnesses_keep_every_stable_state(
        self, pairs, mirrored, with_defects, require_stability, leaf_bits
    ):
        """Without energy pruning the search counts what ExGS counts.

        The witnesses may cut only subtrees without a single stable
        configuration, so ``valid_count`` must equal the exhaustive
        count.  Mirror-symmetric layouts (``n -> -n``) have hops of
        exactly zero energy, which the hop witness's tolerance must
        keep; charged defects make the external potential differ from
        site to site; small ``leaf_bits`` give the witnesses a deep
        prefix to cut.  The ground energies may differ in the last ulp
        with defects (the two engines batch their energy sums
        differently), so the ground sets are compared instead.
        """
        if mirrored:
            pairs = pairs[:7] + [(-n, row) for n, row in pairs[:7] if n]
        layout = SidbLayout(S(n, r) for n, r in pairs)
        model = EnergyModel(
            layout, P32, defects=CHARGED_DEFECTS if with_defects else ()
        )
        exgs = exhaustive_ground_state(
            layout,
            P32,
            model=model,
            require_configuration_stability=require_stability,
        )
        quick = quickexact_ground_state(
            layout,
            P32,
            model=model,
            require_configuration_stability=require_stability,
            leaf_bits=leaf_bits,
            energy_pruning=False,
        )
        assert quick.valid_count == exgs.valid_count
        assert ground_set(quick) == ground_set(exgs)

    @pytest.mark.parametrize("num_sites", [6, 10, 14, 18])
    def test_with_charged_defects(self, num_sites):
        rng = np.random.default_rng(100 + num_sites)
        layout = random_layout(rng, num_sites)
        model = EnergyModel(layout, P32, defects=CHARGED_DEFECTS)
        assert model.external_potential is not None
        assert_bit_exact(layout, model=model)

    def test_valid_count_exact_without_energy_pruning(self):
        rng = np.random.default_rng(7)
        for num_sites in (6, 9, 12):
            layout = random_layout(rng, num_sites)
            for require in (True, False):
                exgs = exhaustive_ground_state(
                    layout, P32, require_configuration_stability=require
                )
                quick = quickexact_ground_state(
                    layout,
                    P32,
                    require_configuration_stability=require,
                    energy_pruning=False,
                )
                assert quick.valid_count == exgs.valid_count

    def test_ground_states_are_metastable(self):
        layout = scaling_layout(20)
        model = EnergyModel(layout, P32)
        result = quickexact_ground_state(layout, P32, model=model)
        assert result.ground_states
        for state in result.ground_states:
            assert is_metastable(model, state)


class TestGateLibrary:
    def test_bit_exact_on_all_small_library_layouts(self):
        """Every gate-library pattern layout <= 20 sites, both engines."""
        library = BestagonLibrary()
        checked = 0
        for name in library.names():
            for _, layout in pattern_layouts(library.design(name)):
                if len(layout) > 20:
                    continue
                assert_bit_exact(layout)
                checked += 1
        assert checked >= 20  # wires, inverters, pi/po tiles

    def test_at_or_below_simanneal_on_31_to_32_sites(self):
        """The xor, xnor, nand and ``double_wire`` patterns.

        QuickExact's ground states are metastable and never above the
        state SimAnneal finds at the Fig. 5 schedule, which misses the
        ground state on a few of these patterns.
        """
        library = BestagonLibrary()
        schedule = SimAnnealParameters(instances=12, sweeps=250, seed=1)
        checked = 0
        for name in library.names():
            for _, layout in pattern_layouts(library.design(name)):
                if not 31 <= len(layout) <= MAX_QUICKEXACT_SITES:
                    continue
                model = EnergyModel(layout, P32)
                exact = quickexact_ground_state(layout, P32, model=model)
                annealed = SimAnneal(layout, P32, schedule).run()
                assert exact.ground_energy <= annealed.ground_energy + 1e-9
                assert exact.ground_states
                for state in exact.ground_states:
                    assert is_metastable(model, state)
                checked += 1
        assert checked == 28


class TestScalingAndStatistics:
    def test_beyond_the_exhaustive_ceiling(self):
        """30 sites -- undoable for ExGS -- solves exactly and fast."""
        layout = scaling_layout(30)
        result = quickexact_ground_state(layout, P32)
        assert result.ground_states
        stats = result.stats
        assert isinstance(stats, QuickExactStatistics)
        assert stats.search_space == 1 << 30
        assert stats.configurations_enumerated < stats.search_space // 100

    def test_statistics_attribution(self):
        layout = scaling_layout(16)
        result = quickexact_ground_state(layout, P32)
        stats = result.stats
        assert stats.num_sites == 16
        assert stats.nodes_visited > 0
        assert stats.leaves_evaluated > 0
        assert 0.0 < stats.enumerated_fraction <= 1.0
        histogram = stats.cut_histogram()
        assert set(histogram) == {
            "witness_occupied",
            "witness_empty",
            "witness_hop",
            "energy_bound",
        }
        assert sum(histogram.values()) > 0

    def test_hop_witness_cuts_only_under_configuration_stability(self):
        design = BestagonLibrary().design("xor_SE")
        _, layout = next(pattern_layouts(design))
        stable = quickexact_ground_state(layout, P32).stats
        assert stable.cut_witness_hop > 0
        population_only = quickexact_ground_state(
            layout, P32, require_configuration_stability=False
        ).stats
        assert population_only.cut_witness_hop == 0

    def test_site_ceiling_enforced(self):
        layout = SidbLayout(
            S(column, row)
            for column in range(6)
            for row in range(6)
        )
        assert len(layout) > MAX_QUICKEXACT_SITES
        with pytest.raises(ValueError, match="exceed"):
            quickexact_ground_state(layout, P32)

    def test_empty_layout(self):
        result = quickexact_ground_state(SidbLayout(), P32)
        assert result.ground_energy == 0.0
        assert result.valid_count == 1

    def test_external_incumbent_does_not_cut_ground_state(self):
        layout = scaling_layout(14)
        exact = quickexact_ground_state(layout, P32)
        seeded = quickexact_ground_state(
            layout, P32, incumbent=exact.ground_energy
        )
        assert seeded.ground_energy == exact.ground_energy
        assert ground_set(seeded) == ground_set(exact)


class TestEngineSelection:
    def test_auto_uses_quickexact_up_to_32_sites(self):
        assert ENGINES == ("auto", "quickexact", "exhaustive", "simanneal")
        layout = scaling_layout(MAX_QUICKEXACT_SITES)
        result = _ground_state(layout, P32, "auto", None)
        assert isinstance(result.stats, QuickExactStatistics)
        # Two sites past the ceiling SimAnneal takes over (it reports
        # no search statistics and counts only the states it returns).
        larger = scaling_layout(MAX_QUICKEXACT_SITES + 2)
        annealed = _ground_state(larger, P32, "auto", None)
        assert annealed.stats is None
        assert annealed.valid_count == annealed.degeneracy

    def test_explicit_engine_values(self):
        layout = scaling_layout(12)
        quick = _ground_state(layout, P32, "quickexact", None)
        brute = _ground_state(layout, P32, "exhaustive", None)
        assert isinstance(quick.stats, QuickExactStatistics)
        assert brute.stats is None
        assert quick.ground_energy == brute.ground_energy
        for engine in ("exact", "bogus"):
            with pytest.raises(ValueError, match="unknown engine"):
                _ground_state(layout, P32, engine, None)

    def test_check_operational_exhaustive_matches_default(self):
        library = BestagonLibrary()
        kwargs = dict(
            gate=library.design("wire_NW_SE").under_test, parameters=P32
        )
        default = check_operational(**kwargs)
        reference = check_operational(**kwargs, engine="exhaustive")
        assert default.operational == reference.operational
        assert [
            (p.observed, p.correct, p.ground_energy) for p in default.patterns
        ] == [
            (p.observed, p.correct, p.ground_energy)
            for p in reference.patterns
        ]
        with pytest.raises(ValueError, match="unknown engine"):
            check_operational(**kwargs, engine="exact")


# --- pinned searches ---------------------------------------------------------
GOLDEN_SEARCHES = Path(__file__).parent / "golden" / "quickexact_searches.json"


def _search(instance, layout, **kwargs) -> dict:
    """Everything one search counted and returned (not its incumbent)."""
    result = quickexact_ground_state(layout, P32, **kwargs)
    stats = result.stats
    return {
        "instance": instance,
        "sites": len(layout),
        "nodes_visited": stats.nodes_visited,
        "leaves_evaluated": stats.leaves_evaluated,
        "configurations_enumerated": stats.configurations_enumerated,
        **{f"cut_{name}": count for name, count in stats.cut_histogram().items()},
        "valid_count": result.valid_count,
        "ground_energy": float(result.ground_energy).hex(),
        "ground_states": [
            "".join(str(int(x)) for x in state)
            for state in result.ground_states
        ],
    }


def quickexact_searches() -> list[dict]:
    """The corpus: tile patterns, BDL wires, defects, non-default options.

    Every Bestagon pattern layout of at most 23 sites plus all patterns
    of ``and_SE`` (29 sites) and ``cross`` (28), at the Fig. 5
    parameters (``P32``); two BDL wires; two random layouts next to
    charged defects; one search each without configuration stability,
    without energy pruning and at leaf depths 1, 4 and 16.
    """
    library = BestagonLibrary()
    tiles = {
        f"{name}/p{pattern}": layout
        for name in library.names()
        for pattern, layout in pattern_layouts(library.design(name))
    }
    records = [
        _search(instance, layout)
        for instance, layout in tiles.items()
        if len(layout) <= 23
        or instance.split("/")[0] in ("and_SE", "cross")
    ]
    for num_sites in (24, 28):
        records.append(
            _search(f"wire/{num_sites}", scaling_layout(num_sites))
        )
    for num_sites in (14, 18):
        layout = random_layout(np.random.default_rng(100 + num_sites), num_sites)
        model = EnergyModel(layout, P32, defects=CHARGED_DEFECTS)
        records.append(_search(f"defects/{num_sites}", layout, model=model))
    records += [
        _search(
            "cross/p0/no_configuration_stability",
            tiles["cross/p0"],
            require_configuration_stability=False,
        ),
        _search(
            "and_SE/p0/no_energy_pruning",
            tiles["and_SE/p0"],
            energy_pruning=False,
        ),
        _search("fanout_NE/p1/leaf_bits1", tiles["fanout_NE/p1"], leaf_bits=1),
        _search("wire/24/leaf_bits4", scaling_layout(24), leaf_bits=4),
        _search("wire/18/leaf_bits16", scaling_layout(18), leaf_bits=16),
    ]
    return records


class TestSearchGolden:
    """The pruned search is pinned, not just its ground states.

    A faster kernel must visit, cut and enumerate exactly as before and
    return the same ground states in the same order; any drift shows up
    here as a changed count or state list.
    """

    def test_matches_golden(self):
        expected = json.loads(GOLDEN_SEARCHES.read_text())
        actual = quickexact_searches()
        assert [r["instance"] for r in actual] == [
            r["instance"] for r in expected
        ]
        for got, want in zip(actual, expected):
            assert got == want, f"{got['instance']}: the search changed"


def _regenerate() -> None:
    GOLDEN_SEARCHES.parent.mkdir(exist_ok=True)
    GOLDEN_SEARCHES.write_text(
        json.dumps(quickexact_searches(), indent=1) + "\n"
    )
    print(f"regenerated {GOLDEN_SEARCHES}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
