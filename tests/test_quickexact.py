"""Cross-validation of the pruned QuickExact engine against ExGS.

QuickExact must be *bit-exact*: identical ground energy and identical
degenerate-state sets on every layout both engines can solve, with and
without charged-defect external potentials -- plus the engine-selector
plumbing that makes it the default exact simulator.

The search itself (node, leaf and cut counts, ``valid_count`` and the
ordered ground states) is pinned on a fixed corpus by a golden file
(``tests/golden/quickexact_searches.json``), and so is the same corpus
searched with the hop witness over all pairs and 10-site leaves
(``tests/golden/quickexact_searches_all_pairs.json``); regenerate both
only after an intentional change to the search with::

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
from repro.sidb import operational, quickexact
from repro.sidb.bdl import scaling_layout
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import (
    GROUND_STATE_MEMO,
    SPENT_SEARCHES,
    EnergyModel,
    clear_geometry_cache,
)
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import (
    ENGINES,
    _ground_state,
    check_operational,
)
from repro.sidb.quickexact import (
    BudgetExhausted,
    QuickExactStatistics,
    quickexact_ground_state,
)
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.sidb.stability import metastable
from repro.tech.parameters import SiDBSimulationParameters

S = LatticeSite.from_row
P32 = SiDBSimulationParameters(mu_minus=-0.32)
#: Charged defects near the random layouts of ``random_layout``.
CHARGED_DEFECTS = (
    SidbDefect(LatticeSite(18, 4, 0), DefectType.DB),
    SidbDefect(LatticeSite(18, 20, 0), DefectType.ARSENIC),
)
#: A mirror-symmetric 18-site layout whose two degenerate ground states
#: lie in different 2^16-configuration ExGS chunks and score one ulp
#: apart: ExGS must report the lower energy, not the first it meets.
_HALF = [(1, 3), (1, 9), (1, 13), (2, 5), (2, 13), (2, 27), (3, 20), (5, 27),
         (8, 25)]
MIRRORED_18 = _HALF + [(-n, row) for n, row in _HALF]


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


def random_layout(rng, num_sites, columns=16, rows=30):
    coords = set()
    while len(coords) < num_sites:
        coords.add(
            (int(rng.integers(0, columns)), int(rng.integers(0, rows)))
        )
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
    @example(MIRRORED_18, True)
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
    )
    def test_property_leaf_bits(self, pairs, leaf_bits, require_stability):
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
        )
        assert quick.ground_energy == exgs.ground_energy
        assert ground_set(quick) == ground_set(exgs)
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
    # A defect term that once summed to different bits in the two
    # engines' batches.
    @example(
        [(0, 0), (0, 1), (0, 2), (3, 17), (10, 12), (1, 0), (2, 9)],
        True, True, False, 1,
    )
    def test_property_witnesses_keep_every_stable_state(
        self, pairs, mirrored, with_defects, require_stability, leaf_bits
    ):
        """The search counts what ExGS counts.

        The witnesses may cut only subtrees without a single stable
        configuration, so ``valid_count`` must equal the exhaustive
        count.  Mirror-symmetric layouts (``n -> -n``) have hops of
        exactly zero energy, which the hop witness's tolerance must
        keep; charged defects make the external potential differ from
        site to site; small ``leaf_bits`` give the witnesses a deep
        prefix to cut.
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
        )
        assert quick.valid_count == exgs.valid_count
        assert quick.ground_energy == exgs.ground_energy
        assert ground_set(quick) == ground_set(exgs)

    def test_defect_energy_independent_of_batch_size(self):
        """A configuration scores the same bits alone and in a batch.

        QuickExact and ExGS score the same ground state in batches of
        different sizes, so their energies agree only if no row's bits
        depend on the rows beside it.
        """
        pairs = [(0, 0), (0, 1), (0, 2), (3, 17), (10, 12), (1, 0), (2, 9)]
        pairs += [(-n, row) for n, row in pairs if n]
        layout = SidbLayout(S(n, r) for n, r in pairs)
        model = EnergyModel(layout, P32, defects=CHARGED_DEFECTS)
        ground = exhaustive_ground_state(layout, P32, model=model)
        rng = np.random.default_rng(5)
        batch = rng.integers(-1, 1, size=(64, len(layout))).astype(float)
        batch[3] = ground.ground_states[0]
        energies = model.batched_energies(batch)
        for size in (1, 2, 5, 17):
            for start in range(0, len(batch) - size + 1, size):
                assert np.array_equal(
                    model.batched_energies(batch[start:start + size]),
                    energies[start:start + size],
                )
        assert energies[3] == ground.ground_energy

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
                    layout, P32, require_configuration_stability=require
                )
                assert quick.valid_count == exgs.valid_count

    def test_ground_states_are_metastable(self):
        layout = scaling_layout(20)
        model = EnergyModel(layout, P32)
        result = quickexact_ground_state(layout, P32, model=model)
        assert result.ground_states
        assert metastable(model, np.array(result.ground_states)).all()


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

    def test_at_or_below_simanneal_above_30_sites(self):
        """The xor, xnor, nand, ``double_wire`` and ``half_adder`` patterns.

        QuickExact's ground states are metastable and never above the
        state SimAnneal finds at the Fig. 5 schedule, which misses the
        ground state on a few of these patterns.
        """
        library = BestagonLibrary()
        schedule = SimAnnealParameters(instances=12, sweeps=250, seed=1)
        checked = 0
        for name in library.names():
            for _, layout in pattern_layouts(library.design(name)):
                if len(layout) <= 30:
                    continue
                model = EnergyModel(layout, P32)
                exact = quickexact_ground_state(layout, P32, model=model)
                annealed = SimAnneal(layout, P32, schedule).run()
                assert exact.ground_energy <= annealed.ground_energy + 1e-9
                assert exact.ground_states
                assert metastable(model, np.array(exact.ground_states)).all()
                checked += 1
        assert checked == 32


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

    def test_node_budget_enforced(self):
        """A search finishes exactly when its whole tree fits the budget."""
        layout = scaling_layout(24)
        full = quickexact_ground_state(layout, P32)
        nodes = full.stats.nodes_visited
        within = quickexact_ground_state(layout, P32, node_budget=nodes)
        assert within.stats == full.stats
        assert ground_set(within) == ground_set(full)
        with pytest.raises(BudgetExhausted, match="budget") as spent:
            quickexact_ground_state(layout, P32, node_budget=nodes - 1)
        assert 0 < spent.value.stats.nodes_visited <= nodes - 1

    def test_small_systems_use_10_site_leaves(self):
        """Up to ``SMALL_SYSTEM_SITES`` sites a leaf holds 10 sites (a
        10-site system is one leaf), above it 6; ``leaf_bits`` overrides."""
        assert quickexact.SMALL_SYSTEM_SITES == 15
        assert quickexact.SMALL_SYSTEM_LEAF_BITS == 10
        assert quickexact.DEFAULT_LEAF_BITS == 6
        rng = np.random.default_rng(3)
        small = random_layout(rng, 10)
        stats = quickexact_ground_state(small, P32).stats
        assert (stats.nodes_visited, stats.leaves_evaluated) == (0, 1)
        assert stats.configurations_enumerated == 1 << 10
        for num_sites, leaf_bits in ((15, 10), (16, 6)):
            larger = quickexact_ground_state(
                random_layout(rng, num_sites), P32
            ).stats
            assert larger.nodes_visited > 0
            assert larger.configurations_enumerated == (
                larger.leaves_evaluated << leaf_bits
            )
        explicit = quickexact_ground_state(small, P32, leaf_bits=4).stats
        assert explicit.nodes_visited > 0
        assert explicit.configurations_enumerated == (
            explicit.leaves_evaluated << 4
        )

    def test_budget_table_systems_finish_exactly(self):
        """The systems the node budget was chosen on all fit it.

        ``half_adder``'s patterns, random layouts of 40, 44 and 48 sites
        on a 40-column, 46-row canvas (seeds 0-2) and BDL wires of 64
        and 96 sites, at the Bestagon parameters.
        """
        parameters = SiDBSimulationParameters.bestagon()
        gate = BestagonLibrary().design("half_adder").under_test
        systems = [gate.layout(pattern) for pattern in range(4)]
        systems += [
            random_layout(np.random.default_rng(seed), num_sites, 40, 46)
            for num_sites in (40, 44, 48)
            for seed in range(3)
        ]
        systems += [scaling_layout(64), scaling_layout(96)]
        # The budget is 2^19 because the largest, 48 random sites at
        # seed 0, outgrew 2^18 nodes when the hop witness went to the
        # pair list.  A system that does not fit raises BudgetExhausted.
        for layout in systems:
            quickexact_ground_state(
                layout,
                parameters,
                node_budget=operational.QUICKEXACT_NODE_BUDGET,
            )

    def test_frontier_cap_keeps_the_search(self, monkeypatch):
        """Frontiers finished two rows at a time give the same search."""
        library = BestagonLibrary()
        layouts = {
            name: dict(pattern_layouts(library.design(name)))[1]
            for name in ("and_SE", "fanout_NE", "half_adder")
        }
        layouts["wire/28"] = scaling_layout(28)
        whole = {
            name: _search(name, layout) for name, layout in layouts.items()
        }
        monkeypatch.setattr(quickexact, "FRONTIER_CAP", 2)
        for name, layout in layouts.items():
            assert _search(name, layout) == whole[name], name

    def test_empty_layout(self):
        result = quickexact_ground_state(SidbLayout(), P32)
        assert result.ground_energy == 0.0
        assert result.valid_count == 1


class TestEngineSelection:
    def test_auto_uses_quickexact_at_any_size(self):
        assert ENGINES == ("auto", "quickexact", "exhaustive", "simanneal")
        for num_sites in (12, 34, 64):
            engine, result = _ground_state(
                scaling_layout(num_sites), P32, "auto", None
            )
            assert engine == "quickexact"
            assert isinstance(result.stats, QuickExactStatistics)

    def test_auto_anneals_when_the_budget_is_spent(self, monkeypatch):
        """SimAnneal decides, the verdict is not exact, only the spend is
        memoised: a larger budget searches again."""
        gate = BestagonLibrary().design("inv_NW_SW").under_test
        monkeypatch.setattr(operational, "QUICKEXACT_NODE_BUDGET", 1)
        clear_geometry_cache()
        report = check_operational(gate, P32)
        assert [(p.engine, p.exact) for p in report.patterns] == [
            ("simanneal", False),
            ("simanneal", False),
        ]
        assert (len(GROUND_STATE_MEMO), len(SPENT_SEARCHES)) == (0, 2)
        with pytest.raises(BudgetExhausted, match="budget of 1 nodes"):
            check_operational(gate, P32, engine="quickexact")
        assert (len(GROUND_STATE_MEMO), len(SPENT_SEARCHES)) == (0, 2)
        monkeypatch.undo()
        exact = check_operational(gate, P32)
        assert [(p.engine, p.exact) for p in exact.patterns] == [
            ("quickexact", True),
            ("quickexact", True),
        ]
        assert (len(GROUND_STATE_MEMO), len(SPENT_SEARCHES)) == (2, 2)
        clear_geometry_cache()
        assert len(SPENT_SEARCHES) == 0

    def test_spent_search_runs_once_per_class(self, monkeypatch):
        """A mirrored tile repeats the spent classes and anneals at once.

        The verdicts are SimAnneal's on the layouts as given, the same
        as with the memo cleared.
        """
        library = BestagonLibrary()
        tile, mirrored = (
            library.design(name).under_test
            for name in ("inv_NW_SW", "inv_NE_SE")
        )
        searched = []

        def counting(layout, *args, **kwargs):
            searched.append(len(layout))
            return quickexact_ground_state(layout, *args, **kwargs)

        monkeypatch.setattr(operational, "QUICKEXACT_NODE_BUDGET", 1)
        monkeypatch.setattr(operational, "quickexact_ground_state", counting)
        clear_geometry_cache()
        check_operational(tile, P32)
        memoised = check_operational(mirrored, P32)
        assert len(searched) == 2
        clear_geometry_cache()
        assert check_operational(mirrored, P32) == memoised
        assert len(searched) == 4

    def test_explicit_engine_values(self):
        layout = scaling_layout(12)
        _, quick = _ground_state(layout, P32, "quickexact", None)
        _, brute = _ground_state(layout, P32, "exhaustive", None)
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


class TestHopWitness:
    """The pair list and its bound table against the all-pairs witness."""

    @staticmethod
    def layouts():
        """Tile patterns, BDL wires and random layouts next to defects."""
        library = BestagonLibrary()
        for name in library.names():
            for pattern, layout in pattern_layouts(library.design(name)):
                yield f"{name}/p{pattern}", EnergyModel(layout, P32)
        for num_sites in (24, 64):
            yield f"wire/{num_sites}", EnergyModel(
                scaling_layout(num_sites), P32
            )
        for num_sites in (14, 18):
            layout = random_layout(
                np.random.default_rng(100 + num_sites), num_sites
            )
            yield f"defects/{num_sites}", EnergyModel(
                layout, P32, defects=CHARGED_DEFECTS
            )

    @staticmethod
    def search(model):
        """The tables of a search over every depth but the last site."""
        return quickexact._QuickExactSearch(
            model=model,
            order=quickexact._site_order(model.layout),
            require_configuration_stability=True,
            leaf_bits=1,
            node_budget=None,
            stats=QuickExactStatistics(),
        )

    def test_pair_table_equals_the_cube_formula(self):
        """Every entry, bit for bit, as the all-pairs witness tabulated it.

        That witness built ``suffix_gains[i, j, d] = sum_{k >= d} max(0,
        V_jk - V_ik)`` as one n x n x n cube per search and tested
        ``suffix_gains[:d, :d, d] - V[:d, :d]`` at depth d.
        """
        checked = 0
        for instance, model in self.layouts():
            search = self.search(model)
            matrix = search.matrix
            gains = np.maximum(0.0, matrix[None, :, :] - matrix[:, None, :])
            suffix_gains = np.cumsum(gains[:, :, ::-1], axis=2)[:, :, ::-1]
            sources, targets = search.hop_sources, search.hop_targets
            expected = np.stack([
                (suffix_gains[:, :, d] - matrix)[sources, targets]
                for d in range(search.leaf_depth + 1)
            ])
            assert search.hop_bounds.shape == expected.shape, instance
            assert search.hop_bounds.tobytes() == expected.tobytes(), instance
            checked += 1
        assert checked == 88 + 4

    def test_pairs_are_the_strongest_earlier_partners(self):
        for instance, model in self.layouts():
            search = self.search(model)
            matrix = search.matrix
            sources, targets = search.hop_sources, search.hop_targets
            later = np.maximum(sources, targets)
            assert (np.diff(later) >= 0).all(), instance
            assert list(search.hop_prefix) == [
                int((later < d).sum()) for d in range(search.leaf_depth + 1)
            ], instance
            assert set(zip(sources, targets)) == set(zip(targets, sources))
            for b in range(1, search.leaf_depth):
                partners = sorted(sources[(targets == b) & (sources < b)])
                strongest = np.argsort(-matrix[b, :b], kind="stable")
                assert partners == sorted(
                    strongest[: quickexact.HOP_PARTNERS]
                ), instance

    def test_all_pairs_reproduce_the_reference_searches(self):
        """With every pair listed and 10-site leaves, the search is the
        all-pairs witness's, record for record."""
        expected = json.loads(ALL_PAIRS_SEARCHES.read_text())
        assert all_pairs_searches() == expected

    def test_pair_list_keeps_every_result(self):
        """Only the search counts differ from the all-pairs reference."""
        default = json.loads(GOLDEN_SEARCHES.read_text())
        reference = json.loads(ALL_PAIRS_SEARCHES.read_text())
        results = ("instance", "valid_count", "ground_energy", "ground_states")
        assert [{key: r[key] for key in results} for r in default] == [
            {key: r[key] for key in results} for r in reference
        ]


# --- pinned searches ---------------------------------------------------------
GOLDEN_SEARCHES = Path(__file__).parent / "golden" / "quickexact_searches.json"
ALL_PAIRS_SEARCHES = GOLDEN_SEARCHES.with_name(
    "quickexact_searches_all_pairs.json"
)


def _search(instance, layout, **kwargs) -> dict:
    """Everything one search counted and returned."""
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
    of ``and_SE`` (29 sites), ``cross`` (28) and ``half_adder`` (52), at
    the Fig. 5 parameters (``P32``); two BDL wires; two random layouts
    next to charged defects; one search without configuration stability
    and one each at leaf depths 1, 4 and 16.
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
        or instance.split("/")[0] in ("and_SE", "cross", "half_adder")
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
        _search("fanout_NE/p1/leaf_bits1", tiles["fanout_NE/p1"], leaf_bits=1),
        _search("wire/24/leaf_bits4", scaling_layout(24), leaf_bits=4),
        _search("wire/18/leaf_bits16", scaling_layout(18), leaf_bits=16),
    ]
    return records


def all_pairs_searches() -> list[dict]:
    """The corpus searched with every pair in the hop witness.

    Each site's partners are all the sites visited before it, and a
    system of more than 10 sites is enumerated in 10-site leaves.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quickexact, "HOP_PARTNERS", 1 << 16)
        patch.setattr(quickexact, "DEFAULT_LEAF_BITS", 10)
        return quickexact_searches()


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
    for path, records in (
        (GOLDEN_SEARCHES, quickexact_searches()),
        (ALL_PAIRS_SEARCHES, all_pairs_searches()),
    ):
        path.write_text(json.dumps(records, indent=1) + "\n")
        print(f"regenerated {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
