"""Exact ground states solved once per lattice isometry class.

``repro.sidb.operational`` solves every exact system on its canonical
form (:func:`repro.coords.lattice.canonical_form`) and memoises the
result.  These tests check that a moved system still gets the ExGS
ground states of its own layout, that only true isometries share an
entry, and that the memo never changes a verdict.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import repro.sidb.operational as operational
from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect
from repro.gatelib.library import BestagonLibrary
from repro.sidb.bdl import read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import (
    GROUND_STATE_MEMO,
    EnergyModel,
    clear_geometry_cache,
)
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.operational import (
    GateUnderTest,
    check_operational,
    simulate_pattern,
)
from repro.sidb.quickexact import quickexact_ground_state
from repro.tech.parameters import SiDBSimulationParameters

PARAMETERS = SiDBSimulationParameters.bestagon()


def _or_se() -> GateUnderTest:
    return BestagonLibrary().design("or_SE").under_test


def _memo_counts() -> tuple[int, int]:
    return GROUND_STATE_MEMO.hits, GROUND_STATE_MEMO.misses


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 23)),
        min_size=1,
        max_size=14,
        unique=True,
    ),
    defect=st.none()
    | st.tuples(
        st.integers(-4, 15),
        st.integers(-4, 27),
        st.sampled_from([DefectType.DB, DefectType.ARSENIC]),
    ),
    dn=st.integers(-40, 40),
    dm=st.integers(-20, 20),
    mirror=st.booleans(),
)
def test_moved_system_gets_the_exgs_ground_states(cells, defect, dn, dm, mirror):
    def move(site: LatticeSite) -> LatticeSite:
        n = -site.n if mirror else site.n
        return LatticeSite(n + dn, site.m + dm, site.l)

    sites = [LatticeSite.from_row(n, row) for n, row in cells]
    defects = ()
    if defect is not None:
        n, row, kind = defect
        defects = (SidbDefect(LatticeSite.from_row(n, row), kind),)
        assume(defects[0].site not in sites)
    moved_layout = SidbLayout(move(site) for site in sites)
    moved_defects = tuple(replace(d, site=move(d.site)) for d in defects)

    gate = GateUnderTest(sites, (), (), ())
    clear_geometry_cache()
    # The pristine system first: a charged defect must not share it.
    simulate_pattern(gate, 0, PARAMETERS, "quickexact")
    simulate_pattern(gate, 0, PARAMETERS, "quickexact", defects=defects)
    hits = GROUND_STATE_MEMO.hits
    moved_gate = GateUnderTest(moved_layout.sites(), (), (), ())
    result = simulate_pattern(
        moved_gate, 0, PARAMETERS, "quickexact", defects=moved_defects
    )
    assert GROUND_STATE_MEMO.hits == hits + 1  # the moved system shares
    _, moved = operational._ground_state(
        moved_layout, PARAMETERS, "quickexact", None, moved_defects
    )
    states = moved.ground_states
    reference = exhaustive_ground_state(
        moved_layout,
        PARAMETERS,
        model=EnergyModel(moved_layout, PARAMETERS, moved_defects),
    )
    assert abs(result.ground_energy - reference.ground_energy) <= 1e-9
    assert {tuple(state) for state in states} == {
        tuple(state) for state in reference.ground_states
    }


def test_odd_row_shift_does_not_share_an_entry():
    gate = _or_se()
    clear_geometry_cache()
    simulate_pattern(gate, 0, PARAMETERS)
    simulate_pattern(gate.translated(7, 2), 0, PARAMETERS)
    assert _memo_counts() == (1, 1)
    simulate_pattern(gate.translated(0, 1), 0, PARAMETERS)
    assert _memo_counts() == (1, 2)


def test_mirrored_tile_reuses_every_pattern(monkeypatch):
    calls = []

    def counting_quickexact(layout, *args, **kwargs):
        calls.append(len(layout))
        return quickexact_ground_state(layout, *args, **kwargs)

    clear_geometry_cache()
    library = BestagonLibrary()
    library.validate("or_SE", PARAMETERS)
    monkeypatch.setattr(
        operational, "quickexact_ground_state", counting_quickexact
    )
    warm = library.validate("or_SW", PARAMETERS)
    assert calls == []
    clear_geometry_cache()
    cold = BestagonLibrary().validate("or_SW", PARAMETERS)
    assert len(calls) == 4
    assert warm == cold


def test_clear_geometry_cache_empties_the_memo():
    clear_geometry_cache()
    check_operational(_or_se(), PARAMETERS)
    assert len(GROUND_STATE_MEMO) == 4
    clear_geometry_cache()
    assert len(GROUND_STATE_MEMO) == 0
    assert _memo_counts() == (0, 0)


def test_mutating_a_returned_state_leaves_later_hits_unchanged():
    layout = _or_se().layout(1)
    clear_geometry_cache()
    _, first = operational._ground_state(layout, PARAMETERS, "auto", None)
    expected = [state.copy() for state in first.ground_states]
    for state in first.ground_states:
        state[:] = 1 - state
    _, second = operational._ground_state(layout, PARAMETERS, "auto", None)
    assert first.stats is not None and second.stats is None
    assert len(second.ground_states) == len(expected)
    for state, reference in zip(second.ground_states, expected):
        np.testing.assert_array_equal(state, reference)


def _direct_verdict(gate: GateUnderTest, pattern: int) -> bool:
    """Every QuickExact ground state of the layout as given reads right."""
    layout = gate.layout(pattern)
    states = quickexact_ground_state(layout, PARAMETERS).ground_states
    expected = gate.expected(pattern)
    return bool(states) and all(
        tuple(read_bdl_pair(layout, state, pair) for pair in gate.output_pairs)
        == expected
        for state in states
    )


def test_library_verdicts_match_quickexact_on_the_layouts_as_given():
    clear_geometry_cache()
    library = BestagonLibrary()
    checked = 0
    for name in library.names():
        gate = library.design(name).under_test
        patterns = range(1 << gate.num_inputs)
        report = library.validate(name, PARAMETERS)
        assert [result.correct for result in report.patterns] == [
            _direct_verdict(gate, pattern) for pattern in patterns
        ], name
        checked += 1
    assert checked == 29


def test_threads_share_the_memo_without_lost_updates():
    base = [
        LatticeSite.from_row(n, row)
        for n, row in ((0, 0), (0, 2), (3, 7), (5, 12), (9, 14), (2, 19))
    ]
    layouts = [
        SidbLayout(
            LatticeSite((-site.n if mirror else site.n) + dn, site.m + dm, site.l)
            for site in base
        )
        for dn, dm, mirror in ((0, 0, False), (7, 3, False), (2, -5, True))
    ]
    references = [exhaustive_ground_state(layout, PARAMETERS) for layout in layouts]
    threads_count, calls = 8, 200
    failures = []

    def worker(offset: int) -> None:
        try:
            for call in range(calls):
                index = (offset + call) % len(layouts)
                _, result = operational._ground_state(
                    layouts[index], PARAMETERS, "quickexact", None
                )
                reference = references[index]
                if abs(result.ground_energy - reference.ground_energy) > 1e-9 or {
                    tuple(state) for state in result.ground_states
                } != {tuple(state) for state in reference.ground_states}:
                    failures.append(index)
        except Exception as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    clear_geometry_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sum(_memo_counts()) == threads_count * calls
    assert len(GROUND_STATE_MEMO) == 1
