"""Static timing analysis: schemes, golden latencies, reports, sweeps."""

import dataclasses
import json
import re

import pytest

from repro import api
from repro.coords.hexagonal import HexCoord
from repro.layout.clocking import SCHEMES, scheme_by_name
from repro.tech.constants import (
    CLOCK_PHASE_DURATION_PS,
    CLOCK_PHASES,
)
from repro.timing.sta import TIMING_SCHEMA_VERSION, PhaseDelayModel

_WINDOW = [HexCoord(x, y) for x in range(12) for y in range(12)]
_FOUR_PHASE = ["columnar-rows", "columnar-columns", "2ddwave-hex", "use-hex"]


# --- clocking-scheme invariants (property tests) -----------------------


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_zone_of_is_total_and_bounded(name):
    scheme = scheme_by_name(name)
    for coord in _WINDOW:
        zone = scheme.zone_of(coord)
        assert isinstance(zone, int)
        assert 0 <= zone < scheme.num_phases


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_valid_hop_is_the_plus_one_phase_rule(name):
    scheme = scheme_by_name(name)
    for source in _WINDOW[:36]:
        for target in _WINDOW[:36]:
            expected = scheme.zone_of(target) == (
                (scheme.zone_of(source) + 1) % scheme.num_phases
            )
            assert scheme.is_valid_hop(source, target) == expected


@pytest.mark.parametrize("name", _FOUR_PHASE)
def test_valid_hop_is_antisymmetric_for_four_phase_schemes(name):
    scheme = scheme_by_name(name)
    assert scheme.num_phases == CLOCK_PHASES == 4
    for source in _WINDOW[:36]:
        for target in _WINDOW[:36]:
            if scheme.is_valid_hop(source, target):
                assert not scheme.is_valid_hop(target, source)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_phase_increment_is_positive_and_congruent(name):
    scheme = scheme_by_name(name)
    model = PhaseDelayModel.from_scheme(scheme)
    for source in _WINDOW[:36]:
        for target in _WINDOW[:36]:
            cost = model.hop_phases(source, target)
            assert 1 <= cost <= scheme.num_phases
            delta = (
                scheme.zone_of(target) - scheme.zone_of(source)
            ) % scheme.num_phases
            assert cost % scheme.num_phases == delta
            # Pipelined hops cost exactly one phase.
            if scheme.is_valid_hop(source, target):
                assert cost == 1


def test_delay_model_supertile_merging_makes_intra_zone_free():
    scheme = scheme_by_name("columnar-rows")
    model = PhaseDelayModel.from_scheme(scheme)
    a, below = HexCoord(0, 0), HexCoord(0, 1)
    assert model.hop_phases(a, below) == 1
    assert model.hop_phases(a, HexCoord(1, 0)) == scheme.num_phases
    merged = dataclasses.replace(model, intra_zone_free=True)
    assert merged.hop_phases(a, HexCoord(1, 0)) == 0


# --- golden numbers ----------------------------------------------------

_XOR2_GOLDEN = {
    # scheme: (latency, throughput, wns)
    "columnar-rows": (2, (1, 1), 0),
    "columnar-columns": (5, (1, 2), -3),
    "2ddwave-hex": (5, (1, 2), -3),
    "use-hex": (7, (1, 2), -5),
    "open": (2, (1, 1), 0),
}

_MUX21_GOLDEN = {
    "columnar-rows": (5, (1, 1), 0),
    "columnar-columns": (17, (1, 2), -12),
    "2ddwave-hex": (14, (1, 3), -9),
    "use-hex": (14, (1, 2), -9),
}


@pytest.fixture(scope="module")
def xor2_result():
    return api.design("xor2")


@pytest.fixture(scope="module")
def mux21_result():
    return api.design("mux21")


@pytest.mark.parametrize("scheme", sorted(_XOR2_GOLDEN))
def test_xor2_timing_golden(xor2_result, scheme):
    latency, throughput, wns = _XOR2_GOLDEN[scheme]
    report = api.analyze_timing(
        xor2_result.layout, scheme_by_name(scheme), name="xor2"
    )
    assert report.latency_phases == latency
    assert report.throughput == throughput
    assert report.wns_phases == wns
    assert report.latency_ps == latency * CLOCK_PHASE_DURATION_PS


@pytest.mark.parametrize("scheme", sorted(_MUX21_GOLDEN))
def test_mux21_timing_golden(mux21_result, scheme):
    latency, throughput, wns = _MUX21_GOLDEN[scheme]
    report = api.analyze_timing(
        mux21_result.layout, scheme_by_name(scheme), name="mux21"
    )
    assert (report.latency_phases, report.throughput, report.wns_phases) == (
        latency, throughput, wns,
    )


def test_native_critical_path_spans_every_row(xor2_result):
    report = api.analyze_timing(xor2_result.layout)
    path = report.critical_path
    assert len(path) == xor2_result.layout.height
    assert [c.y for c in path] == list(range(xor2_result.layout.height))
    # Every consecutive hop is a pipelined (one-phase) hop natively.
    scheme = xor2_result.layout.clocking
    for source, target in zip(path, path[1:]):
        assert scheme.is_valid_hop(source, target)


def test_supertile_merged_analysis_never_slower(mux21_result):
    gate_level = api.analyze_timing(mux21_result.layout)
    merged = api.analyze_timing(
        mux21_result.layout, supertiles=mux21_result.supertiles
    )
    assert merged.latency_phases <= gate_level.latency_phases


# --- TimingReport structure -------------------------------------------


def test_timing_report_round_trips(xor2_result):
    report = api.analyze_timing(xor2_result.layout, name="xor2")
    document = report.to_dict()
    assert document["schema_version"] == TIMING_SCHEMA_VERSION == 1
    json.dumps(document)  # JSON-serializable
    rebuilt = api.TimingReport.from_dict(document)
    assert rebuilt == report


def test_flow_attaches_timing_only_when_asked():
    plain = api.design("xor2")
    assert plain.timing is None
    assert "timing" not in plain.summary()
    timed = api.design("xor2", timing=True)
    assert timed.timing is not None
    assert timed.timing.scheme == "columnar-rows"
    assert ", timing: 2 phases (0.50 ns), throughput 1/1" in timed.summary()


# --- structured design report -----------------------------------------


def test_design_report_is_schema_stamped(xor2_result):
    report = xor2_result.report()
    assert report["schema_version"] == api.REPORT_SCHEMA_VERSION == 1
    assert report["name"] == "xor2"
    assert report["clocking"] == "columnar-rows"
    assert report["timing"] is None
    assert report["equivalence"]["equivalent"] is True
    json.dumps(report)
    assert xor2_result.to_dict() == report


def test_summary_is_a_renderer_over_the_report(xor2_result):
    assert api.render_summary(xor2_result.report()) == xor2_result.summary()
    assert re.fullmatch(
        r"xor2: 2x3 = 6 tiles, 70 SiDBs, 2403\.98 nm\^2, verified "
        r"\(exact, \d+\.\d\d s\)",
        xor2_result.summary(),
    )


def test_flow_configuration_accepts_scheme_names():
    config = api.FlowConfiguration(clocking="2ddwave-hex")
    assert config.clocking.name == "2ddwave-hex"
    with pytest.raises(ValueError) as excinfo:
        api.FlowConfiguration(clocking="bogus")
    assert "columnar-rows" in str(excinfo.value)


# --- clocking exploration ---------------------------------------------


def test_explore_clocking_pareto_front(xor2_result):
    exploration = api.explore_clocking("xor2", baseline=xor2_result)
    assert exploration.name == "xor2"
    assert {p.scheme for p in exploration.points} == set(_FOUR_PHASE)
    native = [p for p in exploration.points if p.placement == "native"]
    assert [p.scheme for p in native] == ["columnar-rows"]
    front = exploration.front()
    assert front and all(p.pareto for p in front)
    # No point on the front is dominated by any other point.
    for point in front:
        for other in exploration.points:
            strictly_better = (
                other.area_tiles <= point.area_tiles
                and other.latency_phases <= point.latency_phases
                and (
                    other.area_tiles < point.area_tiles
                    or other.latency_phases < point.latency_phases
                )
            )
            assert not strictly_better
    document = exploration.to_dict()
    json.dumps(document)
    assert len(document["points"]) == len(exploration.points)
