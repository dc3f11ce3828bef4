"""Concurrent ``api.design`` calls and the CLI's exit conventions.

Two flows running in sibling threads share the process-wide obs
recorder and geometry cache; these tests pin down that they do not
cross-talk -- each thread gets its own complete trace and the correct
result -- plus the CLI satellites: ``--version`` and Ctrl-C exiting
130 without a traceback.
"""

import threading

import pytest

from repro import api, cli, obs
from repro.flow.design_flow import FLOW_STEP_SPANS
from repro.sidb.energy import clear_geometry_cache


def _run_flow(name, barrier, results, errors):
    try:
        barrier.wait(timeout=30)
        results[name] = api.design(name, trace=True)
    except Exception as error:  # noqa: BLE001 - surfaced by the test
        errors[name] = error


@pytest.mark.parametrize("names", [("xor2", "mux21")])
def test_concurrent_design_calls_do_not_cross_talk(names):
    clear_geometry_cache()
    obs.reset()
    barrier = threading.Barrier(len(names))
    results, errors = {}, {}
    threads = [
        threading.Thread(
            target=_run_flow, args=(name, barrier, results, errors)
        )
        for name in names
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    for name in names:
        result = results[name]
        assert result.name == name
        assert result.equivalence is not None
        assert result.equivalence.equivalent
        # The thread's trace is complete and self-contained: each of
        # the paper's eight flow steps exactly once, no spans leaked
        # in from the sibling thread's flow.
        assert result.trace is not None
        assert result.trace.attributes.get("name") == name
        for step in FLOW_STEP_SPANS:
            assert len(result.trace.find_all(step)) == 1, (
                f"{name}: expected exactly one {step} span"
            )
    # Distinct circuits produced distinct layouts through the shared
    # geometry cache.
    assert results[names[0]].to_sqd() != results[names[1]].to_sqd()
    # Concurrent captures did not leak roots into the global recorder.
    assert obs.recorder().roots == []


def test_concurrent_design_with_recorder_enabled():
    """A globally-enabled recorder keeps per-thread span trees apart."""
    obs.reset()
    obs.enable()
    try:
        barrier = threading.Barrier(2)
        results, errors = {}, {}
        threads = [
            threading.Thread(
                target=_run_flow, args=(name, barrier, results, errors)
            )
            for name in ("xor2", "xnor2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for name in ("xor2", "xnor2"):
            trace = results[name].trace
            assert trace is not None
            assert len(trace.find_all("flow.parse")) == 1
    finally:
        obs.disable()
        obs.reset()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.strip() == f"repro {api.package_version()}"


def test_cli_keyboard_interrupt_exits_130(monkeypatch, capsys):
    def _interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(api, "BestagonLibrary", _interrupt)
    status = cli.main(["library"])
    captured = capsys.readouterr()
    assert status == 130
    assert "interrupted" in captured.err
    assert "Traceback" not in captured.err
