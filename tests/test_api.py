"""Tests of the stable public facade (repro.api) and the CLI surface."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import repro
from repro import api
from repro.cli import _configuration, build_parser, main
from repro.networks import benchmark_verilog
from repro.service import design_digest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir)


# --- facade --------------------------------------------------------------


def test_all_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_flow_and_physics_imports_load_no_hashing():
    """Only the design service hashes; a flow or physics process does
    not load ``hashlib`` (and with it libcrypto)."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.flow, repro.sidb.operational; "
            "print('hashlib' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(BENCH, "src")),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_design_accepts_benchmark_name():
    result = api.design("xor2", verify=True)
    assert result.name == "xor2"
    assert result.equivalence.equivalent


def test_design_accepts_verilog_text():
    verilog = benchmark_verilog("xor2")
    result = api.design(verilog, name="renamed", verify=False)
    assert result.name == "renamed"


def test_design_accepts_path_containing_module(tmp_path):
    path = tmp_path / "modules" / "xor2.v"
    path.parent.mkdir()
    path.write_text(benchmark_verilog("xor2"), encoding="utf-8")
    result = api.design(str(path), verify=False)
    assert result.name == "xor2"
    assert result.sqd == api.design("xor2", verify=False).sqd


def test_design_rejects_configuration_plus_options():
    config = api.FlowConfiguration()
    with pytest.raises(TypeError):
        api.design("xor2", configuration=config, verify=False)
    with pytest.raises(TypeError):
        api.design("xor2", configuration=config, engine="exact")


def test_design_with_defects_reports():
    defects = api.SurfaceDefects(
        [api.SidbDefect(api.LatticeSite(400, 100, 0), api.DefectType.ARSENIC)]
    )
    result = api.design("xor2", defects=defects)
    assert result.defect_report is not None
    assert "defects" in result.summary()


# --- Engine enum / FlowConfiguration ------------------------------------


def test_engine_enum_normalization():
    assert api.FlowConfiguration().engine is api.Engine.AUTO
    config = api.FlowConfiguration(engine="exact")
    assert config.engine is api.Engine.EXACT
    assert config.engine == "exact"  # str-enum keeps comparisons working
    assert api.FlowConfiguration(engine=api.Engine.HEURISTIC).engine is (
        api.Engine.HEURISTIC
    )


def test_engine_rejected_with_choices_listed():
    with pytest.raises(ValueError, match="heuristic"):
        api.FlowConfiguration(engine="bogus")


def test_flow_configuration_is_keyword_only():
    with pytest.raises(TypeError):
        api.FlowConfiguration("exact")


# --- top-level aliases ---------------------------------------------------


def test_repro_design_alias_is_not_deprecated():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert repro.design is api.design
    assert not caught


# --- specification loading ----------------------------------------------


def test_load_specification_benchmark():
    verilog, name = api.load_specification("mux21")
    assert name == "mux21"
    assert "module" in verilog


def test_load_specification_missing_verilog_file():
    with pytest.raises(FileNotFoundError, match="not found"):
        api.load_specification("no/such/file.v")


def test_load_specification_unknown_name_lists_benchmarks():
    with pytest.raises(ValueError, match="mux21"):
        api.load_specification("not-a-benchmark")


def test_load_specification_file_shadows_benchmark(tmp_path, capsys):
    shadow = tmp_path / "xor2"
    shadow.write_text("module xor2 (a, b, f); endmodule")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        verilog, name = api.load_specification("xor2")
    finally:
        os.chdir(cwd)
    assert verilog.startswith("module xor2")
    assert name == "xor2"
    assert "both a file and a benchmark" in capsys.readouterr().err


# --- CLI -----------------------------------------------------------------


def test_cli_rejects_unknown_engine_at_argparse_level(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["synth", "xor2", "--engine", "bogus"])
    assert "exact" in capsys.readouterr().err


def test_cli_rejects_unknown_benchmark_at_argparse_level(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "not-a-benchmark"])
    assert "mux21" in capsys.readouterr().err


def test_cli_flow_commands_have_no_workers_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "xor2", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    parser = build_parser()
    for command in (["bench"], ["timing", "report", "xor2"],
                    ["submit", "xor2"]):
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--workers", "2"])
    assert parser.parse_args(["serve", "--workers", "3"]).workers == 3


def test_cli_shared_options_on_all_flow_commands():
    parser = build_parser()
    for command in (["synth", "xor2"], ["bench"]):
        args = parser.parse_args(
            command + ["--engine", "exact", "--trace"]
        )
        assert args.engine == "exact"
        assert args.trace


def test_cli_subcommand_defaults_do_not_leak():
    parser = build_parser()
    synth = parser.parse_args(["synth", "xor2"])
    assert (synth.timing, synth.conflict_limit) == (False, 400_000)
    submit = parser.parse_args(["submit", "xor2"])
    assert (submit.timing, submit.conflict_limit) == (False, 400_000)
    assert parser.parse_args(["bench"]).conflict_limit == 150_000
    assert parser.parse_args(["timing", "report", "xor2"]).timing
    # `repro synth --cache` and api.design(cache=True) share cache entries.
    verilog, name = api.load_specification("xor2")
    assert design_digest(verilog, name, _configuration(synth)) == (
        design_digest(verilog, name, api.FlowConfiguration())
    )


def test_cli_failed_placement_reports_instead_of_traceback(capsys):
    status = main(
        ["synth", "xor2", "--engine", "exact", "--time-limit", "0", "--trace"]
    )
    captured = capsys.readouterr()
    assert status == 1
    assert "time limit" in captured.err
    assert "flow.place_route" in captured.out


def test_cli_synth_fails_on_drc_violations(capsys):
    # Both P&R engines place rows as clock stages, so a column-zoned
    # layout breaks the clocking rule at two hops.
    status = main(["synth", "xor2", "--clocking", "columnar-columns"])
    assert status == 1
    assert "DRC: 2 violations" in capsys.readouterr().out


def test_cli_defects_sample_writes_json(tmp_path):
    out = tmp_path / "surface.json"
    status = main(
        [
            "defects", "sample",
            "--columns", "200", "--rows", "150",
            "--density", "1e-3", "--seed", "5",
            "-o", str(out),
        ]
    )
    assert status == 0
    data = json.loads(out.read_text())
    assert data["defects"]
    surface = api.SurfaceDefects.load(str(out))
    assert len(surface) == len(data["defects"])


def test_cli_synth_with_defects(tmp_path, capsys):
    surface = tmp_path / "surface.json"
    api.SurfaceDefects(
        [api.SidbDefect(api.LatticeSite(500, 200, 0), api.DefectType.DB)]
    ).save(str(surface))
    status = main(["synth", "xor2", "--defects", str(surface)])
    out = capsys.readouterr().out
    assert "defects" in out
    assert status == 0


# --- API surface snapshot ------------------------------------------------


def test_api_surface_snapshot_is_current():
    script = os.path.join(BENCH, "scripts", "check_api_surface.py")
    result = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
