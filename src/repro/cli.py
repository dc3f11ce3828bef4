"""Command-line interface for the SiDB design flow.

    python -m repro.cli synth  <spec.v | benchmark-name> [options]
    python -m repro.cli bench  [name ...]
    python -m repro.cli timing report <spec> [--clocking NAME]
    python -m repro.cli timing sweep  <spec> [--widths N ...]
    python -m repro.cli validate <tile-name ...>
    python -m repro.cli library
    python -m repro.cli defects sample [options]
    python -m repro.cli trace export <trace.json> [--format chrome|prom]
    python -m repro.cli trace tail [--url URL --max N --timeout S]
    python -m repro.cli serve  [--port N --store DIR --workers N
                                --log-json --log-level LEVEL]
    python -m repro.cli submit <spec.v | benchmark-name> [--wait]
    python -m repro.cli jobs   [ID]

``synth`` runs the 8-step flow and writes .sqd/.svg artifacts
(``--json`` emits the structured, ``schema_version``-stamped design
report instead of the one-line summary); ``bench`` prints Table-1
style rows; ``timing report`` runs static timing analysis on a design
under one clocking scheme, and ``timing sweep`` explores the
area--latency trade-off across all registered schemes (the Pareto
front); ``validate`` runs the physics operational check on library
tiles; ``library`` lists the Bestagon designs; ``defects sample``
generates a random defective surface for defect-aware runs (``synth
--defects surface.json``); ``trace export`` converts a ``--trace-json``
file to Chrome trace-event JSON (Perfetto) or Prometheus text
exposition.  ``--progress`` on any flow command streams live
single-line progress to stderr, and ``--workers N`` fans the
parallelizable steps out over processes.

``serve`` starts the design service (artifact store + job scheduler +
JSON HTTP API, versioned under ``/v1``); ``submit`` and ``jobs`` are
its thin clients.  ``synth --cache [DIR]`` serves repeat runs from the
artifact store directly, no server needed.  Ctrl-C anywhere exits with
status 130 and a one-line message, never a traceback.  A failed
placement exits with status 1 and prints what its search proved: the
message, one line per candidate floor plan and, with ``--trace``, the
partial trace of the steps that ran.

The flow subcommands share their common options through parent parsers
(:func:`_trace_options`, :func:`_engine_options`), so ``--trace`` and
the engine knobs spell and behave identically everywhere.  Everything
the CLI touches comes from the stable :mod:`repro.api` facade, except
:func:`repro.obs.render_tree`, which renders a failed run's partial
trace.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import urllib.error
import urllib.request

from repro import api, obs
from repro.service.http import DEFAULT_PORT as _DEFAULT_PORT

_DEFAULT_URL = f"http://127.0.0.1:{_DEFAULT_PORT}"


def _load_specification(source: str) -> tuple[str, str]:
    """(verilog text, name), exiting with a CLI-friendly message."""
    try:
        return api.load_specification(source)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error)) from None


def _configuration(args: argparse.Namespace) -> api.FlowConfiguration:
    """Flow configuration from the shared engine/defect options."""
    defects = None
    if getattr(args, "defects", None):
        try:
            defects = api.SurfaceDefects.load(args.defects)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"cannot load defects from '{args.defects}': {error}"
            ) from None
    try:
        return api.FlowConfiguration(
            engine=args.engine,
            clocking=getattr(args, "clocking", "columnar-rows"),
            exact_conflict_limit=args.conflict_limit,
            exact_time_limit_seconds=args.time_limit,
            timing=getattr(args, "timing", False),
            defects=defects,
            workers=getattr(args, "workers", 1),
            learn=getattr(args, "learn", False),
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _design(
    args: argparse.Namespace,
    verilog: str,
    name: str,
    config: api.FlowConfiguration,
) -> api.DesignResult:
    """Run the flow, with live progress when ``--progress`` is set."""
    cache = getattr(args, "cache", None)
    if getattr(args, "progress", False):
        with api.progress_scope(api.LineProgressReporter()):
            return api.design(
                verilog, name=name, configuration=config, cache=cache
            )
    return api.design(verilog, name=name, configuration=config, cache=cache)


def _report_trace(args: argparse.Namespace, result: api.DesignResult) -> None:
    if args.trace:
        print()
        print(api.trace_report(result))
    if args.trace_json:
        with open(args.trace_json, "w", encoding="utf-8") as handle:
            handle.write(api.trace_json(result))
        print(f"wrote {args.trace_json}")


def _report_failure(
    args: argparse.Namespace, error: api.PhysicalDesignError
) -> None:
    """What a failed placement proved, instead of a traceback."""
    print(f"physical design failed: {error}", file=sys.stderr)
    for attempt in error.attempts:
        print(
            f"  {attempt.width}x{attempt.height}  {attempt.outcome:10s} "
            f"{attempt.sat_conflicts} conflicts",
            file=sys.stderr,
        )
    if getattr(args, "trace", False) and error.trace is not None:
        print("partial trace up to the failure:")
        print(obs.render_tree(error.trace))


def cmd_synth(args: argparse.Namespace) -> int:
    verilog, name = _load_specification(args.spec)
    result = _design(args, verilog, name, _configuration(args))
    if args.json:
        print(json.dumps(result.report(), indent=1, sort_keys=True))
    else:
        print(result.summary())
        if result.timing is not None:
            print(result.timing.summary())
    if result.defect_report is not None and not args.json:
        print(result.defect_report.summary())
    if args.ascii:
        print()
        print(api.layout_to_ascii(result.layout))
    _report_trace(args, result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_sqd())
        print(f"wrote {args.output}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(api.layout_to_svg(result.layout))
        print(f"wrote {args.svg}")
    ok = result.equivalence and result.equivalence.equivalent
    if result.defect_report is not None and not result.defect_report.operational:
        ok = False
    if result.drc_violations:
        ok = False
    return 0 if ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    names = args.names or [
        "xor2", "xnor2", "par_gen", "mux21", "par_check",
        "xor5_r1", "c17", "majority",
    ]
    config = _configuration(args)
    status = 0
    for name in names:
        verilog, _ = _load_specification(name)
        try:
            result = _design(args, verilog, name, config)
        except Exception as error:
            print(f"{name:15s} failed: {error}")
            status = 1
            continue
        print(api.format_table1_row(
            name, result.width, result.height,
            result.num_sidbs, result.area_nm2,
        ))
        _report_trace(args, result)
    return status


def cmd_timing_report(args: argparse.Namespace) -> int:
    verilog, name = _load_specification(args.spec)
    result = _design(args, verilog, name, _configuration(args))
    report = result.timing
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        return 0
    print(result.summary())
    print(report.summary())
    path = " -> ".join(f"({c.x},{c.y})" for c in report.critical_path)
    print(f"critical path: {path}")
    _report_trace(args, result)
    return 0


def cmd_timing_sweep(args: argparse.Namespace) -> int:
    verilog, name = _load_specification(args.spec)
    exploration = api.explore_clocking(
        verilog,
        name=name,
        widths=args.widths or None,
    )
    if args.json:
        print(json.dumps(exploration.to_dict(), indent=1, sort_keys=True))
        return 0
    print(exploration.render_table())
    front = exploration.front()
    print(
        f"pareto front: {len(front)} of {len(exploration.points)} points"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    library = api.BestagonLibrary()
    names = args.names or ["wire_NW_SW", "inv_NW_SW", "and_SE", "or_SE"]
    status = 0
    for name in names:
        report = library.validate(name)
        correct = sum(p.correct for p in report.patterns)
        verdict = "operational" if report.operational else "NOT operational"
        print(f"{name:16s} {verdict} ({correct}/{len(report.patterns)} patterns)")
        if not report.operational:
            status = 1
    return status


def cmd_library(args: argparse.Namespace) -> int:
    library = api.BestagonLibrary()
    for name in library.names():
        design = library.design(name)
        status = "motifs-validated" if design.validated_motifs else "assembled"
        print(f"{name:16s} {design.num_sidbs:3d} SiDBs  "
              f"in:{','.join(p.value for p in design.input_ports) or '-':6s}"
              f" out:{','.join(p.value for p in design.output_ports) or '-':6s}"
              f"  [{status}]")
    return 0


def cmd_defects_sample(args: argparse.Namespace) -> int:
    surface = api.SurfaceDefects.sample(
        columns=args.columns,
        rows=args.rows,
        density_per_nm2=args.density,
        seed=args.seed,
        charged_fraction=args.charged_fraction,
    )
    charged = sum(1 for d in surface if d.is_charged)
    if args.output:
        surface.save(args.output)
        print(
            f"wrote {args.output}: {len(surface)} defects "
            f"({charged} charged) on a {args.columns}x{args.rows} region"
        )
    else:
        print(surface.to_json())
    return 0


def _learn_shards_dir(args: argparse.Namespace) -> str:
    explicit = getattr(args, "data", None) or getattr(args, "out", None)
    if explicit:
        return explicit
    return str(api.default_learn_dir() / "shards")


def cmd_learn_collect(args: argparse.Namespace) -> int:
    store = None
    if args.store:
        store = api.ArtifactStore(root=args.store)
    stats = api.collect_canvas_examples(
        directory=_learn_shards_dir(args),
        store=store,
        samples=args.samples,
        seed=args.seed,
    )
    for name, count in stats["per_problem"].items():
        print(f"{name}: {count} examples")
    print(f"total: {stats['examples']} examples")
    if stats["shard"]:
        print(f"wrote {stats['shard']}")
    for digest in stats["persisted_digests"]:
        print(f"stored blob {digest[:12]}")
    return 0


def cmd_learn_train(args: argparse.Namespace) -> int:
    source = _learn_shards_dir(args)
    try:
        dataset = api.load_examples(source)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load examples from '{source}': {error}")
    if not len(dataset.features):
        raise SystemExit(f"no examples under '{source}'; "
                         "run 'repro learn collect' first")
    train, held_out = dataset.split(holdout=args.holdout, seed=args.seed)
    model = api.train_surrogate(
        train.features, train.fractions(), seed=args.seed
    )
    out = args.out or str(api.default_learn_dir() / "model.json")
    model.save(out)
    print(f"trained on {len(train.features)} examples "
          f"({len(dataset.features)} total)")
    if len(held_out.features):
        metrics = api.evaluate_surrogate(
            model, held_out.features, held_out.labels()
        )
        print(f"held-out: auc={metrics['auc']:.4f} "
              f"accuracy={metrics['accuracy']:.4f} "
              f"log_loss={metrics['log_loss']:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_learn_eval(args: argparse.Namespace) -> int:
    model_path = args.model or str(api.default_learn_dir() / "model.json")
    try:
        model = api.SurrogateModel.load(model_path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load model '{model_path}': {error}")
    source = _learn_shards_dir(args)
    try:
        dataset = api.load_examples(source)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load examples from '{source}': {error}")
    metrics = api.evaluate_surrogate(
        model, dataset.features, dataset.labels()
    )
    print(json.dumps(metrics, indent=1, sort_keys=True))
    return 0


def cmd_learn_info(args: argparse.Namespace) -> int:
    model_path = args.model or str(api.default_learn_dir() / "model.json")
    document: dict = {
        "feature_version": api.FEATURE_VERSION,
        "feature_names": len(api.FEATURE_NAMES),
        "dataset_schema_version": api.DATASET_SCHEMA_VERSION,
        "model_schema_version": api.MODEL_SCHEMA_VERSION,
        "learn_dir": str(api.default_learn_dir()),
    }
    try:
        model = api.SurrogateModel.load(model_path)
        document["model"] = {
            "path": model_path,
            "trained_on": model.trained_on,
            "stumps": len(model.stumps),
            "seed": model.seed,
        }
    except (OSError, ValueError):
        document["model"] = None
    source = _learn_shards_dir(args)
    try:
        dataset = api.load_examples(source)
        labels = dataset.labels()
        document["dataset"] = {
            "source": source,
            "examples": int(len(dataset.features)),
            "positives": int(labels.sum()),
        }
    except (OSError, ValueError):
        document["dataset"] = None
    print(json.dumps(document, indent=1, sort_keys=True))
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    try:
        with open(args.trace, encoding="utf-8") as handle:
            span = api.trace_from_json(handle.read())
    except OSError as error:
        raise SystemExit(f"cannot read trace '{args.trace}': {error}") from None
    except (ValueError, KeyError) as error:
        raise SystemExit(
            f"'{args.trace}' is not a repro trace JSON file "
            f"(produce one with --trace-json): {error}"
        ) from None
    if args.format == "chrome":
        text = api.to_chrome_trace(span)
    else:
        text = api.to_prometheus(span)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_trace_tail(args: argparse.Namespace) -> int:
    """Stream a running service's flight recorder (SSE) to stdout."""
    query = f"replay={args.replay}"
    if args.max is not None:
        query += f"&max_events={args.max}"
    if args.timeout is not None:
        query += f"&timeout_seconds={args.timeout}"
    url = f"{args.url}/v1/events?{query}"
    request = urllib.request.Request(
        url, headers={"Accept": "text/event-stream"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            event_name = None
            data_lines: list[str] = []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):  # keepalive comment
                    continue
                if line.startswith("event:"):
                    event_name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif not line and data_lines:
                    payload = "\n".join(data_lines)
                    try:
                        record = json.loads(payload)
                    except ValueError:
                        record = {"name": event_name, "attributes": {}}
                    attributes = record.get("attributes") or {}
                    detail = "  ".join(
                        f"{key}={value}"
                        for key, value in sorted(attributes.items())
                    )
                    name = record.get("name") or event_name or "?"
                    stamp = record.get("timestamp")
                    prefix = f"{stamp:12.3f}  " if stamp is not None else ""
                    print(f"{prefix}{name}  {detail}".rstrip(), flush=True)
                    event_name = None
                    data_lines = []
    except urllib.error.HTTPError as error:
        raise SystemExit(
            f"service error ({error.code}) at {url}"
        ) from None
    except urllib.error.URLError as error:
        raise SystemExit(
            f"cannot reach design service at {args.url}: {error.reason} "
            "(is 'repro serve' running?)"
        ) from None
    return 0


def _http_json(
    url: str,
    payload: dict | None = None,
    method: str | None = None,
) -> dict:
    """One JSON request to the design service, with friendly errors."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            message = json.loads(error.read().decode("utf-8"))["error"]
        except Exception:
            message = str(error)
        raise SystemExit(f"service error ({error.code}): {message}") from None
    except urllib.error.URLError as error:
        raise SystemExit(
            f"cannot reach design service at {url}: {error.reason} "
            "(is 'repro serve' running?)"
        ) from None


def _format_job(job: dict) -> str:
    flags = []
    if job.get("cache_hit"):
        flags.append("cache-hit")
    if job.get("attached"):
        flags.append(f"attached={job['attached']}")
    error = job.get("error")
    if error:
        flags.append(f"{error.get('kind', 'error')}: {error.get('message')}")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    return (
        f"{job['id']}  {job['status']:9s} {job.get('name') or '-':12s} "
        f"{job['digest'][:12]}{suffix}"
    )


class _DrainSignal(BaseException):
    """Raised out of ``serve_forever`` by the SIGTERM handler.

    A ``BaseException`` so no handler between the signal frame and
    ``cmd_serve`` can swallow it.
    """


def cmd_serve(args: argparse.Namespace) -> int:
    max_queued = args.max_queued if args.max_queued >= 0 else None
    if args.log_json:
        # Configure before the service constructs: scheduler/pool
        # startup already emits correlated lifecycle records.
        api.configure_logging(level=args.log_level)
    service = api.DesignService(
        store=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=True,
        max_queued=max_queued,
    )
    def _on_sigterm(signum, frame):
        raise _DrainSignal()

    try:
        # Only the main thread may install handlers; embedded callers
        # (tests driving cmd_serve from a thread) just skip the drain
        # path.  Installed before the banner so a supervisor reacting
        # to the banner can already deliver SIGTERM safely.
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass
    try:
        # The banner prints inside the guarded region: a supervisor
        # may deliver SIGTERM the moment it sees the banner, and the
        # drain handler must already cover that instant.
        store_root = service.store.root
        print(
            f"repro design service {api.package_version()} on "
            f"{service.url} (store: {store_root}, {args.workers} "
            f"workers, max_queued={max_queued})",
            file=sys.stderr,
        )
        service.serve_forever()
    except _DrainSignal:
        print(
            f"SIGTERM: draining (up to {args.drain_seconds:.0f}s) ...",
            file=sys.stderr,
        )
        service.close(drain=True, drain_timeout=args.drain_seconds)
        print("drained, bye", file=sys.stderr)
        return 0
    finally:
        service.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    verilog, name = _load_specification(args.spec)
    options: dict = {
        "engine": args.engine,
        "clocking": getattr(args, "clocking", "columnar-rows"),
        "exact_conflict_limit": args.conflict_limit,
        "exact_time_limit_seconds": args.time_limit,
        "timing": getattr(args, "timing", False),
        "learn": getattr(args, "learn", False),
    }
    if getattr(args, "defects", None):
        try:
            surface = api.SurfaceDefects.load(args.defects)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"cannot load defects from '{args.defects}': {error}"
            ) from None
        options["defects"] = [defect.to_dict() for defect in surface]
    document = _http_json(
        f"{args.url}/v1/jobs",
        payload={
            "specification": verilog,
            "name": name,
            "options": options,
            "priority": args.priority,
            "timeout": args.timeout,
        },
    )
    job = document["job"]
    print(_format_job(job))
    if not args.wait:
        return 0
    while job["status"] not in ("done", "failed", "cancelled"):
        time.sleep(args.poll_seconds)
        job = _http_json(f"{args.url}/v1/jobs/{job['id']}")
    print(_format_job(job))
    if job["status"] != "done":
        return 1
    if args.output:
        sqd_url = f"{args.url}{job['artifacts']['sqd']}"
        request = urllib.request.Request(sqd_url)
        with urllib.request.urlopen(request, timeout=60) as response:
            data = response.read()
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {args.output} ({len(data)} bytes)")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    if args.id:
        job = _http_json(f"{args.url}/v1/jobs/{args.id}")
        print(json.dumps(job, indent=1, sort_keys=True))
        return 0
    document = _http_json(f"{args.url}/v1/jobs")
    jobs = document["jobs"]
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(_format_job(job))
    return 0


def _benchmark_name(value: str) -> str:
    """Argparse type: a built-in benchmark name, rejected with choices."""
    if value not in api.BENCHMARK_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {value!r} "
            f"(choose from {', '.join(sorted(api.BENCHMARK_NAMES))})"
        )
    return value


def _trace_options() -> argparse.ArgumentParser:
    """Parent parser: observability options shared by flow commands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--trace", action="store_true",
                       help="print the observability trace tree")
    group.add_argument("--trace-json", metavar="PATH",
                       help="write the observability trace as JSON")
    group.add_argument("--progress", action="store_true",
                       help="live single-line progress on stderr")
    return parent


def _engine_options() -> argparse.ArgumentParser:
    """Parent parser: engine knobs shared by flow commands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("physical design engine")
    group.add_argument("--engine", default="auto",
                       choices=[engine.value for engine in api.Engine])
    group.add_argument("--clocking", default="columnar-rows",
                       choices=sorted(api.CLOCKING_SCHEMES),
                       help="clocking scheme the layout is zoned under "
                            "(default: columnar-rows, the paper's native "
                            "row discipline)")
    group.add_argument("--timing", action="store_true",
                       help="run static timing analysis and report "
                            "latency/throughput with the result")
    group.add_argument("--conflict-limit", type=int, default=400_000)
    group.add_argument("--time-limit", type=float, default=None)
    group.add_argument("--defects", metavar="PATH",
                       help="design around the surface defects in PATH "
                            "(JSON, see 'defects sample')")
    group.add_argument("--workers", type=int, default=1,
                       help="worker processes for parallelizable steps "
                            "(results are identical across counts)")
    group.add_argument("--learn", action="store_true",
                       help="collect surrogate training examples from "
                            "this run's physics evaluations (see "
                            "'repro learn'); never changes the result")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SiDB design automation (Bestagon flow)"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {api.package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand gets fresh parent parsers: argparse shares a
    # parent's actions, so one command's set_defaults would otherwise
    # change the defaults of every other command.
    synth = sub.add_parser("synth", help="run the 8-step flow",
                           parents=[_engine_options(), _trace_options()])
    synth.add_argument("spec", help="Verilog file or benchmark name")
    synth.add_argument("-o", "--output", help="write .sqd design file")
    synth.add_argument("--svg", help="write SVG rendering")
    synth.add_argument("--ascii", action="store_true",
                       help="print ASCII layout")
    synth.add_argument("--cache", nargs="?", const=True, metavar="DIR",
                       help="serve repeat runs from the design-artifact "
                            "store (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro/designs)")
    synth.add_argument("--json", action="store_true",
                       help="print the structured design report as JSON "
                            "instead of the one-line summary")
    synth.set_defaults(handler=cmd_synth)

    timing = sub.add_parser(
        "timing", help="static timing analysis of clocked layouts"
    )
    timing_sub = timing.add_subparsers(dest="timing_command", required=True)
    timing_report = timing_sub.add_parser(
        "report",
        help="design one circuit and report its timing",
        parents=[_engine_options(), _trace_options()],
        description="Run the flow with static timing analysis enabled "
                    "and print latency (clock phases and ns), "
                    "throughput, worst slack, and the critical path "
                    "under the chosen clocking scheme.",
    )
    timing_report.add_argument("spec",
                               help="Verilog file or benchmark name")
    timing_report.add_argument("--json", action="store_true",
                               help="print the timing report as JSON")
    timing_report.set_defaults(timing=True, handler=cmd_timing_report)
    timing_sweep = timing_sub.add_parser(
        "sweep",
        help="area-latency Pareto sweep over clocking schemes",
        description="Design once, then re-zone the layout under every "
                    "registered clocking scheme (and optionally "
                    "re-place at bounded widths) to chart the "
                    "area-latency trade-off; Pareto-optimal points "
                    "are marked.",
    )
    timing_sweep.add_argument("spec",
                              help="Verilog file or benchmark name")
    timing_sweep.add_argument("--widths", type=int, nargs="*",
                              metavar="N",
                              help="also re-place heuristically at these "
                                   "max widths (native scheme only)")
    timing_sweep.add_argument("--json", action="store_true",
                              help="print the exploration as JSON")
    timing_sweep.set_defaults(handler=cmd_timing_sweep)

    bench = sub.add_parser("bench", help="Table-1 style rows",
                           parents=[_engine_options(), _trace_options()])
    bench.add_argument("names", nargs="*",
                       type=_benchmark_name,
                       metavar="name",
                       help="benchmark names "
                            f"({', '.join(sorted(api.BENCHMARK_NAMES))})")
    bench.set_defaults(conflict_limit=150_000, handler=cmd_bench)

    validate = sub.add_parser("validate", help="physics-check library tiles",
                              parents=[_trace_options()])
    validate.add_argument("names", nargs="*")
    validate.set_defaults(handler=cmd_validate)

    library = sub.add_parser("library", help="list Bestagon tile designs")
    library.set_defaults(handler=cmd_library)

    trace = sub.add_parser("trace", help="trace-file utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="convert a --trace-json file to a standard format",
        description="Convert a trace written by --trace-json into the "
                    "Chrome trace-event format (load in Perfetto / "
                    "chrome://tracing) or Prometheus text exposition.",
    )
    export.add_argument("trace", help="trace JSON file (from --trace-json)")
    export.add_argument("--format", choices=["chrome", "prom"],
                        default="chrome",
                        help="output format (default: chrome)")
    export.add_argument("-o", "--output", metavar="PATH",
                        help="write here instead of stdout")
    export.set_defaults(handler=cmd_trace_export)
    tail = trace_sub.add_parser(
        "tail",
        help="stream a running service's live events (SSE)",
        description="Subscribe to GET /v1/events on a running service "
                    "and print one line per flight-recorder event "
                    "(job lifecycle, worker churn, drain) until "
                    "interrupted or the limits below are hit.",
    )
    tail.add_argument("--url", default=_DEFAULT_URL,
                      help="service base URL")
    tail.add_argument("--replay", type=int, default=16,
                      help="retained events to replay first (default 16)")
    tail.add_argument("--max", type=int, default=None, metavar="N",
                      help="stop after N events")
    tail.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="stop after S seconds")
    tail.set_defaults(handler=cmd_trace_tail)

    defects = sub.add_parser("defects", help="surface-defect utilities")
    defects_sub = defects.add_subparsers(dest="defects_command", required=True)
    sample = defects_sub.add_parser(
        "sample", help="generate a random defective surface"
    )
    sample.add_argument("--columns", type=int, default=120,
                        help="region width in lattice columns")
    sample.add_argument("--rows", type=int, default=92,
                        help="region height in lattice sub-rows")
    sample.add_argument("--density", type=float, default=1e-4,
                        help="defect density per nm^2")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--charged-fraction", type=float, default=0.5,
                        help="fraction of charged (vs. structural) defects")
    sample.add_argument("-o", "--output", metavar="PATH",
                        help="write the surface as JSON (default: stdout)")
    sample.set_defaults(handler=cmd_defects_sample)

    learn = sub.add_parser(
        "learn",
        help="surrogate guidance: collect examples, train, evaluate",
        description="The learned-guidance flywheel: 'collect' labels "
                    "bootstrap candidates through the ground-state "
                    "oracle into dataset shards, 'train' fits the "
                    "pure-numpy surrogate, 'eval' scores it on a "
                    "dataset, 'info' shows versions and paths.  The "
                    "surrogate only re-ranks and prunes candidates "
                    "ahead of physics; every shipped verdict still "
                    "comes from the exact ground-state oracle.",
    )
    learn_sub = learn.add_subparsers(dest="learn_command", required=True)
    learn_collect = learn_sub.add_parser(
        "collect", help="physics-label bootstrap candidates into shards")
    learn_collect.add_argument("--out", metavar="DIR",
                               help="shard directory (default: "
                                    "$REPRO_LEARN_DIR/shards)")
    learn_collect.add_argument("--store", metavar="DIR",
                               help="also persist shards content-"
                                    "addressed into this artifact store")
    learn_collect.add_argument("--samples", type=int, default=160,
                               help="labeled candidates per bootstrap "
                                    "problem (default 160)")
    learn_collect.add_argument("--seed", type=int, default=0)
    learn_collect.set_defaults(handler=cmd_learn_collect)
    learn_train = learn_sub.add_parser(
        "train", help="fit the surrogate on collected shards")
    learn_train.add_argument("--data", metavar="PATH",
                             help="shard file or directory (default: "
                                  "$REPRO_LEARN_DIR/shards)")
    learn_train.add_argument("--out", dest="out", metavar="PATH",
                             help="model output path (default: "
                                  "$REPRO_LEARN_DIR/model.json)")
    learn_train.add_argument("--holdout", type=float, default=0.25,
                             help="held-out fraction for the reported "
                                  "metrics (default 0.25)")
    learn_train.add_argument("--seed", type=int, default=0)
    learn_train.set_defaults(handler=cmd_learn_train, data=None)
    learn_eval = learn_sub.add_parser(
        "eval", help="score a model on a dataset")
    learn_eval.add_argument("--model", metavar="PATH",
                            help="model file (default: "
                                 "$REPRO_LEARN_DIR/model.json)")
    learn_eval.add_argument("--data", metavar="PATH",
                            help="shard file or directory (default: "
                                 "$REPRO_LEARN_DIR/shards)")
    learn_eval.set_defaults(handler=cmd_learn_eval)
    learn_info = learn_sub.add_parser(
        "info", help="schema versions, model + dataset summary")
    learn_info.add_argument("--model", metavar="PATH")
    learn_info.add_argument("--data", metavar="PATH")
    learn_info.set_defaults(handler=cmd_learn_info)

    serve = sub.add_parser(
        "serve",
        help="run the design service (artifact store + job queue + HTTP)",
        description="Serve the JSON design API (versioned under /v1): "
                    "POST /v1/jobs, GET /v1/jobs, "
                    "GET /v1/artifacts/<digest>/<name>, GET /v1/metrics, "
                    "GET /v1/healthz.  Results are cached in the "
                    "artifact store; identical in-flight submissions "
                    "share one execution.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=_DEFAULT_PORT,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="artifact store root (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/designs)")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm pool size (long-lived design worker "
                            "processes)")
    serve.add_argument("--max-queued", type=int, default=256,
                       help="admission-queue bound; a full queue answers "
                            "HTTP 429 with Retry-After (default 256, "
                            "negative disables the bound)")
    serve.add_argument("--drain-seconds", type=float, default=30.0,
                       help="on SIGTERM, let admitted jobs finish for up "
                            "to this long before cancelling (default 30)")
    serve.add_argument("--log-json", action="store_true",
                       help="structured JSON-lines logs on stderr "
                            "(request/job/worker lifecycle with trace "
                            "correlation; workers log here too)")
    serve.add_argument("--log-level", default="info",
                       choices=sorted(api.LOG_LEVELS),
                       help="minimum level for --log-json "
                            "(default: info)")
    serve.set_defaults(handler=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a design job to a running service",
        parents=[_engine_options()],
    )
    submit.add_argument("spec", help="Verilog file or benchmark name")
    submit.add_argument("--url", default=_DEFAULT_URL,
                        help="service base URL")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs earlier")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes")
    submit.add_argument("--poll-seconds", type=float, default=0.5,
                        help=argparse.SUPPRESS)
    submit.add_argument("-o", "--output", metavar="PATH",
                        help="with --wait: write the .sqd artifact here")
    submit.set_defaults(handler=cmd_submit)

    jobs = sub.add_parser("jobs", help="list the service's jobs")
    jobs.add_argument("id", nargs="?", help="show one job as JSON")
    jobs.add_argument("--url", default=_DEFAULT_URL,
                      help="service base URL")
    jobs.set_defaults(handler=cmd_jobs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except api.PhysicalDesignError as error:
        _report_failure(args, error)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
