"""Design service: digests, artifact store, job scheduler, HTTP API."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api, obs
from repro.networks import benchmark_verilog
from repro.service import (
    ArtifactStore,
    DesignService,
    JobScheduler,
    UncacheableConfigurationError,
    design_digest,
    normalize_configuration,
)
from repro.service.digest import configuration_from_normalized
from repro.service.scheduler import JOB_SCHEMA_VERSION
from repro.service.store import ARTIFACT_SQD
from repro.synthesis.database import NpnDatabase


def _payload(name="fake", sqd="<?xml?>x", layout="{}"):
    """Minimal synthetic payload for store-mechanics tests."""
    return {
        "sqd": sqd,
        "layout_json": layout,
        "result": {"name": name, "engine_used": "exact", "summary": name},
    }


# --- digests -----------------------------------------------------------


def test_digest_is_stable_across_configuration_instances():
    verilog = benchmark_verilog("xor2")
    first = design_digest(verilog, "xor2", api.FlowConfiguration())
    second = design_digest(verilog, "xor2", api.FlowConfiguration())
    assert first == second
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")


def test_digest_varies_with_inputs():
    verilog = benchmark_verilog("xor2")
    base = design_digest(verilog, "xor2")
    assert design_digest(verilog, "renamed") != base
    assert design_digest(benchmark_verilog("mux21"), "xor2") != base
    assert (
        design_digest(
            verilog, "xor2", api.FlowConfiguration(engine="heuristic")
        )
        != base
    )


def test_digest_ignores_workers_and_trace():
    verilog = benchmark_verilog("xor2")
    base = design_digest(verilog, "xor2")
    assert (
        design_digest(
            verilog, "xor2", api.FlowConfiguration(workers=4, trace=False)
        )
        == base
    )


def test_uncacheable_configurations_raise():
    with pytest.raises(UncacheableConfigurationError):
        normalize_configuration(
            api.FlowConfiguration(database=NpnDatabase())
        )
    with pytest.raises(UncacheableConfigurationError):
        normalize_configuration(
            api.FlowConfiguration(library=api.BestagonLibrary())
        )


def test_normalized_configuration_round_trips():
    config = api.FlowConfiguration(
        engine="heuristic", exact_max_width=12, verify=False
    )
    rebuilt = configuration_from_normalized(normalize_configuration(config))
    assert normalize_configuration(rebuilt) == normalize_configuration(config)


# --- artifact store ----------------------------------------------------


def test_store_put_get_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.put_payload("ab" * 32, _payload())
    assert store.has("ab" * 32)
    payload = store.get_payload("ab" * 32)
    assert payload["sqd"] == "<?xml?>x"
    assert not store.put_payload("ab" * 32, _payload())  # already stored
    assert store.digests() == ["ab" * 32]
    # Staging directory left clean (atomic rename committed the entry).
    assert not any((tmp_path / "tmp").iterdir())


def test_store_detects_corruption_and_evicts(tmp_path):
    store = ArtifactStore(tmp_path)
    digest = "cd" * 32
    store.put_payload(digest, _payload())
    artifact = store.entry_dir(digest) / ARTIFACT_SQD
    artifact.write_text("tampered")
    assert store.read_artifact(digest, ARTIFACT_SQD) is None
    assert store.get_payload(digest) is None
    assert not store.has(digest)  # corrupt entry evicted
    assert store.stats()["evictions_corrupt"] >= 1


def test_store_lru_size_cap_evicts_oldest(tmp_path):
    big = "x" * 2000
    store = ArtifactStore(tmp_path, max_bytes=3 * 2200)
    for index in range(4):
        digest = f"{index:02d}" * 32
        store.put_payload(digest, _payload(sqd=big))
        time.sleep(0.02)  # distinct manifest mtimes for LRU order
    kept = store.digests()
    assert "00" * 32 not in kept  # oldest evicted
    assert "03" * 32 in kept
    assert store.total_bytes() <= 3 * 2200


def test_store_read_artifact_requires_manifest(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.manifest("ef" * 32) is None
    assert store.read_artifact("ef" * 32, ARTIFACT_SQD) is None


# --- api.design(cache=...) --------------------------------------------


def test_design_cache_cold_then_warm(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    cold = api.design("mux21", cache=store)
    assert not cold.from_cache

    # A warm hit must not run the flow at all.
    def flow_must_not_run(*args, **kwargs):
        raise AssertionError("warm cache hit ran the design flow")

    monkeypatch.setattr(api, "design_sidb_circuit", flow_must_not_run)
    for _ in range(5):
        warm = api.design("mux21", cache=store)
        assert warm.from_cache
        assert warm.to_sqd() == cold.to_sqd()
        assert warm.summary() == cold.summary()


def test_design_cache_rehydrates_from_disk(tmp_path):
    cold = api.design("xor2", cache=ArtifactStore(tmp_path))
    fresh = ArtifactStore(tmp_path)  # no memo: the cross-process path
    digest = design_digest(benchmark_verilog("xor2"), "xor2")
    hydrated = fresh.load_result(digest)
    assert hydrated is not None and hydrated.from_cache
    assert hydrated.to_sqd() == cold.to_sqd()
    assert hydrated.name == "xor2"
    assert hydrated.engine_used == cold.engine_used
    assert hydrated.equivalence.equivalent
    assert hydrated.specification.num_gates == cold.specification.num_gates
    assert hydrated.trace is not None and hydrated.trace.find("flow.parse")


def test_design_cache_skips_uncacheable_configuration(tmp_path):
    config = api.FlowConfiguration(database=NpnDatabase())
    result = api.design("xor2", cache=str(tmp_path), configuration=config)
    assert not result.from_cache
    assert ArtifactStore(tmp_path).digests() == []


def test_design_cache_resolve_shares_instances(tmp_path):
    first = ArtifactStore.resolve(str(tmp_path))
    second = ArtifactStore.resolve(tmp_path)
    assert first is second


# --- job scheduler -----------------------------------------------------


def test_scheduler_runs_job_and_persists(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        job = scheduler.submit(benchmark_verilog("xor2"), name="xor2")
        assert job.wait(120)
        assert job.status == "done"
        assert job.summary and "xor2" in job.summary
        result = scheduler.result(job.id)
        assert result is not None and result.from_cache
        assert store.has(job.digest)


def test_scheduler_cache_short_circuit(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        first = scheduler.submit(benchmark_verilog("xor2"), name="xor2")
        assert first.wait(120) and first.status == "done"
        second = scheduler.submit(benchmark_verilog("xor2"), name="xor2")
        assert second.status == "done" and second.cache_hit
        assert second.id != first.id


def test_scheduler_dedups_inflight_submissions(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        verilog = benchmark_verilog("mux21")
        first = scheduler.submit(verilog, name="mux21")
        second = scheduler.submit(verilog, name="mux21")
        third = scheduler.submit(verilog, name="mux21")
        assert second is first and third is first
        assert first.attached == 2
        assert first.wait(120) and first.status == "done"
        assert scheduler.stats()["jobs_total"] == 1
        counters = scheduler.telemetry.counters
        assert counters.get("service.jobs_deduplicated") == 2
        assert counters.get("service.jobs_done") == 1


def test_scheduler_priorities_order_queued_jobs(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        occupier = scheduler.submit(benchmark_verilog("mux21"), name="m")
        low = scheduler.submit(
            benchmark_verilog("xor2"), name="low", priority=-5
        )
        high = scheduler.submit(
            benchmark_verilog("xnor2"), name="high", priority=5
        )
        for job in (occupier, low, high):
            assert job.wait(120) and job.status == "done", job.error
        assert high.started_at <= low.started_at


def test_scheduler_reports_structured_failure(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        job = scheduler.submit("module broken(; endmodule", name="broken")
        assert job.wait(120)
        assert job.status == "failed"
        assert job.error is not None and job.error["kind"] == "error"
        assert job.error["message"]
        assert scheduler.result(job.id) is None
        assert not store.has(job.digest)


def test_scheduler_timeout_kills_worker(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        job = scheduler.submit(
            benchmark_verilog("c17"), name="c17", timeout=0.05
        )
        assert job.wait(120)
        assert job.status == "failed"
        assert job.error is not None and job.error["kind"] == "timeout"


def test_scheduler_cancels_queued_job(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        occupier = scheduler.submit(benchmark_verilog("mux21"), name="m")
        queued = scheduler.submit(benchmark_verilog("par_gen"), name="p")
        assert scheduler.cancel(queued.id)
        assert queued.status == "cancelled"
        assert not scheduler.cancel(queued.id)  # already final
        assert occupier.wait(120) and occupier.status == "done"


def test_scheduler_merges_worker_spans_into_telemetry(tmp_path):
    store = ArtifactStore(tmp_path)
    with JobScheduler(store, workers=1) as scheduler:
        job = scheduler.submit(benchmark_verilog("xor2"), name="xor2")
        assert job.wait(120) and job.status == "done"
        merged = [
            child
            for child in scheduler.telemetry.children
            if child.attributes.get("job") == job.id
        ]
        assert len(merged) == 1
        assert merged[0].find("design_flow") is not None
        text = scheduler.telemetry_prometheus()
        assert "repro_service_service_jobs_done_total 1" in text


def test_scheduler_span_merge_respects_parent_recorder(tmp_path):
    store = ArtifactStore(tmp_path)
    obs.reset()
    obs.enable()
    try:
        with JobScheduler(store, workers=1) as scheduler:
            job = scheduler.submit(benchmark_verilog("xor2"), name="xor2")
            assert job.wait(120) and job.status == "done"
        roots = [
            span
            for span in obs.recorder().roots
            if span.attributes.get("job") == job.id
        ]
        assert len(roots) == 1
    finally:
        obs.disable()
        obs.reset()


# --- HTTP API ----------------------------------------------------------


def test_service_close_without_serving_returns(tmp_path):
    # close() used to call socketserver.shutdown() unconditionally,
    # which blocks on an event only the serve loop's exit sets -- a
    # deadlock whenever the loop never ran (or was aborted by the
    # SIGTERM drain signal before it armed).  Run it off-thread so a
    # regression fails the test instead of hanging the suite.
    worker = threading.Thread(
        target=DesignService(store=tmp_path, port=0, workers=1).close,
        daemon=True,
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "close() deadlocked without a serve loop"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-store")
    with DesignService(store=root, port=0, workers=1) as running:
        running.start()
        yield running


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _post(url, document):
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_healthz_reports_version(service):
    status, body = _get(service.url + "/healthz")
    document = json.loads(body)
    assert status == 200
    assert document["status"] == "ok"
    assert document["version"] == api.package_version()
    assert document["scheduler"]["workers"] == 1


def test_http_job_lifecycle_and_artifacts(service):
    status, document = _post(
        service.url + "/jobs", {"specification": "xor2"}
    )
    assert status == 202
    job = document["job"]
    deadline = time.time() + 120
    while job["status"] not in ("done", "failed", "cancelled"):
        assert time.time() < deadline
        time.sleep(0.05)
        _, body = _get(f"{service.url}/jobs/{job['id']}")
        job = json.loads(body)
    assert job["status"] == "done", job
    status, sqd = _get(service.url + job["artifacts"]["sqd"])
    assert status == 200 and sqd.startswith(b"<?xml")
    status, body = _get(service.url + job["artifacts"]["manifest"])
    manifest = json.loads(body)
    assert status == 200 and manifest["digest"] == job["digest"]
    # Resubmission: served straight from the artifact store.
    status, document = _post(
        service.url + "/jobs", {"specification": "xor2"}
    )
    assert status == 202
    assert document["job"]["status"] == "done"
    assert document["job"]["cache_hit"] is True
    # Job listing includes both submissions.
    status, body = _get(service.url + "/jobs")
    listed = json.loads(body)["jobs"]
    assert status == 200 and len(listed) >= 2


def test_http_metrics_exposition(service):
    status, body = _get(service.url + "/metrics")
    assert status == 200
    assert b"repro_service_service_jobs_submitted_total" in body


def test_http_rejects_bad_requests(service):
    status, document = _post(service.url + "/jobs", {})
    assert status == 400 and "specification" in document["error"]
    status, document = _post(
        service.url + "/jobs", {"specification": "no-such-benchmark"}
    )
    assert status == 400 and "no-such-benchmark" in document["error"]
    status, document = _post(
        service.url + "/jobs",
        {"specification": "xor2", "options": {"engine": "warp-drive"}},
    )
    assert status == 400 and "warp-drive" in document["error"]


def test_http_404s(service):
    status, body = _get(service.url + "/jobs/j-nonexistent")
    assert status == 404
    status, body = _get(service.url + "/artifacts/" + "0" * 64)
    assert status == 404
    status, body = _get(
        service.url + "/artifacts/" + "0" * 64 + "/design.sqd"
    )
    assert status == 404
    status, body = _get(service.url + "/nowhere")
    assert status == 404


def test_http_cancel_unknown_job(service):
    request = urllib.request.Request(
        service.url + "/jobs/j-nonexistent", method="DELETE"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 404


# --- /v1 API versioning ------------------------------------------------


def _get_with_headers(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def test_http_v1_paths_serve_without_deprecation(service):
    for path in ("/v1/healthz", "/v1/metrics", "/v1/jobs"):
        status, _, headers = _get_with_headers(service.url + path)
        assert status == 200, path
        assert "Deprecation" not in headers, path


def test_http_unversioned_aliases_answer_with_deprecation(service):
    for path in ("/healthz", "/metrics", "/jobs"):
        status, _, headers = _get_with_headers(service.url + path)
        assert status == 200, path
        assert headers.get("Deprecation") == "true", path
        assert f"</v1{path}>" in headers.get("Link", ""), headers


def test_http_v1_job_schema_version_and_artifact_urls(service):
    status, document = _post(
        service.url + "/v1/jobs", {"specification": "xor2"}
    )
    assert status == 202
    job = document["job"]
    assert job["schema_version"] == JOB_SCHEMA_VERSION
    deadline = time.time() + 120
    while job["status"] not in ("done", "failed", "cancelled"):
        assert time.time() < deadline
        time.sleep(0.05)
        _, body, headers = _get_with_headers(
            f"{service.url}/v1/jobs/{job['id']}"
        )
        assert "Deprecation" not in headers
        job = json.loads(body)
    assert job["status"] == "done", job
    # Versioned requests get versioned artifact URLs ...
    assert job["artifacts"]["sqd"].startswith("/v1/artifacts/")
    status, sqd, headers = _get_with_headers(
        service.url + job["artifacts"]["sqd"]
    )
    assert status == 200 and sqd.startswith(b"<?xml")
    assert "Deprecation" not in headers
    # ... while the alias view keeps the historical bare paths.
    _, body, headers = _get_with_headers(
        f"{service.url}/jobs/{job['id']}"
    )
    alias = json.loads(body)
    assert headers.get("Deprecation") == "true"
    assert alias["artifacts"]["sqd"].startswith("/artifacts/")
    status, alias_sqd, headers = _get_with_headers(
        service.url + alias["artifacts"]["sqd"]
    )
    assert status == 200 and alias_sqd == sqd
    assert headers.get("Deprecation") == "true"


def test_http_v1_unknown_path_404s(service):
    status, _, _ = _get_with_headers(service.url + "/v1/nowhere")
    assert status == 404
    status, _, _ = _get_with_headers(service.url + "/v1")
    assert status == 404


# --- observability: tracing, readiness, SSE, telemetry -----------------


def test_http_every_response_carries_trace_headers(service):
    for path, expected in (("/v1/healthz", 200), ("/v1/nowhere", 404)):
        status, _, headers = _get_with_headers(service.url + path)
        assert status == expected
        context = api.parse_traceparent(headers.get("traceparent", ""))
        assert context is not None, (path, headers)
        assert headers.get("X-Repro-Trace-Id") == context.trace_id


def test_http_traceparent_continued_through_job_and_trace_endpoint(
    service,
):
    client = api.new_trace_context()
    request = urllib.request.Request(
        service.url + "/v1/jobs",
        data=json.dumps({"specification": "mux21"}).encode(),
        headers={
            "Content-Type": "application/json",
            "traceparent": client.to_traceparent(),
        },
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 202
        echoed = api.parse_traceparent(response.headers["traceparent"])
        job = json.loads(response.read())["job"]
    # The client's trace id is continued (fresh span id) and stamped
    # on the job document.
    assert echoed.trace_id == client.trace_id
    assert echoed.span_id != client.span_id
    assert job["trace_id"] == client.trace_id

    deadline = time.time() + 120
    while job["status"] not in ("done", "failed", "cancelled"):
        assert time.time() < deadline
        time.sleep(0.05)
        _, body = _get(f"{service.url}/v1/jobs/{job['id']}")
        job = json.loads(body)
    assert job["status"] == "done", job

    status, body = _get(f"{service.url}/v1/jobs/{job['id']}/trace")
    document = json.loads(body)
    assert status == 200
    assert document["trace_id"] == client.trace_id
    assert document["job_id"] == job["id"]
    assert document["span"]["attributes"]["trace_id"] == client.trace_id

    status, body = _get(
        f"{service.url}/v1/jobs/{job['id']}/trace?format=chrome"
    )
    assert status == 200 and json.loads(body)["traceEvents"]
    status, body = _get(
        f"{service.url}/v1/jobs/{job['id']}/trace?format=jaeger"
    )
    assert status == 400 and b"unknown trace format" in body


def test_http_trace_endpoint_distinguishes_missing_traces(service):
    status, body = _get(service.url + "/v1/jobs/j-nonexistent/trace")
    assert status == 404

    # A cache hit executes nothing, so there is no span to serve.
    status, document = _post(
        service.url + "/v1/jobs", {"specification": "mux21"}
    )
    assert status == 202 and document["job"]["cache_hit"]
    status, body = _get(
        f"{service.url}/v1/jobs/{document['job']['id']}/trace"
    )
    assert status == 404 and b"cache hit" in body


def test_http_readyz_reflects_draining(service):
    status, body = _get(service.url + "/v1/readyz")
    document = json.loads(body)
    assert status == 200
    assert document["ready"] is True and document["reasons"] == []
    assert document["store_writable"] is True
    scheduler = service.scheduler
    with scheduler._lock:
        scheduler._draining = True
    try:
        status, body = _get(service.url + "/v1/readyz")
        document = json.loads(body)
        assert status == 503 and document["ready"] is False
        assert any("draining" in reason for reason in document["reasons"])
    finally:
        with scheduler._lock:
            scheduler._draining = False


def test_http_events_streams_recorded_events(service):
    obs.record_event("test.ping", detail=7)
    status, body, headers = _get_with_headers(
        service.url + "/v1/events?replay=64&max_events=1"
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/event-stream")
    frames = body.decode("utf-8").strip().split("\n\n")
    assert frames and frames[0].startswith("event: ")
    _, data_line = frames[0].split("\n", 1)
    payload = json.loads(data_line[len("data: "):])
    assert set(payload) == {"name", "timestamp", "attributes"}

    status, body, _ = _get_with_headers(
        service.url + "/v1/events?replay=banana"
    )
    assert status == 400


def test_http_metrics_parse_strictly(service):
    from tests.promparse import parse_exposition

    status, body = _get(service.url + "/v1/metrics")
    assert status == 200
    families = parse_exposition(body.decode("utf-8"))
    requests_family = families["repro_service_http_requests_total"]
    assert requests_family.kind == "counter"
    routes = {labels["route"] for _, labels, _ in requests_family.samples}
    assert "/v1/healthz" in routes
    assert families["repro_service_queue_depth"].kind == "gauge"
    assert families["repro_service_uptime_seconds"].samples[0][2] >= 0
    latency = families["repro_service_http_request_seconds"]
    assert latency.kind == "summary"
    assert all(family.help for family in families.values())


def test_route_pattern_bounds_cardinality():
    from repro.service import route_pattern

    assert route_pattern("/v1/jobs") == "/v1/jobs"
    assert route_pattern("/v1/jobs/j-0abc12de/trace?format=chrome") == (
        "/v1/jobs/:id/trace"
    )
    assert route_pattern(f"/v1/artifacts/{'0' * 64}/design.sqd") == (
        "/v1/artifacts/:id/design.sqd"
    )
    assert route_pattern("/") == "/"
    assert route_pattern("/healthz/") == "/healthz"


def test_http_metrics_counters_and_errors():
    from tests.promparse import parse_exposition

    from repro.obs.export import Exposition
    from repro.service import HttpMetrics

    metrics = HttpMetrics()
    metrics.record("GET", "/v1/jobs", 200, 0.01)
    metrics.record("GET", "/v1/jobs", 200, 0.03)
    metrics.record("POST", "/v1/jobs", 500, 0.02)
    snapshot = metrics.snapshot()
    assert snapshot["requests"]["GET /v1/jobs 200"] == 2
    assert snapshot["errors"]["POST /v1/jobs"] == 1
    exposition = Exposition()
    metrics.render_into(exposition)
    families = parse_exposition(exposition.render())
    samples = families["repro_service_http_requests_total"].samples
    assert (
        "repro_service_http_requests_total",
        {"method": "GET", "route": "/v1/jobs", "status": "200"},
        2.0,
    ) in samples
    errors = families["repro_service_http_errors_total"].samples
    assert errors == [
        (
            "repro_service_http_errors_total",
            {"method": "POST", "route": "/v1/jobs"},
            1.0,
        )
    ]
    count_samples = [
        (labels["route"], value)
        for name, labels, value in families[
            "repro_service_http_request_seconds"
        ].samples
        if name == "repro_service_http_request_seconds_count"
    ]
    assert ("/v1/jobs", 3.0) in count_samples


def test_telemetry_sampler_publishes_scheduler_gauges():
    from tests.promparse import parse_exposition

    from repro.obs.export import Exposition
    from repro.service import TelemetrySampler

    class FakeScheduler:
        def stats(self):
            return {
                "workers": 4,
                "workers_alive": 4,
                "workers_busy": 3,
                "workers_respawned": 1,
                "queued": 7,
                "inflight": 9,
                "uptime_seconds": 12.5,
                "draining": True,
            }

    sampler = TelemetrySampler(FakeScheduler(), interval=3600.0)
    sampler.sample()
    gauges = sampler.gauges()
    assert gauges["queue_depth"] == 7.0
    assert gauges["worker_utilization"] == 0.75
    assert gauges["draining"] == 1.0
    exposition = Exposition()
    sampler.render_into(exposition)
    families = parse_exposition(exposition.render())
    assert families["repro_service_inflight_jobs"].samples[0][2] == 9.0
    assert families["repro_service_workers_respawned"].samples[0][2] == 1.0


def test_digest_covers_timing_flag():
    base = design_digest(benchmark_verilog("xor2"), "xor2")
    timed = design_digest(
        benchmark_verilog("xor2"),
        "xor2",
        api.FlowConfiguration(timing=True),
    )
    assert base != timed
    normalized = normalize_configuration(api.FlowConfiguration(timing=True))
    assert normalized["timing"] is True
    rebuilt = configuration_from_normalized(normalized)
    assert rebuilt.timing is True
