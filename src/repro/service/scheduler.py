"""Concurrent job scheduler for the design service.

Jobs -- one flow execution per :func:`~repro.service.digest.design_digest`
-- run on a **persistent warm worker pool**: N long-lived worker
processes that import :mod:`repro` and load the gate library once, pull
tasks off a shared :mod:`multiprocessing` queue, and ship results back
over per-worker pipes.  Interpreter + import + gate-library startup
(~0.3 s, which dwarfs a small design flow) is paid once per worker
instead of once per job, while the crash-isolation boundary stays: a
dead worker is detected by its watcher, the job it was running is
FAILED with the exit code (or CANCELLED during shutdown), and the
worker is respawned.

Workers use the ``spawn`` start method.  The scheduler's parent process
is heavily threaded (HTTP handlers, the dispatcher, per-worker
watchers), and forking a threaded process can deadlock the child on
locks held mid-fork -- ``spawn`` gives every worker a clean
interpreter.

The scheduler layers these behaviors over the raw pool:

* **cache short-circuit** -- a digest already in the artifact store
  completes instantly as a cache hit, no task dispatched;
* **in-flight deduplication** -- submissions of a digest that is
  already queued or running *attach* to the existing job instead of
  executing the flow twice; an attached submission with a higher
  priority lifts the queued job to that priority;
* **admission control** -- at most ``max_queued`` jobs wait in the
  priority queue; beyond that :meth:`~JobScheduler.submit` raises
  :class:`QueueFullError` (HTTP 429 upstream) with a backlog-derived
  ``retry_after_seconds``;
* **priorities and timeouts** -- higher-priority jobs dispatch first;
  a job exceeding its timeout has its worker terminated (and
  respawned) and is reported as a timeout;
* **bounded retention** -- only the most recent ``retain_jobs``
  terminal jobs stay in the job table; evicted ids answer
  :meth:`~JobScheduler.evicted` so the HTTP API can 404 them
  distinctly;
* **graceful drain** -- ``close(drain=True, drain_timeout=...)`` stops
  admissions, lets admitted jobs finish up to the deadline, then
  cancels the stragglers cleanly (CANCELLED, never a fake crash);
* **observability merge** -- each worker runs tasks under
  :func:`repro.sidb.parallel._captured_call` span capture and ships
  its span tree back; the parent merges it into the scheduler's
  service-level telemetry span (and into the process-wide recorder
  when one is recording), so ``GET /metrics`` aggregates over
  everything the service executed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.networks.xag import Xag
from repro.obs import Span
from repro.obs import log as obs_log
from repro.obs.export import Exposition, SpanAggregate
from repro.service.digest import (
    configuration_from_normalized,
    design_digest,
    normalize_configuration,
)
from repro.service.store import ArtifactStore, build_payload
from repro.sidb.parallel import _captured_call

#: Version stamp of the job documents served by the ``/v1`` JSON API
#: (:meth:`Job.to_dict`).  Bump on any breaking change to the document
#: layout; additive fields do not bump it.
JOB_SCHEMA_VERSION = 1

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: How long a terminated worker gets to exit before SIGKILL.
_TERMINATE_GRACE_SECONDS = 5.0

#: Terminal jobs kept in the in-memory table (oldest evicted first).
DEFAULT_RETAIN_JOBS = 1024

#: Worker span trees kept verbatim under the telemetry span; older
#: ones fold into a :class:`~repro.obs.export.SpanAggregate` so
#: ``/v1/metrics`` stays lossless while memory and render time stay
#: bounded.
DEFAULT_RETAIN_SPANS = 256

#: Evicted job ids remembered for distinct 404s (bounded, drop-oldest).
_EVICTED_MEMORY = 4096

#: Worker processes use the spawn start method -- see the module
#: docstring.  A clean interpreter per worker is the thread-safe
#: choice for a threaded parent, and makes per-worker startup cost an
#: explicit, amortized quantity instead of hidden fork inheritance.
_MP_CONTEXT = multiprocessing.get_context("spawn")

# Clock seams.  Wall-clock timestamps (submitted/started/finished) are
# what the JSON API reports; *durations* must come from the monotonic
# clock so an NTP step can never produce negative or garbage values.
# Module-level indirection keeps both patchable in regression tests.
_wall_time = time.time
_mono_time = time.monotonic

_LOG = obs_log.get_logger("service.scheduler")


class QueueFullError(RuntimeError):
    """``submit()`` rejected: the admission queue is at ``max_queued``.

    ``retry_after_seconds`` estimates when a slot should free up
    (backlog x mean job duration / workers); the HTTP front end turns
    it into a ``Retry-After`` header on a 429 response.
    """

    def __init__(self, message: str, retry_after_seconds: float = 1.0):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


@dataclass
class Job:
    """One design request tracked by the scheduler."""

    id: str
    digest: str
    name: str | None
    priority: int = 0
    timeout: float | None = None
    status: str = QUEUED
    cache_hit: bool = False
    #: How many later submissions deduplicated onto this job.
    attached: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic start-to-finish seconds (never negative; ``None``
    #: until the job finishes, ``0.0`` for cache hits).
    duration_seconds: float | None = None
    #: Structured failure: ``{"kind": "error"|"crash"|"timeout", ...}``.
    error: dict | None = None
    summary: str | None = None
    engine: str | None = None
    worker_pid: int | None = None
    #: W3C trace id of the request that created the job (stamped on
    #: the HTTP response, the job document, logs and the worker span).
    trace_id: str | None = None
    _cancel_requested: bool = field(default=False, repr=False)
    #: The merged worker span tree, while the job is retained.
    _span: Span | None = field(default=None, repr=False)
    _dispatched: bool = field(default=False, repr=False)
    _started_monotonic: float | None = field(default=None, repr=False)
    _done_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done_event.wait(timeout)

    def to_dict(self) -> dict:
        """JSON-ready view for the HTTP API and the CLI."""
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "id": self.id,
            "digest": self.digest,
            "name": self.name,
            "priority": self.priority,
            "timeout": self.timeout,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "attached": self.attached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_seconds": self.duration_seconds,
            "error": self.error,
            "summary": self.summary,
            "engine": self.engine,
            "trace_id": self.trace_id,
        }


def _execute_task(task: dict) -> dict:
    """Run one flow in the worker process; returns a picklable payload."""
    configuration = configuration_from_normalized(task["configuration"])
    specification = task["specification"]
    if "xag" in specification:
        spec: str | Xag = Xag.from_dict(specification["xag"])
    else:
        spec = specification["verilog"]
    result = design_sidb_circuit(spec, task.get("name"), configuration)
    return build_payload(
        result, task["configuration"], source=specification.get("verilog")
    )


def _warm_worker_state() -> None:
    """Load the per-process heavy state once, at worker boot.

    Imports of the flow stack already happened when this module was
    imported by the spawned interpreter; constructing the gate library
    and the synthesis database here warms their file/derived caches so
    the first job pays no more than the steady state.
    """
    from repro.gatelib.library import BestagonLibrary
    from repro.synthesis.database import NpnDatabase

    BestagonLibrary()
    NpnDatabase()


def _pool_worker_main(task_queue, conn, log_config=None) -> None:
    """Long-lived pool worker: crash-isolated, span-captured.

    Pulls task dictionaries off ``task_queue`` until it sees the
    ``None`` sentinel, announcing each pickup with a ``start`` event so
    the parent can attribute the job (and enforce its timeout) before
    shipping the ``done`` event with payload/span/pid.  ``log_config``
    re-creates the parent's structured-logging setup in this process
    (workers write to the inherited stderr); each job runs with its
    ``trace_id``/``job_id`` bound so every flow-step log line is
    correlated across the process boundary.
    """
    obs_log.apply_worker_config(log_config)
    worker_log = obs_log.get_logger("service.worker")
    try:
        _warm_worker_state()
    except Exception:  # pragma: no cover - preload is best-effort
        pass
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            conn.send(
                {
                    "event": "start",
                    "job_id": task["job_id"],
                    "pid": os.getpid(),
                }
            )
            with obs_log.bind(
                trace_id=task.get("trace_id"), job_id=task["job_id"]
            ):
                worker_log.debug("job.picked_up")
                try:
                    payload, span_dict, pid = _captured_call(
                        _execute_task, task
                    )
                    message = {
                        "event": "done",
                        "job_id": task["job_id"],
                        "status": "ok",
                        "payload": payload,
                        "span": span_dict,
                        "pid": pid,
                    }
                    worker_log.debug("job.executed", status="ok")
                except BaseException as error:  # report, never crash
                    message = {
                        "event": "done",
                        "job_id": task["job_id"],
                        "status": "error",
                        "error": {
                            "kind": "error",
                            "type": type(error).__name__,
                            "message": str(error),
                        },
                        "span": None,
                        "pid": os.getpid(),
                    }
                    worker_log.warning(
                        "job.executed",
                        status="error",
                        error_type=type(error).__name__,
                    )
            conn.send(message)
    finally:
        conn.close()


class _PoolWorker:
    """Parent-side record of one pool worker process."""

    _ids = itertools.count(1)

    def __init__(self, process, receiver):
        self.index = next(self._ids)
        self.process = process
        self.receiver = receiver
        self.thread: threading.Thread | None = None
        #: The job this worker announced via its ``start`` event.
        self.job: Job | None = None
        #: Monotonic deadline of the current job (timeout enforcement).
        self.deadline: float | None = None
        self.timed_out = False


class JobScheduler:
    """Submit/status/result/cancel queue over a warm worker pool."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        default_timeout: float | None = None,
        *,
        max_queued: int | None = None,
        retain_jobs: int = DEFAULT_RETAIN_JOBS,
        retain_spans: int = DEFAULT_RETAIN_SPANS,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        if retain_jobs < 1:
            raise ValueError(f"retain_jobs must be >= 1, got {retain_jobs}")
        if retain_spans < 1:
            raise ValueError(
                f"retain_spans must be >= 1, got {retain_spans}"
            )
        self.store = store
        self.workers = workers
        self.default_timeout = default_timeout
        self.max_queued = max_queued
        self.retain_jobs = retain_jobs
        self.retain_spans = retain_spans
        #: Service-level telemetry: per-job worker spans merge in here;
        #: ``GET /metrics`` renders it with :func:`obs.to_prometheus`.
        self.telemetry = Span("service")
        #: Metrics of worker spans evicted from ``telemetry.children``
        #: by the ``retain_spans`` bound (lossless aggregation).
        self._span_overflow = SpanAggregate()
        self._lock = threading.RLock()
        self._condition = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._by_digest: dict[str, Job] = {}
        self._heap: list[tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._queued = 0
        #: Dispatched-but-unfinished jobs (handed to the task queue).
        self._inflight: dict[str, Job] = {}
        self._workers: list[_PoolWorker] = []
        self._task_queue = _MP_CONTEXT.Queue()
        self._terminal_order: deque[str] = deque()
        self._evicted_order: deque[str] = deque()
        self._evicted_ids: set[str] = set()
        self._jobs_evicted = 0
        self._jobs_rejected = 0
        self._workers_respawned = 0
        self._duration_sum = 0.0
        self._duration_count = 0
        self._started_monotonic = _mono_time()
        self._draining = False
        self._stopping = False
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # --- submission API ------------------------------------------------
    def submit(
        self,
        specification: str | Xag,
        *,
        name: str | None = None,
        configuration: FlowConfiguration | None = None,
        priority: int = 0,
        timeout: float | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Enqueue one design request; returns its (possibly shared) job.

        ``specification`` is Verilog source text or an :class:`Xag`
        (resolve benchmark names / file paths before calling, e.g. via
        :func:`repro.api.load_specification`).  ``trace_id`` is the
        W3C trace id of the originating request; it is stamped on the
        job document, the worker's span tree and every correlated log
        line.  May raise
        :class:`~repro.service.digest.UncacheableConfigurationError`
        for configurations that cannot be digested,
        :class:`QueueFullError` when the admission queue is at
        ``max_queued``, and :class:`RuntimeError` once the scheduler is
        draining or shut down.
        """
        config = configuration or FlowConfiguration()
        normalized = normalize_configuration(config)
        digest = design_digest(specification, name, config)
        if isinstance(specification, Xag):
            task_spec: dict = {"xag": specification.to_dict()}
            display_name = name or specification.name
        else:
            task_spec = {"verilog": specification}
            display_name = name
        if timeout is None:
            timeout = self.default_timeout

        with self._condition:
            if self._stopping:
                raise RuntimeError("scheduler is shut down")
            if self._draining:
                raise RuntimeError(
                    "scheduler is draining, not accepting new jobs"
                )
            active = self._by_digest.get(digest)
            if active is not None and not active.finished:
                active.attached += 1
                if priority > active.priority:
                    # A deduplicated submission lifts the queued job to
                    # the highest attached priority -- otherwise a
                    # priority-10 submission deduped onto a priority-0
                    # job would wait behind everything (inversion).
                    active.priority = priority
                    if active.status == QUEUED and not active._dispatched:
                        heapq.heappush(
                            self._heap,
                            (-priority, next(self._sequence), active),
                        )
                        self._condition.notify_all()
                self.telemetry.add("service.jobs_deduplicated")
                _LOG.debug(
                    "job.attached",
                    job_id=active.id,
                    digest=digest[:12],
                    attached=active.attached,
                    trace_id=trace_id,
                )
                return active

            manifest = self.store.manifest(digest)
            if (
                manifest is None
                and self.max_queued is not None
                and self._queued >= self.max_queued
            ):
                retry_after = self._retry_after_locked()
                self._jobs_rejected += 1
                self.telemetry.add("service.jobs_rejected")
                _LOG.warning(
                    "job.rejected",
                    digest=digest[:12],
                    queued=self._queued,
                    max_queued=self.max_queued,
                    retry_after_seconds=retry_after,
                    trace_id=trace_id,
                )
                obs.record_event(
                    "job.rejected", digest=digest[:12], queued=self._queued
                )
                raise QueueFullError(
                    f"admission queue is full "
                    f"({self._queued}/{self.max_queued} queued); "
                    f"retry in ~{retry_after:.0f} s",
                    retry_after_seconds=retry_after,
                )

            job = Job(
                id=f"j-{uuid.uuid4().hex[:12]}",
                digest=digest,
                name=display_name,
                priority=priority,
                timeout=timeout,
                submitted_at=_wall_time(),
                trace_id=trace_id,
            )
            self._jobs[job.id] = job
            self.telemetry.add("service.jobs_submitted")
            _LOG.info(
                "job.submitted",
                job_id=job.id,
                digest=digest[:12],
                name=display_name,
                priority=priority,
                trace_id=trace_id,
            )
            obs.record_event(
                "job.submitted", job_id=job.id, trace_id=trace_id
            )

            if manifest is not None:
                job.status = DONE
                job.cache_hit = True
                job.finished_at = job.submitted_at
                job.duration_seconds = 0.0
                job.summary = manifest.get("summary")
                job.engine = manifest.get("engine")
                if job.name is None:
                    job.name = manifest.get("name")
                job._done_event.set()
                self.telemetry.add("service.cache_hits")
                _LOG.info(
                    "job.finished",
                    job_id=job.id,
                    status=DONE,
                    cache_hit=True,
                    trace_id=trace_id,
                )
                obs.record_event(
                    "job.finished", job_id=job.id, status=DONE,
                    cache_hit=True,
                )
                self._remember_terminal_locked(job)
                return job

            job._task = {  # type: ignore[attr-defined]
                "job_id": job.id,
                "specification": task_spec,
                "name": name,
                "configuration": normalized,
                "trace_id": trace_id,
            }
            self._by_digest[digest] = job
            self._queued += 1
            heapq.heappush(
                self._heap, (-priority, next(self._sequence), job)
            )
            self._condition.notify_all()
            return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def evicted(self, job_id: str) -> bool:
        """Whether a job id was dropped by bounded retention."""
        with self._lock:
            return job_id in self._evicted_ids

    def job_trace(self, job_id: str) -> Span | None:
        """The merged worker span tree captured for a retained job.

        ``None`` for unknown/evicted jobs, jobs that have not finished,
        cache hits (nothing executed), and failure modes where the
        worker could not ship a span (crash, timeout, cancellation).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            return job._span if job is not None else None

    def jobs(self) -> list[Job]:
        """All retained jobs, most recently submitted first."""
        with self._lock:
            return sorted(
                self._jobs.values(),
                key=lambda job: job.submitted_at,
                reverse=True,
            )

    def result(self, job_id: str, timeout: float | None = None):
        """Block until the job finishes; returns the hydrated result.

        ``None`` when the job failed/was cancelled or the wait timed
        out.
        """
        job = self.job(job_id)
        if job is None:
            return None
        if not job.wait(timeout):
            return None
        if job.status != DONE:
            return None
        return self.store.load_result(job.digest)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; ``False`` if already final."""
        with self._condition:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return False
            job._cancel_requested = True
            if job.status == QUEUED and not job._dispatched:
                self._finalize_locked(job, CANCELLED)
                self._condition.notify_all()
                return True
            worker = next(
                (w for w in self._workers if w.job is job), None
            )
            process = worker.process if worker is not None else None
        # Running: terminate outside the lock; the watcher finalizes
        # (a dispatched-but-unstarted job is caught at its start event).
        if process is not None:
            process.terminate()
        return True

    def stats(self) -> dict:
        """Queue/pool gauges for ``/healthz`` and ``/metrics``."""
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "workers": self.workers,
                "workers_alive": len(self._workers),
                "workers_busy": sum(
                    1 for worker in self._workers if worker.job is not None
                ),
                "workers_respawned": self._workers_respawned,
                "max_queued": self.max_queued,
                "queued": by_status.get(QUEUED, 0),
                "running": by_status.get(RUNNING, 0),
                "inflight": len(self._inflight),
                "done": by_status.get(DONE, 0),
                "failed": by_status.get(FAILED, 0),
                "cancelled": by_status.get(CANCELLED, 0),
                "jobs_total": len(self._jobs),
                "jobs_evicted": self._jobs_evicted,
                "jobs_rejected": self._jobs_rejected,
                "uptime_seconds": max(
                    0.0, _mono_time() - self._started_monotonic
                ),
                "draining": self._draining,
            }

    def telemetry_prometheus(self) -> str:
        """The service telemetry span as Prometheus text exposition.

        Worker spans evicted from the retained window (``retain_spans``)
        were folded into an aggregate at eviction time, so the rendered
        totals cover every job the service ever executed.
        """
        exposition = Exposition()
        self.render_telemetry_into(exposition)
        return exposition.render()

    def render_telemetry_into(self, exposition: Exposition) -> None:
        """Emit the scheduler's metric families into ``exposition``."""
        with self._lock:
            aggregate = SpanAggregate()
            aggregate.merge(self._span_overflow)
            aggregate.update(self.telemetry)
        aggregate.render_into(exposition, "repro_service")

    def close(
        self,
        cancel_running: bool = True,
        *,
        drain: bool = False,
        drain_timeout: float | None = None,
    ) -> None:
        """Stop the scheduler.

        ``drain=True`` stops admissions first (submissions raise, HTTP
        answers 503), lets every already-admitted job -- queued and
        running -- finish for up to ``drain_timeout`` seconds
        (indefinitely when ``None``), then cancels whatever remains.
        Without ``drain``, queued jobs are cancelled immediately and
        in-flight workers are terminated when ``cancel_running`` is
        true; their jobs finalize as CANCELLED, never as a crash.
        """
        with self._condition:
            if self._closed:
                return
            if drain and not self._stopping:
                self._draining = True
                _LOG.info(
                    "scheduler.draining",
                    queued=self._queued,
                    inflight=len(self._inflight),
                    drain_timeout=drain_timeout,
                )
                obs.record_event(
                    "scheduler.draining",
                    queued=self._queued,
                    inflight=len(self._inflight),
                )
                self._condition.notify_all()
        if drain:
            deadline = (
                None
                if drain_timeout is None
                else _mono_time() + drain_timeout
            )
            with self._condition:
                while self._heap or self._inflight:
                    if deadline is not None and _mono_time() >= deadline:
                        break
                    self._condition.wait(timeout=0.05)
            cancel_running = True  # stragglers past the deadline

        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
            self._draining = False
            _LOG.info(
                "scheduler.stopping",
                queued=self._queued,
                inflight=len(self._inflight),
            )
            obs.record_event("scheduler.stopping")
            while self._heap:
                job = heapq.heappop(self._heap)[2]
                if not job.finished and not job._dispatched:
                    job._cancel_requested = True
                    self._finalize_locked(job, CANCELLED)
            if cancel_running:
                for job in self._inflight.values():
                    # Mark cancellation *before* terminating, so the
                    # watcher finalizes CANCELLED instead of reporting
                    # a scary crash with an exit code.
                    job._cancel_requested = True
            busy = [w for w in self._workers if w.job is not None]
            workers = list(self._workers)
            self._condition.notify_all()

        # Wake idle workers so they exit; the sentinels queue behind
        # any still-undelivered tasks, whose jobs are already marked
        # cancel-requested and get terminated at their start event.
        for _ in range(max(len(workers), 1)):
            try:
                self._task_queue.put(None)
            except (ValueError, OSError):  # queue already closed
                break
        if cancel_running:
            for worker in busy:
                worker.process.terminate()
            for worker in workers:
                worker.process.join(_TERMINATE_GRACE_SECONDS)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
            for worker in workers:
                if (
                    worker.thread is not None
                    and worker.thread is not threading.current_thread()
                ):
                    worker.thread.join(timeout=_TERMINATE_GRACE_SECONDS)
        self._dispatcher.join(timeout=5.0)
        with self._condition:
            if cancel_running:
                for job in list(self._inflight.values()):
                    if not job.finished:
                        self._finalize_locked(job, CANCELLED)
            self._workers.clear()
            self._condition.notify_all()
        if cancel_running:
            self._task_queue.cancel_join_thread()
            self._task_queue.close()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- dispatch ------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._condition:
                while not self._stopping and not (
                    self._heap and len(self._inflight) < self.workers
                ):
                    self._condition.wait(timeout=0.5)
                if self._stopping:
                    return
                job = heapq.heappop(self._heap)[2]
                if job.finished or job._dispatched:
                    # Stale entry: cancelled while queued, or the
                    # lower-priority duplicate left by a priority bump.
                    continue
                job._dispatched = True
                self._queued = max(0, self._queued - 1)
                self._inflight[job.id] = job
                task = job._task  # type: ignore[attr-defined]
                self._ensure_workers_locked(len(self._inflight))
                _LOG.debug(
                    "job.dispatched",
                    job_id=job.id,
                    priority=job.priority,
                    trace_id=job.trace_id,
                )
            self._task_queue.put(task)

    def _ensure_workers_locked(self, needed: int) -> None:
        """Spawn workers lazily, up to ``min(self.workers, needed)``."""
        target = min(self.workers, needed)
        while len(self._workers) < target:
            self._spawn_worker_locked()

    def _spawn_worker_locked(self, respawn: bool = False) -> None:
        receiver, sender = _MP_CONTEXT.Pipe(duplex=False)
        worker = _PoolWorker(None, receiver)
        process = _MP_CONTEXT.Process(
            target=_pool_worker_main,
            args=(self._task_queue, sender, obs_log.worker_config()),
            name=f"repro-pool-{worker.index}",
            daemon=True,
        )
        worker.process = process
        process.start()
        sender.close()
        worker.thread = threading.Thread(
            target=self._watch_worker,
            args=(worker,),
            name=f"repro-pool-watch-{worker.index}",
            daemon=True,
        )
        self._workers.append(worker)
        self.telemetry.add("service.workers_spawned")
        if respawn:
            self._workers_respawned += 1
        _LOG.info(
            "worker.spawned",
            worker=worker.index,
            worker_pid=process.pid,
            respawn=respawn,
        )
        obs.record_event(
            "worker.spawned", worker=worker.index, pid=process.pid
        )
        worker.thread.start()

    # --- worker watchers ----------------------------------------------
    def _watch_worker(self, worker: _PoolWorker) -> None:
        """Await one worker's events: starts, results, death, timeout."""
        receiver = worker.receiver
        while True:
            with self._lock:
                job = worker.job
                deadline = worker.deadline
            timeout = 0.25
            if job is not None and deadline is not None:
                timeout = min(timeout, max(0.0, deadline - _mono_time()))
            try:
                message = (
                    receiver.recv() if receiver.poll(timeout) else None
                )
            except (EOFError, OSError):
                # Pipe EOF without a message: the worker died, was
                # terminated, or exited cleanly (sentinel).
                self._worker_exited(worker)
                return
            if message is None:
                if not worker.process.is_alive():
                    self._worker_exited(worker)
                    return
                if (
                    job is not None
                    and deadline is not None
                    and _mono_time() >= deadline
                    and not worker.timed_out
                ):
                    worker.timed_out = True
                    worker.process.terminate()
                continue
            event = message.get("event")
            if event == "start":
                self._worker_started(worker, message)
            elif event == "done":
                self._worker_finished(worker, message)

    def _worker_started(self, worker: _PoolWorker, message: dict) -> None:
        terminate = False
        with self._condition:
            job = self._jobs.get(message.get("job_id"))
            if job is None or job.finished:
                # A task whose job was finalized during shutdown; the
                # worker must not burn time on it.
                terminate = True
            else:
                worker.job = job
                worker.timed_out = False
                job.status = RUNNING
                job.started_at = _wall_time()
                job._started_monotonic = _mono_time()
                job.worker_pid = message.get("pid")
                worker.deadline = (
                    _mono_time() + job.timeout
                    if job.timeout is not None
                    else None
                )
                if job._cancel_requested or self._stopping:
                    terminate = True
                else:
                    _LOG.info(
                        "job.started",
                        job_id=job.id,
                        worker_pid=job.worker_pid,
                        trace_id=job.trace_id,
                    )
                    obs.record_event(
                        "job.started",
                        job_id=job.id,
                        pid=job.worker_pid,
                        trace_id=job.trace_id,
                    )
        if terminate:
            worker.process.terminate()

    def _worker_finished(self, worker: _PoolWorker, message: dict) -> None:
        with self._condition:
            job = self._jobs.get(message.get("job_id"))
            worker.job = None
            worker.deadline = None
            worker.timed_out = False
            if job is not None and not job.finished:
                span = None
                if message.get("span"):
                    span = Span.from_dict(message["span"])
                    span.set("job", job.id)
                    span.set("digest", job.digest[:12])
                    if job.trace_id is not None:
                        span.set("trace_id", job.trace_id)
                if message.get("status") == "ok":
                    job.worker_pid = message.get("pid", job.worker_pid)
                    payload = message["payload"]
                    job.summary = payload["result"]["summary"]
                    job.engine = payload["result"]["engine_used"]
                    if job.name is None:
                        job.name = payload["result"]["name"]
                    self._finalize_locked(
                        job, DONE, span=span, payload=payload
                    )
                else:
                    job.error = message.get(
                        "error", {"kind": "error", "message": "unknown"}
                    )
                    self._finalize_locked(job, FAILED, span=span)
            self._condition.notify_all()

    def _worker_exited(self, worker: _PoolWorker) -> None:
        """Reap a worker whose pipe closed; finalize its job, respawn."""
        process = worker.process
        process.join(_TERMINATE_GRACE_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()
        try:
            worker.receiver.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._condition:
            if worker in self._workers:
                self._workers.remove(worker)
            job = worker.job
            worker.job = None
            _LOG.info(
                "worker.exited",
                worker=worker.index,
                worker_pid=process.pid,
                exitcode=process.exitcode,
                timed_out=worker.timed_out,
                job_id=job.id if job is not None else None,
            )
            obs.record_event(
                "worker.exited",
                worker=worker.index,
                pid=process.pid,
                exitcode=process.exitcode,
            )
            if job is not None and not job.finished:
                if job._cancel_requested or self._stopping:
                    self._finalize_locked(job, CANCELLED)
                elif worker.timed_out:
                    job.error = {
                        "kind": "timeout",
                        "message": f"exceeded {job.timeout:.1f} s",
                        "timeout_seconds": job.timeout,
                    }
                    self._finalize_locked(job, FAILED)
                else:
                    job.error = {
                        "kind": "crash",
                        "message": (
                            "worker process died without reporting "
                            f"(exit code {process.exitcode})"
                        ),
                        "exitcode": process.exitcode,
                    }
                    self._finalize_locked(job, FAILED)
                    self.telemetry.add("service.workers_crashed")
            # Respawn when admitted work still needs a worker (the dead
            # one crashed, or was terminated on a timeout or cancel).
            pending = bool(self._heap) or any(
                inflight.status == QUEUED
                for inflight in self._inflight.values()
            )
            if (
                not self._stopping
                and pending
                and len(self._workers) < self.workers
            ):
                self._spawn_worker_locked(respawn=True)
            self._condition.notify_all()

    # --- finalization --------------------------------------------------
    def _retry_after_locked(self) -> float:
        """Backlog-derived Retry-After estimate in whole seconds."""
        mean = (
            self._duration_sum / self._duration_count
            if self._duration_count
            else 1.0
        )
        backlog = self._queued + len(self._inflight) + 1
        estimate = math.ceil(backlog * max(mean, 0.05) / self.workers)
        return float(min(120, max(1, estimate)))

    def _remember_terminal_locked(self, job: Job) -> None:
        """Track a terminal job; evict beyond the retention cap."""
        self._terminal_order.append(job.id)
        while len(self._terminal_order) > self.retain_jobs:
            oldest = self._terminal_order.popleft()
            if self._jobs.pop(oldest, None) is None:
                continue
            self._evicted_ids.add(oldest)
            self._evicted_order.append(oldest)
            while len(self._evicted_order) > _EVICTED_MEMORY:
                self._evicted_ids.discard(self._evicted_order.popleft())
            self._jobs_evicted += 1
            self.telemetry.add("service.jobs_evicted")

    def _finalize_locked(
        self,
        job: Job,
        status: str,
        span: Span | None = None,
        payload: dict | None = None,
    ) -> None:
        """Transition a job to a terminal state (lock already held)."""
        if job.status == QUEUED and not job._dispatched:
            self._queued = max(0, self._queued - 1)
        self._inflight.pop(job.id, None)
        job.status = status
        job.finished_at = _wall_time()
        if job._started_monotonic is not None:
            # Durations come from the monotonic clock: the wall clock
            # (kept for the JSON API) can step under NTP and would
            # otherwise feed negative values into the histogram.
            job.duration_seconds = max(
                0.0, _mono_time() - job._started_monotonic
            )
        self._by_digest.pop(job.digest, None)
        self.telemetry.add(f"service.jobs_{status}")
        if job.duration_seconds is not None:
            self.telemetry.observe(
                "service.job_seconds", job.duration_seconds
            )
            self._duration_sum += job.duration_seconds
            self._duration_count += 1
        if span is not None:
            span.set("status", status)
            job._span = span
            self.telemetry.children.append(span)
            # Bound the retained window: old spans fold into the
            # overflow aggregate, so /v1/metrics keeps their totals
            # while render time and memory stay O(retain_spans).
            while len(self.telemetry.children) > self.retain_spans:
                self._span_overflow.update(self.telemetry.children.pop(0))
            if obs.enabled():
                obs.recorder().roots.append(span)
        _LOG.info(
            "job.finished",
            job_id=job.id,
            status=status,
            duration_seconds=job.duration_seconds,
            worker_pid=job.worker_pid,
            error_kind=(job.error or {}).get("kind"),
            trace_id=job.trace_id,
        )
        obs.record_event(
            "job.finished",
            job_id=job.id,
            status=status,
            trace_id=job.trace_id,
        )
        if payload is not None:
            # Persisting can do real I/O but finalize order must hold
            # the lock anyway (dedup map + telemetry); entries are a
            # few hundred KB, so this stays short.
            self.store.put_payload(job.digest, payload)
        job._done_event.set()
        self._remember_terminal_locked(job)
