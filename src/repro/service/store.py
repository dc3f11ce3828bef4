"""Content-addressed persistent store for design artifacts.

One entry per :func:`~repro.service.digest.design_digest`, holding the
artifacts a :class:`~repro.flow.design_flow.DesignResult` decomposes
into -- the ``.sqd`` document (byte-identical on every future hit), the
gate-level layout JSON, the observability trace, the defect report and
a structural ``result.json`` -- plus a manifest with per-file SHA-256
checksums.

Durability properties:

* **atomic writes** -- an entry is staged in a temporary directory and
  renamed into place, so readers never observe a half-written entry and
  concurrent writers of the same digest resolve to one winner;
* **integrity re-verification** -- every read re-hashes the files
  against the manifest; a corrupted entry is evicted and reported as a
  miss instead of served;
* **LRU size cap** -- entries carry a last-access stamp (the manifest
  mtime) and the least recently used ones are evicted when the store
  grows past ``max_bytes``.

A small in-memory memo of hydrated results sits in front of the disk
layer, so a warm service process answers repeat hits without touching
the filesystem at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.defects.aware import DefectAwareReport
from repro.flow.design_flow import DesignResult
from repro.layout.serialize import layout_from_json, layout_to_json
from repro.layout.supertile import merge_into_supertiles
from repro.networks.logic_network import LogicNetwork
from repro.networks.xag import Xag
from repro.obs.render import trace_from_json, trace_to_json
from repro.sqd.sqd import read_sqd
from repro.tech.design_rules import DesignRules, DesignRuleViolation
from repro.timing.sta import TimingReport
from repro.verification.equivalence import EquivalenceResult

#: Bump when the on-disk entry layout changes; old entries are ignored.
STORE_FORMAT_VERSION = 1

#: Default size cap of the on-disk store.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Canonical artifact file names inside one entry.
ARTIFACT_SQD = "design.sqd"
ARTIFACT_LAYOUT = "layout.json"
ARTIFACT_TRACE = "trace.json"
ARTIFACT_RESULT = "result.json"
ARTIFACT_DEFECTS = "defects.json"
ARTIFACT_SPEC = "spec.v"
MANIFEST_NAME = "manifest.json"

#: Artifact names servable over ``GET /artifacts/<digest>/<name>``.
SERVABLE_ARTIFACTS = (
    ARTIFACT_SQD,
    ARTIFACT_LAYOUT,
    ARTIFACT_TRACE,
    ARTIFACT_RESULT,
    ARTIFACT_DEFECTS,
    ARTIFACT_SPEC,
)


def default_store_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/designs``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "designs"


def build_payload(
    result: DesignResult,
    normalized_configuration: dict,
    source: str | None = None,
) -> dict:
    """Decompose a finished result into the persistable artifact set.

    The payload is pure strings/dicts (picklable), so service worker
    processes can ship it back to the parent, which stores it.
    """
    record = {
        "name": result.name,
        "engine_used": result.engine_used,
        "runtime_seconds": result.runtime_seconds,
        "summary": result.summary(),
        # The structured, schema_version-stamped result document
        # (:meth:`DesignResult.report`); carries the timing report.
        "report": result.report(),
        "equivalence": None
        if result.equivalence is None
        else {
            "equivalent": result.equivalence.equivalent,
            "counterexample": result.equivalence.counterexample,
            "conflicts": result.equivalence.conflicts,
            "undecided": result.equivalence.undecided,
        },
        "drc_violations": [
            {
                "rule": violation.rule,
                "message": violation.message,
                "location": None
                if violation.location is None
                else str(violation.location),
            }
            for violation in result.drc_violations
        ],
        "specification": result.specification.to_dict(),
        "optimized": result.optimized.to_dict(),
        "mapped": result.mapped.to_dict(),
        "configuration": normalized_configuration,
        "defect_report": None
        if result.defect_report is None
        else result.defect_report.to_dict(),
    }
    defects = normalized_configuration.get("defects")
    return {
        "result": record,
        "sqd": result.to_sqd(),
        "layout_json": layout_to_json(result.layout),
        "trace_json": None
        if result.trace is None
        else trace_to_json(result.trace),
        "defects_json": None
        if not defects
        else json.dumps({"defects": defects}, indent=1),
        "source": source,
    }


def hydrate_payload(payload: dict) -> DesignResult:
    """Rebuild a :class:`DesignResult` from a stored payload.

    Every field is reconstructed from the persisted artifacts (the
    cheap super-tile merge is recomputed from the layout); the ``sqd``
    text is returned verbatim, so hits are byte-identical to the run
    that populated the entry.
    """
    record = payload["result"]
    layout = layout_from_json(payload["layout_json"])
    rules_record = record["configuration"]["design_rules"]
    rules = DesignRules(
        min_metal_pitch_nm=rules_record["min_metal_pitch_nm"],
        min_canvas_separation_nm=rules_record["min_canvas_separation_nm"],
        tile_height_nm=rules_record["tile_height_nm"],
    )
    equivalence = None
    if record["equivalence"] is not None:
        eq = record["equivalence"]
        equivalence = EquivalenceResult(
            equivalent=eq["equivalent"],
            counterexample=eq["counterexample"],
            conflicts=eq["conflicts"],
            undecided=eq["undecided"],
        )
    return DesignResult(
        name=record["name"],
        specification=Xag.from_dict(record["specification"]),
        optimized=Xag.from_dict(record["optimized"]),
        mapped=LogicNetwork.from_dict(record["mapped"]),
        layout=layout,
        supertiles=merge_into_supertiles(layout, rules),
        sidb_layout=read_sqd(payload["sqd"]),
        equivalence=equivalence,
        drc_violations=[
            DesignRuleViolation(
                violation["rule"], violation["message"], violation["location"]
            )
            for violation in record["drc_violations"]
        ],
        engine_used=record["engine_used"],
        runtime_seconds=record["runtime_seconds"],
        sqd=payload["sqd"],
        trace=None
        if payload.get("trace_json") is None
        else trace_from_json(payload["trace_json"]),
        defect_report=None
        if record["defect_report"] is None
        else DefectAwareReport.from_dict(record["defect_report"]),
        timing=None
        if (record.get("report") or {}).get("timing") is None
        else TimingReport.from_dict(record["report"]["timing"]),
        from_cache=True,
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Process-wide store instances handed out by :meth:`ArtifactStore.resolve`,
#: keyed by resolved root path (shares memo + stats across calls).
_RESOLVED: dict[str, "ArtifactStore"] = {}
_RESOLVED_LOCK = threading.Lock()


class ArtifactStore:
    """Digest-keyed persistent artifact store with an in-memory memo."""

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        memo_entries: int = 32,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.max_bytes = max_bytes
        self.memo_entries = memo_entries
        self._lock = threading.Lock()
        self._memo: OrderedDict[str, DesignResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.memo_hits = 0
        self.puts = 0
        self.evictions_lru = 0
        self.evictions_corrupt = 0

    @classmethod
    def resolve(
        cls, cache: "ArtifactStore | str | Path | bool"
    ) -> "ArtifactStore":
        """Coerce ``api.design(cache=...)``'s accepted forms to a store.

        ``True`` and path forms return one shared instance per resolved
        root, so repeated ``api.design(cache=...)`` calls in a process
        share the in-memory memo (and its microsecond warm hits)
        instead of re-hydrating from disk every call.
        """
        if isinstance(cache, cls):
            return cache
        if cache is True:
            root = default_store_root()
        elif isinstance(cache, (str, Path)):
            root = Path(cache)
        else:
            raise TypeError(
                f"cache must be an ArtifactStore, a path, or True; "
                f"got {cache!r}"
            )
        key = str(root.expanduser().resolve())
        with _RESOLVED_LOCK:
            store = _RESOLVED.get(key)
            if store is None:
                store = _RESOLVED[key] = cls(root)
        return store

    # --- paths ---------------------------------------------------------
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def entry_dir(self, digest: str) -> Path:
        return self._objects_dir() / digest[:2] / digest

    # --- write ---------------------------------------------------------
    def put_payload(self, digest: str, payload: dict) -> bool:
        """Persist a payload under ``digest``; ``False`` if present.

        The entry is staged under ``root/tmp`` and renamed into place;
        losing a creation race to a concurrent writer counts as stored.
        """
        final = self.entry_dir(digest)
        if (final / MANIFEST_NAME).exists():
            self._memoize_payload(digest, payload)
            return False
        files: dict[str, bytes] = {
            ARTIFACT_SQD: payload["sqd"].encode("utf-8"),
            ARTIFACT_LAYOUT: payload["layout_json"].encode("utf-8"),
            ARTIFACT_RESULT: json.dumps(
                payload["result"], indent=1, sort_keys=True
            ).encode("utf-8"),
        }
        if payload.get("trace_json"):
            files[ARTIFACT_TRACE] = payload["trace_json"].encode("utf-8")
        if payload.get("defects_json"):
            files[ARTIFACT_DEFECTS] = payload["defects_json"].encode("utf-8")
        if payload.get("source"):
            files[ARTIFACT_SPEC] = payload["source"].encode("utf-8")
        manifest = {
            "format": STORE_FORMAT_VERSION,
            "digest": digest,
            "name": payload["result"]["name"],
            "engine": payload["result"]["engine_used"],
            "summary": payload["result"]["summary"],
            "created": time.time(),
            "files": {
                name: {"sha256": _sha256(data), "bytes": len(data)}
                for name, data in files.items()
            },
        }

        tmp_root = self.root / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=digest[:12], dir=tmp_root))
        try:
            for name, data in files.items():
                (staging / name).write_bytes(data)
            (staging / MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=1, sort_keys=True),
                encoding="utf-8",
            )
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, final)
            except OSError:
                # A concurrent writer won the race (or a stale entry
                # occupies the slot): their bytes are ours by digest.
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        with self._lock:
            self.puts += 1
        self._memoize_payload(digest, payload)
        self._enforce_size_cap()
        return True

    def store_result(
        self,
        digest: str,
        result: DesignResult,
        normalized_configuration: dict,
        source: str | None = None,
    ) -> None:
        """Persist a freshly designed result and seed the memo with it."""
        payload = build_payload(result, normalized_configuration, source)
        self.put_payload(digest, payload)
        self._memoize(digest, result)

    # --- read ----------------------------------------------------------
    def manifest(self, digest: str) -> dict | None:
        """The entry's manifest (no artifact integrity check)."""
        path = self.entry_dir(digest) / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if manifest.get("format") != STORE_FORMAT_VERSION:
            return None
        return manifest

    def has(self, digest: str) -> bool:
        with self._lock:
            if digest in self._memo:
                return True
        return self.manifest(digest) is not None

    def read_artifact(self, digest: str, name: str) -> bytes | None:
        """One artifact's bytes, integrity-checked against the manifest."""
        manifest = self.manifest(digest)
        if manifest is None or name not in manifest.get("files", {}):
            return None
        try:
            data = (self.entry_dir(digest) / name).read_bytes()
        except OSError:
            return None
        if _sha256(data) != manifest["files"][name]["sha256"]:
            self._evict_corrupt(digest)
            return None
        return data

    def get_payload(self, digest: str) -> dict | None:
        """The persisted payload, fully re-verified; ``None`` on miss.

        Any integrity failure -- missing file, checksum mismatch --
        evicts the entry and reports a miss, so a bit-flipped artifact
        is re-designed rather than served.
        """
        manifest = self.manifest(digest)
        if manifest is None:
            return None
        if manifest.get("kind") == "blob":
            # Stores written by earlier versions also hold opaque blob
            # entries.  A healthy one is not a design payload: a miss,
            # not corruption -- do not evict.
            return None
        texts: dict[str, str] = {}
        for name, meta in manifest["files"].items():
            try:
                data = (self.entry_dir(digest) / name).read_bytes()
            except OSError:
                self._evict_corrupt(digest)
                return None
            if len(data) != meta["bytes"] or _sha256(data) != meta["sha256"]:
                self._evict_corrupt(digest)
                return None
            texts[name] = data.decode("utf-8")
        try:
            result = json.loads(texts[ARTIFACT_RESULT])
        except (KeyError, ValueError):
            self._evict_corrupt(digest)
            return None
        self._touch(digest)
        return {
            "result": result,
            "sqd": texts[ARTIFACT_SQD],
            "layout_json": texts[ARTIFACT_LAYOUT],
            "trace_json": texts.get(ARTIFACT_TRACE),
            "defects_json": texts.get(ARTIFACT_DEFECTS),
            "source": texts.get(ARTIFACT_SPEC),
        }

    def load_result(self, digest: str) -> DesignResult | None:
        """A hydrated result for ``digest`` (memo first, then disk)."""
        with self._lock:
            cached = self._memo.get(digest)
            if cached is not None:
                self._memo.move_to_end(digest)
                self.memo_hits += 1
                self.hits += 1
                return dataclasses.replace(cached, from_cache=True)
        payload = self.get_payload(digest)
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            result = hydrate_payload(payload)
        except Exception:
            self._evict_corrupt(digest)
            with self._lock:
                self.misses += 1
            return None
        self._memoize(digest, result)
        with self._lock:
            self.hits += 1
        return result

    # --- maintenance ---------------------------------------------------
    def digests(self) -> list[str]:
        """All digests currently on disk (unverified)."""
        objects = self._objects_dir()
        if not objects.is_dir():
            return []
        found = []
        for shard in sorted(objects.iterdir()):
            if shard.is_dir():
                found.extend(
                    entry.name for entry in sorted(shard.iterdir())
                    if entry.is_dir()
                )
        return found

    def total_bytes(self) -> int:
        """Payload bytes on disk, per the manifests."""
        total = 0
        for digest in self.digests():
            manifest = self.manifest(digest)
            if manifest:
                total += sum(
                    meta["bytes"] for meta in manifest["files"].values()
                )
        return total

    def evict(self, digest: str) -> None:
        """Remove one entry from disk and the memo."""
        with self._lock:
            self._memo.pop(digest, None)
        shutil.rmtree(self.entry_dir(digest), ignore_errors=True)

    def clear(self) -> None:
        """Remove every entry (keeps the store usable)."""
        with self._lock:
            self._memo.clear()
        shutil.rmtree(self._objects_dir(), ignore_errors=True)

    def stats(self) -> dict:
        """Counters + sizes for ``/metrics`` and tests."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "memo_hits": self.memo_hits,
                "puts": self.puts,
                "evictions_lru": self.evictions_lru,
                "evictions_corrupt": self.evictions_corrupt,
                "entries": len(self.digests()),
                "bytes": self.total_bytes(),
            }

    # --- internals -----------------------------------------------------
    def _touch(self, digest: str) -> None:
        """Stamp last access (the LRU ordering key) on the manifest."""
        try:
            os.utime(self.entry_dir(digest) / MANIFEST_NAME)
        except OSError:
            pass

    def _memoize(self, digest: str, result: DesignResult) -> None:
        with self._lock:
            self._memo[digest] = result
            self._memo.move_to_end(digest)
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)

    def _memoize_payload(self, digest: str, payload: dict) -> None:
        """Best-effort memo seed from a payload (e.g. a worker's)."""
        try:
            self._memoize(digest, hydrate_payload(payload))
        except Exception:
            pass

    def _evict_corrupt(self, digest: str) -> None:
        with self._lock:
            self._memo.pop(digest, None)
            self.evictions_corrupt += 1
        shutil.rmtree(self.entry_dir(digest), ignore_errors=True)

    def _enforce_size_cap(self) -> None:
        """Evict least-recently-used entries until under ``max_bytes``."""
        entries: list[tuple[float, int, str]] = []
        total = 0
        for digest in self.digests():
            manifest_path = self.entry_dir(digest) / MANIFEST_NAME
            manifest = self.manifest(digest)
            if manifest is None:
                continue
            size = sum(meta["bytes"] for meta in manifest["files"].values())
            try:
                accessed = manifest_path.stat().st_mtime
            except OSError:
                continue
            entries.append((accessed, size, digest))
            total += size
        if total <= self.max_bytes:
            return
        for accessed, size, digest in sorted(entries):
            self.evict(digest)
            with self._lock:
                self.evictions_lru += 1
            total -= size
            if total <= self.max_bytes:
                break
