"""Canonical content digests for design-service cache keys.

A digest identifies *everything* that determines the bytes the flow
produces for a specification: the specification itself (Verilog source
or the structural dump of an :class:`~repro.networks.xag.Xag`), the
normalized :class:`~repro.flow.design_flow.FlowConfiguration`, the
design name (it is embedded in the ``.sqd`` document), and the versions
of the Bestagon gate library and the ``.sqd`` writer.  Two calls with
the same digest are guaranteed to produce byte-identical ``.sqd``
output, so the artifact store may serve one for the other.

Stability guarantee: the digest of a given (specification, name,
configuration) triple only changes when :data:`DIGEST_VERSION`,
:data:`~repro.gatelib.library.GATE_LIBRARY_VERSION` or
:data:`~repro.sqd.sqd.SQD_WRITER_VERSION` is bumped -- i.e. when the
produced artifacts would genuinely differ.  It is safe to persist
digests across processes and machines.

Configurations carrying live objects the digest cannot see through --
a custom NPN database, gate library, or an unregistered clocking
scheme -- raise :class:`UncacheableConfigurationError`; callers fall
back to running the flow uncached.
"""

from __future__ import annotations

import hashlib
import json

from repro.flow.design_flow import FlowConfiguration
from repro.gatelib.library import GATE_LIBRARY_VERSION
from repro.layout.clocking import SCHEMES, scheme_by_name
from repro.networks.xag import Xag
from repro.sqd.sqd import SQD_WRITER_VERSION
from repro.tech.design_rules import DesignRules

#: Bump when the digest document layout itself changes (invalidates
#: every previously persisted artifact).  Version 2 added
#: ``exact_engine`` (the defect recheck's exact ground-state solver,
#: which can change the produced defect report).  Version 3 added
#: ``timing`` (static timing analysis changes the persisted
#: ``result.json`` document) and versioned the structured report.
#: Version 4 added ``learn`` (surrogate-example collection during the
#: flow -- the artifacts stay bit-identical, but a learn-enabled run
#: performs side-effectful collection a cached hit would silently
#: skip, so the two must not share a digest).  Version 5 dropped
#: ``exact_engine`` (QuickExact is the one exact engine, so the key no
#: longer selected anything).  Version 6: the defect recheck and its
#: pristine baseline judge tiles of 31-32 sites exactly instead of by
#: annealing, which can change a persisted defect report, as in
#: version 2.
DIGEST_VERSION = 6


class UncacheableConfigurationError(ValueError):
    """The configuration carries state the digest cannot canonicalize."""


def normalize_configuration(configuration: FlowConfiguration) -> dict:
    """The JSON-ready canonical form of a flow configuration.

    Includes every knob that can change the produced artifacts and
    *excludes* the ones that provably cannot (``workers`` -- results
    are bit-identical across worker counts -- and ``trace``).  The
    normalized dictionary round-trips through
    :func:`configuration_from_normalized`, which is how service worker
    processes receive their job configuration.
    """
    if configuration.database is not None:
        raise UncacheableConfigurationError(
            "a custom NPN database cannot be canonicalized into a "
            "cache digest; run without cache or drop 'database'"
        )
    if configuration.library is not None:
        raise UncacheableConfigurationError(
            "a custom gate library cannot be canonicalized into a "
            "cache digest; run without cache or drop 'library'"
        )
    if configuration.clocking.name not in SCHEMES:
        raise UncacheableConfigurationError(
            f"clocking scheme {configuration.clocking.name!r} is not in "
            "the named-scheme registry; only registered schemes are "
            "cacheable"
        )
    rules = configuration.design_rules
    defects = None
    if configuration.defects:
        defects = sorted(
            (defect.to_dict() for defect in configuration.defects),
            key=lambda record: json.dumps(record, sort_keys=True),
        )
    return {
        "engine": configuration.engine.value,
        "clocking": configuration.clocking.name,
        "rewrite": configuration.rewrite,
        "verify": configuration.verify,
        "verify_conflict_limit": configuration.verify_conflict_limit,
        "exact_conflict_limit": configuration.exact_conflict_limit,
        "exact_max_width": configuration.exact_max_width,
        "exact_extra_rows": configuration.exact_extra_rows,
        "exact_time_limit_seconds": configuration.exact_time_limit_seconds,
        "heuristic_max_width": configuration.heuristic_max_width,
        "timing": configuration.timing,
        "learn": configuration.learn,
        "design_rules": {
            "min_metal_pitch_nm": rules.min_metal_pitch_nm,
            "min_canvas_separation_nm": rules.min_canvas_separation_nm,
            "tile_height_nm": rules.tile_height_nm,
        },
        "defects": defects,
    }


def configuration_from_normalized(normalized: dict) -> FlowConfiguration:
    """Rebuild a runnable configuration from its normalized form."""
    from repro.defects.model import SidbDefect, SurfaceDefects

    defects = None
    if normalized.get("defects"):
        defects = SurfaceDefects(
            SidbDefect.from_dict(record)
            for record in normalized["defects"]
        )
    rules = normalized["design_rules"]
    return FlowConfiguration(
        engine=normalized["engine"],
        clocking=scheme_by_name(normalized["clocking"]),
        rewrite=normalized["rewrite"],
        verify=normalized["verify"],
        verify_conflict_limit=normalized["verify_conflict_limit"],
        exact_conflict_limit=normalized["exact_conflict_limit"],
        exact_max_width=normalized["exact_max_width"],
        exact_extra_rows=normalized["exact_extra_rows"],
        exact_time_limit_seconds=normalized["exact_time_limit_seconds"],
        heuristic_max_width=normalized["heuristic_max_width"],
        timing=normalized.get("timing", False),
        learn=normalized.get("learn", False),
        design_rules=DesignRules(
            min_metal_pitch_nm=rules["min_metal_pitch_nm"],
            min_canvas_separation_nm=rules["min_canvas_separation_nm"],
            tile_height_nm=rules["tile_height_nm"],
        ),
        defects=defects,
    )


def specification_key(specification: str | Xag) -> dict:
    """The canonical digest contribution of a specification."""
    if isinstance(specification, Xag):
        return {"xag": specification.to_dict()}
    return {"verilog": specification}


def design_digest(
    specification: str | Xag,
    name: str | None,
    configuration: FlowConfiguration | None = None,
) -> str:
    """The 64-hex-character cache digest of one design request.

    ``specification`` is Verilog source text or an :class:`Xag` (file
    paths and benchmark names must already be resolved -- the digest is
    over content, never over names that content could drift under).
    """
    document = {
        "format": DIGEST_VERSION,
        "gate_library": GATE_LIBRARY_VERSION,
        "sqd_writer": SQD_WRITER_VERSION,
        "name": name,
        "specification": specification_key(specification),
        "configuration": normalize_configuration(
            configuration or FlowConfiguration()
        ),
    }
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
