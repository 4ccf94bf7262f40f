"""``repro doctor``: integrity scan and repair of the persistent stores.

A crashed sweep leaves recognizable debris in the cache directory: a
torn final line in a JSONL store (the writer died mid-append), a
CRC-damaged mid-file line (bit rot, interleaved unlocked writers), a
``.tmp.<pid>`` publish that never reached its rename, a lock file
whose store was GC'd, or a manifest that claims a form was resolved
while the result store holds no bytes for it.  Doctor walks every store, classifies each of these
into a :class:`Finding` with an explicit repair plan, and — with
``--repair`` — applies the plan:

========================  ==============================================
finding                   repair
========================  ==============================================
``torn-tail``             truncate the store at the torn offset
``corrupt-lines``         quarantine damaged lines to ``<store>.quarantine``,
                          rewrite the intact records in place
``torn-manifest``         quarantine the undecodable manifest (the next
                          full sweep rebuilds it)
``stale-lock``            remove the lock file (its store is gone)
``stray-tmp``             remove the unpublished temp file
``missing-result``        withdraw the manifest claim (the next sweep
                          re-measures the form)
========================  ==============================================

Reads are lockless — the atomic-rename publish and line-granular
appends make any observed snapshot consistent — so a plain ``repro
doctor`` scan is always safe to run, even under a live sweep.  Repair
rewrites each store under its own lock, but cannot tell whether a sweep
is running: a sweep's in-flight manifest claims and temp files look
like crash debris.  Repair between sweeps.  Files it does not know,
such as the ``<uarch>.queue.json`` work queues of older versions, are
left alone.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional

from repro.core.cache import (
    MeasurementMemo,
    SweepManifest,
    cache_salt,
    default_cache_dir,
)
from repro.core.journal import (
    quarantine_lines,
    rewrite_store,
    scan_blob,
    scan_journal,
)


@dataclasses.dataclass
class Finding:
    """One diagnosed problem and its repair plan."""

    store: str
    kind: str
    detail: str
    repair: str
    repairable: bool = True
    #: Kind-specific repair context (e.g. the uids of missing results).
    context: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "store": os.path.basename(self.store),
            "kind": self.kind,
            "detail": self.detail,
            "repair": self.repair,
            "repairable": self.repairable,
        }


class DoctorReport:
    """The result of one :func:`diagnose` pass."""

    def __init__(
        self,
        cache_dir: str,
        findings: List[Finding],
        stores_scanned: int,
    ):
        self.cache_dir = cache_dir
        self.findings = findings
        self.stores_scanned = stores_scanned

    @property
    def healthy(self) -> bool:
        return not self.findings

    def to_json(self) -> Dict[str, Any]:
        return {
            "cache_dir": self.cache_dir,
            "healthy": self.healthy,
            "stores_scanned": self.stores_scanned,
            "findings": [
                finding.as_dict() for finding in self.findings
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"doctor: scanned {self.stores_scanned} store(s) in "
            f"{self.cache_dir}"
        ]
        if self.healthy:
            lines.append("doctor: all stores healthy")
        for finding in self.findings:
            name = os.path.basename(finding.store)
            lines.append(
                f"  [{finding.kind}] {name}: {finding.detail}"
                f" -> {finding.repair}"
            )
        return "\n".join(lines)


def _quarantine_path(path: str) -> str:
    return path + ".quarantine"


def _diagnose_jsonl(path: str, findings: List[Finding]) -> None:
    scan = scan_journal(path)
    if scan.torn:
        torn = next(
            record for record in scan.records
            if record.problem == "torn"
        )
        findings.append(Finding(
            store=path,
            kind="torn-tail",
            detail=(
                f"unparsable final line at byte {torn.offset} "
                "(writer died mid-append)"
            ),
            repair=f"truncate at byte {torn.offset}",
        ))
    if scan.corrupt:
        findings.append(Finding(
            store=path,
            kind="corrupt-lines",
            detail=(
                f"{scan.corrupt} damaged line(s) mid-file "
                "(CRC mismatch, malformed record, or garbage)"
            ),
            repair=(
                "quarantine damaged lines to "
                f"{os.path.basename(_quarantine_path(path))} and "
                "rewrite intact records"
            ),
        ))


def diagnose(
    cache_dir: Optional[str] = None,
    salt: Optional[str] = None,
) -> DoctorReport:
    """Scan every store under *cache_dir*; mutate nothing."""
    cache_dir = cache_dir or default_cache_dir()
    salt = salt if salt is not None else cache_salt()
    findings: List[Finding] = []
    scanned = 0
    if not os.path.isdir(cache_dir):
        return DoctorReport(cache_dir, findings, scanned)
    names = sorted(os.listdir(cache_dir))
    present = set(names)
    manifest = SweepManifest(cache_dir, salt=salt)

    for name in names:
        path = os.path.join(cache_dir, name)
        if ".tmp." in name:
            scanned += 1
            findings.append(Finding(
                store=path,
                kind="stray-tmp",
                detail="unpublished temp file from a crashed rename",
                repair="remove",
            ))
        elif name.endswith(".lock"):
            scanned += 1
            if name[: -len(".lock")] not in present:
                findings.append(Finding(
                    store=path,
                    kind="stale-lock",
                    detail="lock file whose store no longer exists",
                    repair="remove",
                ))
        elif name.endswith(SweepManifest.SUFFIX):
            scanned += 1
            state = manifest._load(name[: -len(SweepManifest.SUFFIX)])
            if not state["configs"] and os.path.getsize(path) > 0:
                findings.append(Finding(
                    store=path,
                    kind="torn-manifest",
                    detail=(
                        "manifest is undecodable or from another "
                        "code version"
                    ),
                    repair=(
                        "quarantine (the next full sweep rebuilds it)"
                    ),
                ))
        elif name.endswith(MeasurementMemo.SUFFIX):
            scanned += 1
            _diagnose_jsonl(path, findings)
        elif name.endswith(".jsonl"):
            scanned += 1
            _diagnose_jsonl(path, findings)
            uarch_name = name[: -len(".jsonl")]
            missing = _missing_results(
                cache_dir, uarch_name, salt, manifest
            )
            if missing:
                findings.append(Finding(
                    store=path,
                    kind="missing-result",
                    detail=(
                        f"{len(missing)} form(s) the manifest claims "
                        "resolved but the store holds no bytes for: "
                        + ", ".join(sorted(missing)[:5])
                        + ("..." if len(missing) > 5 else "")
                    ),
                    repair="withdraw the manifest claims",
                    context={"uarch": uarch_name, "missing": missing},
                ))
    return DoctorReport(cache_dir, findings, scanned)


def _missing_results(
    cache_dir: str,
    uarch_name: str,
    salt: str,
    manifest: SweepManifest,
) -> Dict[str, str]:
    """``uid -> key`` of manifest-claimed forms absent from the store
    (only *valid* current-salt records count as present — a claim whose
    bytes are torn or corrupt is missing)."""
    state = manifest._load(uarch_name)
    claimed: Dict[str, str] = {}
    for recorded in state["configs"].values():
        entries = recorded.get("entries")
        if not isinstance(entries, dict):
            continue
        for uid, entry in entries.items():
            if isinstance(entry, dict) and "key" in entry:
                claimed[uid] = entry["key"]
    if not claimed:
        return {}
    scan = scan_journal(
        os.path.join(cache_dir, f"{uarch_name}.jsonl")
    )
    stored = {
        entry["key"] for entry in scan.entries()
        if entry.get("salt") == salt
    }
    return {
        uid: key for uid, key in claimed.items()
        if key not in stored
    }


# ---------------------------------------------------------------------------
# Repairs
# ---------------------------------------------------------------------------


def _repair_jsonl(path: str) -> None:
    """Truncate a torn tail and quarantine mid-file damage, in place
    under the appenders' lock."""

    def mend(blob: bytes) -> Optional[bytes]:
        scan = scan_blob(blob)
        damaged = [
            record.raw for record in scan.records
            if record.problem not in (None, "torn")
        ]
        if damaged:
            quarantine_lines(_quarantine_path(path), damaged)
        if not (damaged or scan.torn):
            return None
        # Byte-preserving rewrite of the intact records (raw lines, not
        # re-encoded — doctor never rewrites what it did not diagnose).
        intact = [
            record.raw for record in scan.records
            if record.problem is None
        ]
        return b"\n".join(intact) + b"\n" if intact else b""

    rewrite_store(path, mend, kind="repair")


def _apply(finding: Finding, cache_dir: str, salt: str) -> None:
    path = finding.store
    if finding.kind in ("torn-tail", "corrupt-lines"):
        _repair_jsonl(path)
    elif finding.kind in ("stray-tmp", "stale-lock"):
        try:
            os.remove(path)
        except OSError:
            pass
    elif finding.kind == "torn-manifest":
        try:
            os.replace(path, _quarantine_path(path))
        except OSError:
            pass
        try:
            os.remove(path + ".lock")
        except OSError:
            pass
    elif finding.kind == "missing-result":
        context = finding.context or {}
        uarch_name = context.get("uarch")
        missing: Dict[str, str] = context.get("missing", {})
        if not uarch_name or not missing:
            return
        SweepManifest(cache_dir, salt=salt).prune(
            uarch_name, missing.keys()
        )


#: Repair passes before giving up: one repair can surface the next
#: finding (a truncated tail may reveal a missing result), so doctor
#: re-diagnoses until the scan comes back healthy or the fixpoint
#: budget runs out.
MAX_REPAIR_PASSES = 3


def repair(
    cache_dir: Optional[str] = None,
    salt: Optional[str] = None,
) -> DoctorReport:
    """Diagnose-and-repair to a fixpoint; returns the final report."""
    cache_dir = cache_dir or default_cache_dir()
    salt = salt if salt is not None else cache_salt()
    report = diagnose(cache_dir, salt=salt)
    for _ in range(MAX_REPAIR_PASSES):
        if report.healthy:
            break
        for finding in report.findings:
            if finding.repairable:
                _apply(finding, cache_dir, salt)
        report = diagnose(cache_dir, salt=salt)
    return report
