"""Versioned, fingerprinted knowledge store (DESIGN.md §9).

The paper's offline loop periodically re-learns domain knowledge and
hands the online system a file.  In an operational deployment that
hand-off is exactly where a bad refresh silently degrades every
downstream digest, so this store makes it safe:

* every committed :class:`~repro.core.knowledge.KnowledgeBase` becomes
  an immutable, monotonically numbered version (``kb-v000007.json``)
  with a sidecar meta file carrying its sha256 fingerprint;
* all writes are atomic (write temp, fsync, rename, through
  :func:`repro.utils.fsio.atomic_write_text`, the durable-write fault
  seam checkpoints and journals share) — a crash mid-commit or
  mid-promote leaves either the old or the new version active, never a
  mixed store;
* the served version is one small ``ACTIVE`` pointer file, so promotion
  and rollback are each a single atomic rename;
* every lifecycle transition (commit, activate, reject, rollback,
  prune) is journaled to ``events.jsonl`` for ``syslogdigest kb-log``;
* retention pruning keeps the store bounded without ever deleting the
  active version.

Schema safety: the store refuses meta files written by a newer store
format, and version payloads go through
:meth:`KnowledgeBase.load`, which raises
:class:`~repro.core.knowledge.KnowledgeFormatError` on unknown payload
versions instead of failing deep inside deserialization.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.knowledge import KnowledgeBase
from repro.obs import KB_ACTIVE_VERSION, KB_ROLLBACKS, get_registry
from repro.utils.fsio import atomic_write_text, fsync_dir

#: On-disk format of the store's meta/pointer files (the knowledge
#: payloads carry their own ``format_version``).
STORE_FORMAT = 1

_ACTIVE = "ACTIVE"
_JOURNAL = "events.jsonl"


class KnowledgeStoreError(ValueError):
    """The store refused an operation (missing/foreign/corrupt state)."""


@dataclass(frozen=True)
class VersionInfo:
    """Header summary of one stored knowledge version."""

    version: int
    fingerprint: str
    created_ts: float
    n_templates: int
    n_rules: int
    note: str
    path: str

    def to_dict(self) -> dict:
        """JSON-ready form (the sidecar meta file's payload)."""
        return {
            "store_format": STORE_FORMAT,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "created_ts": self.created_ts,
            "n_templates": self.n_templates,
            "n_rules": self.n_rules,
            "note": self.note,
        }


class KnowledgeStore:
    """A directory of versioned knowledge bases with one active pointer."""

    def __init__(self, root: str | Path, retention: int = 8) -> None:
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.root = Path(root)
        self.retention = retention
        self.root.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- layout

    def _kb_path(self, version: int) -> Path:
        return self.root / f"kb-v{version:06d}.json"

    def _meta_path(self, version: int) -> Path:
        return self.root / f"kb-v{version:06d}.meta.json"

    def _journal(self, kind: str, version: int | None, **extra) -> None:
        entry = {"ts": time.time(), "kind": kind, "version": version}
        entry.update(extra)
        with open(self.root / _JOURNAL, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def _read_meta(self, version: int) -> VersionInfo:
        path = self._meta_path(version)
        if not path.exists():
            raise KnowledgeStoreError(
                f"no version {version} in store {self.root}"
            )
        payload = json.loads(path.read_text(encoding="utf-8"))
        found = payload.get("store_format")
        if found != STORE_FORMAT:
            raise KnowledgeStoreError(
                f"{path} was written by store format {found!r}; "
                f"this build supports {STORE_FORMAT}"
            )
        return VersionInfo(
            version=payload["version"],
            fingerprint=payload["fingerprint"],
            created_ts=payload["created_ts"],
            n_templates=payload["n_templates"],
            n_rules=payload["n_rules"],
            note=payload.get("note", ""),
            path=str(self._kb_path(version)),
        )

    # ----------------------------------------------------------- inspection

    def version_ids(self) -> list[int]:
        """All retained version ids, ascending."""
        ids = []
        for path in self.root.glob("kb-v*.meta.json"):
            stem = path.name[len("kb-v") : -len(".meta.json")]
            if stem.isdigit():
                ids.append(int(stem))
        return sorted(ids)

    def versions(self) -> list[VersionInfo]:
        """Header summaries of every retained version, ascending."""
        return [self._read_meta(v) for v in self.version_ids()]

    def active_version(self) -> int | None:
        """The currently served version id (None on a fresh store)."""
        pointer = self.root / _ACTIVE
        if not pointer.exists():
            return None
        payload = json.loads(pointer.read_text(encoding="utf-8"))
        if payload.get("store_format") != STORE_FORMAT:
            raise KnowledgeStoreError(
                f"{pointer} was written by store format "
                f"{payload.get('store_format')!r}; this build supports "
                f"{STORE_FORMAT}"
            )
        return payload["version"]

    def log(self) -> list[dict]:
        """The lifecycle journal, oldest first."""
        path = self.root / _JOURNAL
        if not path.exists():
            return []
        return [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    # -------------------------------------------------------------- loading

    def load(self, version: int, verify: bool = True) -> KnowledgeBase:
        """Load one retained version, verifying its fingerprint."""
        info = self._read_meta(version)
        kb = KnowledgeBase.load(self._kb_path(version))
        if verify and kb.fingerprint() != info.fingerprint:
            raise KnowledgeStoreError(
                f"{info.path} does not match its recorded fingerprint "
                f"{info.fingerprint[:12]}… — the payload was modified "
                "outside the store"
            )
        return kb

    def load_active(self) -> tuple[KnowledgeBase, VersionInfo]:
        """Load the served version plus its header."""
        version = self.active_version()
        if version is None:
            raise KnowledgeStoreError(
                f"store {self.root} has no active version; commit one "
                "with activate=True (e.g. `syslogdigest learn --store`)"
            )
        return self.load(version), self._read_meta(version)

    # ------------------------------------------------------------ mutation

    def commit(
        self,
        kb: KnowledgeBase,
        note: str = "",
        activate: bool = False,
    ) -> VersionInfo:
        """Persist ``kb`` as the next version; optionally activate it.

        Commit order is crash-safe: payload, then meta, then journal,
        then (last) the ``ACTIVE`` pointer — dying between any two steps
        leaves the previously active version serving and at worst an
        orphaned-but-valid new version.
        """
        ids = self.version_ids()
        version = (ids[-1] + 1) if ids else 1
        info = VersionInfo(
            version=version,
            fingerprint=kb.fingerprint(),
            created_ts=time.time(),
            n_templates=len(kb.templates),
            n_rules=len(kb.rules),
            note=note,
            path=str(self._kb_path(version)),
        )
        atomic_write_text(self._kb_path(version), kb.to_json())
        atomic_write_text(
            self._meta_path(version), json.dumps(info.to_dict(), indent=1)
        )
        self._journal(
            "commit", version, fingerprint=info.fingerprint, note=note
        )
        if activate:
            self.activate(version)
        self.prune()
        return info

    def activate(self, version: int, _kind: str = "activate") -> None:
        """Atomically point the store at ``version`` (the promote step)."""
        info = self._read_meta(version)  # must exist and be readable
        atomic_write_text(
            self.root / _ACTIVE,
            json.dumps(
                {
                    "store_format": STORE_FORMAT,
                    "version": version,
                    "fingerprint": info.fingerprint,
                },
                indent=1,
            ),
        )
        self._journal(_kind, version, fingerprint=info.fingerprint)
        registry = get_registry()
        if registry.enabled:
            registry.set_gauge(KB_ACTIVE_VERSION, float(version))

    def record_rejection(self, reasons, version: int | None = None, **extra) -> None:
        """Journal a promotion rejection (the candidate was not stored)."""
        self._journal("reject", version, reasons=list(reasons), **extra)

    def rollback(self, to: int | None = None) -> VersionInfo:
        """One-command rollback to ``to`` (default: previously active).

        With no target, walks the journal backwards for the most recent
        activation of a *different* version than the current one.
        """
        current = self.active_version()
        if to is None:
            for entry in reversed(self.log()):
                if (
                    entry["kind"] in ("activate", "rollback")
                    and entry["version"] != current
                    and entry["version"] in self.version_ids()
                ):
                    to = entry["version"]
                    break
            if to is None:
                raise KnowledgeStoreError(
                    f"store {self.root} has no previously active version "
                    "to roll back to"
                )
        self.activate(to, _kind="rollback")
        registry = get_registry()
        if registry.enabled:
            registry.inc(KB_ROLLBACKS)
        return self._read_meta(to)

    def prune(self) -> list[int]:
        """Drop the oldest versions beyond ``retention``; never the active.

        Returns the pruned version ids (journaled as one entry).
        """
        ids = self.version_ids()
        active = self.active_version()
        keep = set(ids[-self.retention :])
        if active is not None:
            keep.add(active)
        victims = [v for v in ids if v not in keep]
        for version in victims:
            self._kb_path(version).unlink(missing_ok=True)
            self._meta_path(version).unlink(missing_ok=True)
        if victims:
            fsync_dir(self.root)
            self._journal("prune", None, pruned=victims)
        return victims
