"""Checkpoint/restore for the streaming digester (DESIGN.md §8).

A checkpoint is one file holding a versioned, pickled capture of
:meth:`repro.core.stream.DigestStream.snapshot` plus a small header.
Writes are atomic — the payload goes to a temp file in the same
directory, is fsynced, then renamed over the target — so a crash during
checkpointing can never leave a truncated checkpoint behind; the
previous one survives intact.

Crash recovery is checkpoint + tail replay: the snapshot records how
many messages of the (deterministically sorted) feed were admitted, so
``resume`` skips exactly that many and pushes the rest.  The resumed
stream's output is byte-identical to an uninterrupted run — a test pins
that for every executor lane (serial, threads, and worker processes),
including killing the worker processes mid-stream and resuming on a
fresh set.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import DigestConfig
from repro.core.knowledge import KnowledgeBase
from repro.core.modelstore import KnowledgeStore
from repro.core.stream import SNAPSHOT_VERSION, DigestStream
from repro.obs import (
    CHECKPOINT_BYTES,
    CHECKPOINT_WRITES,
    get_registry,
)
from repro.utils.fsio import atomic_write_bytes, fsync_dir

#: File-format version of the checkpoint container (the embedded
#: snapshot carries its own :data:`~repro.core.stream.SNAPSHOT_VERSION`).
CHECKPOINT_FORMAT = 1

_MAGIC = "syslogdigest-checkpoint"


def previous_checkpoint_path(path: str | Path) -> Path:
    """The ``.prev`` sibling holding the last superseded checkpoint."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


@dataclass(frozen=True)
class CheckpointInfo:
    """Header summary of one checkpoint file."""

    path: str
    format: int
    snapshot_version: int
    stream_clock: float | None
    n_admitted: int
    n_open: int
    n_bytes: int
    # Model-store version the stream served when checkpointed (None when
    # the stream was built from a bare KnowledgeBase).
    kb_version: int | str | None = None
    # Ingest front-end state, when one was attached: whether the
    # checkpoint carries it, and how many messages its reorder buffer
    # held at capture time.
    has_ingest: bool = False
    n_buffered: int = 0

    @classmethod
    def of(
        cls, path: str | Path, snapshot: dict, n_bytes: int
    ) -> CheckpointInfo:
        """The header of ``snapshot``, stored at ``path`` in ``n_bytes``."""
        ingest_state = snapshot.get("ingest")
        return cls(
            path=str(path),
            format=CHECKPOINT_FORMAT,
            snapshot_version=snapshot["version"],
            stream_clock=snapshot["last_ts"],
            n_admitted=snapshot["n_admitted"],
            n_open=len(snapshot["open"]),
            n_bytes=n_bytes,
            kb_version=snapshot["kb_version"],
            has_ingest=ingest_state is not None,
            n_buffered=len(ingest_state["buffer"]) if ingest_state else 0,
        )


def write_checkpoint(
    path: str | Path, stream: DigestStream
) -> CheckpointInfo:
    """Atomically persist the stream's state; returns a header summary.

    Write-temp-then-rename in the target directory: a crash mid-write
    leaves the previous checkpoint untouched, and the rename is atomic
    on POSIX filesystems.  The write is power-cut durable (the parent
    directory is fsynced after the rename), and the superseded
    checkpoint is retained as ``<name>.prev`` so a corrupt newest file
    can fall back one generation (:func:`load_resume_state`).  Also
    marks the stream as freshly checkpointed (its
    ``checkpoint_age_seconds`` health key resets).

    Raises ``OSError`` (real or injected ENOSPC/EIO) with the previous
    checkpoint — and its ``.prev`` — untouched; callers degrade rather
    than crash (DESIGN.md §14).
    """
    path = Path(path)
    snapshot = stream.snapshot()
    payload = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "snapshot": snapshot,
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    # Demote the current checkpoint only after the temp file for its
    # successor is safely on disk — atomic_write_bytes raises before
    # renaming on failure, so a failed write leaves both generations
    # exactly as they were.
    prev = previous_checkpoint_path(path)
    tmp = path.with_name(path.name + ".new")
    atomic_write_bytes(tmp, blob)
    if path.exists():
        os.replace(path, prev)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    stream.note_checkpoint()
    registry = get_registry()
    if registry.enabled:
        registry.inc(CHECKPOINT_WRITES)
        registry.set_gauge(CHECKPOINT_BYTES, len(blob))
    return CheckpointInfo.of(path, snapshot, len(blob))


class CheckpointFormatError(ValueError):
    """A file that is not a checkpoint this build can read."""


def read_checkpoint(path: str | Path) -> dict:
    """Load and validate a checkpoint file; returns the snapshot dict.

    Raises :class:`CheckpointFormatError` naming ``path`` for anything
    that does not unpickle into a checkpoint of the supported format
    and snapshot version; only the open itself raises ``OSError``.
    """
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except Exception as exc:
            raise CheckpointFormatError(
                f"{path} is not a syslogdigest checkpoint ({exc})"
            ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("magic") != _MAGIC
        or not isinstance(payload.get("snapshot"), dict)
    ):
        raise CheckpointFormatError(
            f"{path} is not a syslogdigest checkpoint"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointFormatError(
            f"{path}: checkpoint format {payload.get('format')!r} != "
            f"supported {CHECKPOINT_FORMAT}"
        )
    snapshot = payload["snapshot"]
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise CheckpointFormatError(
            f"{path}: snapshot version {snapshot.get('version')!r} != "
            f"supported {SNAPSHOT_VERSION}"
        )
    return snapshot


def load_resume_state(
    path: str | Path,
) -> tuple[dict, Path, Exception | None]:
    """Load the newest readable checkpoint generation for ``path``.

    Returns ``(snapshot, used_path, error)``.  Normally ``used_path``
    is ``path`` itself and ``error`` is None.  When the newest file is
    corrupt (torn write on a dying disk, bad sector) but its ``.prev``
    sibling restores cleanly, falls back one generation: ``used_path``
    is the ``.prev`` path and ``error`` is the exception the newest
    file raised — callers must surface that loudly (the serve tenant
    journals a ``checkpoint-fallback`` entry).  When the newest file is
    missing entirely, restores directly from ``.prev`` with no error.
    Re-raises the newest file's failure when no generation is readable.
    """
    path = Path(path)
    prev = previous_checkpoint_path(path)
    primary_error: Exception | None = None
    if path.exists():
        try:
            return read_checkpoint(path), path, None
        except Exception as exc:  # corrupt: fall back a generation
            primary_error = exc
    if prev.exists():
        try:
            return read_checkpoint(prev), prev, primary_error
        except Exception:
            if primary_error is not None:
                raise primary_error
            raise
    if primary_error is not None:
        raise primary_error
    raise FileNotFoundError(f"no checkpoint at {path} (or {prev})")


def checkpoint_info(path: str | Path) -> CheckpointInfo:
    """Header summary of a checkpoint without restoring it."""
    snapshot = read_checkpoint(path)
    return CheckpointInfo.of(path, snapshot, Path(path).stat().st_size)


def restore_stream(
    path: str | Path,
    kb: KnowledgeBase | None = None,
    config: DigestConfig | None = None,
    store: KnowledgeStore | None = None,
) -> DigestStream:
    """Rebuild a :class:`DigestStream` from a checkpoint file.

    The knowledge base comes from either ``kb`` (explicit) or ``store``
    (a :class:`~repro.core.modelstore.KnowledgeStore`, from which the
    snapshot's recorded ``kb_version`` is loaded — fingerprint-verified,
    and independent of whatever the store's *active* version is now, so
    a promotion that happened after the checkpoint cannot leak into the
    restored state).  The stream is constructed with the *checkpointed*
    config by default (grouping state is only valid under the parameters
    it was built with); pass ``config`` to assert a specific one — a
    mismatch raises rather than silently regrouping differently.

    The executor lane is an execution detail — every lane groups
    byte-identically — so ``config`` may name another lane than the
    checkpoint's (``snapshot_config.with_stream_workers(lane)``): a
    stream checkpointed under threads resumes on worker processes (or
    vice versa) with no effect on output.
    """
    return restore_stream_snapshot(
        read_checkpoint(path), kb=kb, config=config, store=store
    )


def restore_stream_snapshot(
    snapshot: dict,
    kb: KnowledgeBase | None = None,
    config: DigestConfig | None = None,
    store: KnowledgeStore | None = None,
) -> DigestStream:
    """:func:`restore_stream` for an already-loaded snapshot dict.

    Used by callers that resolve the snapshot themselves — e.g. the
    serve tenant, which loads via :func:`load_resume_state` so a
    corrupt newest checkpoint falls back to the ``.prev`` generation,
    and ``syslogdigest resume``, which reads the header from the same
    snapshot.
    """
    kb_version = snapshot["kb_version"]
    if kb is None:
        if store is None:
            raise ValueError(
                "restore_stream needs the knowledge the checkpoint was "
                "taken under: pass kb=, or store= for a store-backed "
                "stream"
            )
        if not isinstance(kb_version, int):
            raise ValueError(
                f"checkpoint records kb_version {kb_version!r}, "
                "not a model-store version; pass the knowledge base "
                "explicitly via kb="
            )
        kb = store.load(kb_version)
    restored_config: DigestConfig = (
        config if config is not None else snapshot["config"]
    )
    stream = DigestStream(kb, restored_config)
    stream.restore(snapshot)
    return stream


def restore_ingest(stream: DigestStream, quarantine=None):
    """Rebuild the ingest front-end a restored stream was driven by.

    Call after :func:`restore_stream` when the checkpointed run pushed
    through a :class:`~repro.syslog.ingest.MultiSourceIngest`; returns a
    front-end with its reorder buffer, source breakers, and counters
    exactly as captured, attached to ``stream``.  Raises if the
    checkpoint carried no ingest state (check
    :attr:`CheckpointInfo.has_ingest` first when unsure).  Resume replay
    then skips, per source, the :meth:`~MultiSourceIngest.pushed_counts`
    arrivals already consumed.
    """
    # Imported lazily: core must stay importable without the syslog
    # layer, and ingest.py itself imports from core.
    from repro.syslog.ingest import MultiSourceIngest

    state = stream.restored_ingest_state()
    if state is None:
        raise ValueError(
            "checkpoint carries no ingest state: the checkpointed "
            "stream was pushed to directly, not through an ingest "
            "front-end"
        )
    return MultiSourceIngest.from_snapshot(
        stream, state, quarantine=quarantine
    )
