"""Durable filesystem writes (DESIGN.md §14).

Every durable-write path in the pipeline — checkpoints, model-store
payloads, journals, quarantine dumps — funnels through this module so
two guarantees are made exactly once:

* **Crash durability.**  ``write temp → fsync → rename`` alone is not
  power-cut safe: the rename lives in the parent directory's metadata,
  which has its own cache.  :func:`atomic_write_bytes` therefore fsyncs
  the parent directory after the rename, so a checkpoint that was
  reported committed cannot vanish when the machine loses power.
* **Faults before bytes.**  :func:`atomic_write_bytes` consults the
  ``durable`` injection point (:mod:`repro.utils.inject`) before any
  byte moves, so an injected ENOSPC/EIO has the shape a full disk
  produces — no partially-applied state.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.utils import inject


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a rename inside it survives power loss.

    Best-effort: some filesystems refuse O_RDONLY opens of directories
    (or fsync on them); durability degrades gracefully there instead of
    turning every checkpoint into a crash.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Crash-durable atomic write: temp → fsync → rename → fsync dir.

    Raises ``OSError`` (e.g. injected or real ENOSPC) with the previous
    file contents untouched — a failed write never leaves a truncated
    or half-renamed target behind; the stray temp file is removed.
    """
    path = Path(path)
    fault = inject.hook(inject.DURABLE)
    if fault is not None:
        fault("write", str(path))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))
