"""Framed-pipe RPC between the daemon and its tenant workers (DESIGN.md §15).

One tenant worker process talks to the parent daemon over two
unidirectional pipes (the worker's stdin/stdout).  Every message is a
*frame*: a 4-byte little-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON — never pickle — crosses the trust boundary:
a corrupted or malicious worker can produce garbage, but it cannot make
the parent unpickle arbitrary objects.

Three message shapes travel inside frames:

* **request** ``{"id": N>0, "cmd": ..., "args": {...}}`` — parent →
  worker.  ``id`` is a parent-chosen correlation number.
* **response** ``{"id": N, "ok": true, "result": ...}`` or ``{"id": N,
  "ok": false, "error": "..."}`` — worker → parent.  Responses may
  arrive in any order; the parent matches them to requests by ``id``.
* **notification** ``{"id": 0, "kind": ..., ...}`` — worker → parent,
  unsolicited (``started`` / ``batch`` / ``budget`` / ``exhausted`` /
  ``fatal``).

Failure surfaces are deliberately loud and typed:

* a frame longer than :data:`MAX_FRAME_BYTES` raises
  :class:`FrameTooLarge` on both ends (the writer refuses to emit one,
  the reader refuses to buffer one — a protocol-desync guard);
* EOF at a frame boundary raises ``EOFError`` (the peer is gone);
* EOF *inside* a frame raises :class:`TornFrame` (the peer died
  mid-write — same event, but worth distinguishing in a journal);
* on the parent side, :class:`RpcChannel` converts all of those into
  :class:`RpcClosed` for in-flight requests, and bounds every request
  with a caller-supplied deadline (:class:`RpcTimeout`), which is how
  the supervisor's RPC progress deadline is enforced.
"""

from __future__ import annotations

import asyncio
import json
import select
import struct

_LEN = struct.Struct("<I")

#: Upper bound on one frame's JSON payload.  Large enough for a full
#: event page (500 events × a few hundred bytes), small enough that a
#: desynced or hostile peer cannot make the reader buffer gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameError(RuntimeError):
    """Base class for framing violations (torn or oversized frames)."""


class TornFrame(FrameError):
    """EOF landed inside a frame: the peer died mid-write."""


class FrameTooLarge(FrameError):
    """A frame declared a length beyond :data:`MAX_FRAME_BYTES`."""


class RpcError(RuntimeError):
    """The worker executed the request and reported an error."""


class RpcClosed(RuntimeError):
    """The worker's pipe closed (death, kill, or clean exit)."""


class RpcTimeout(RuntimeError):
    """No reply within the caller's deadline: the worker is hung."""


# --------------------------------------------------------------- encoding


def encode_frame(obj) -> bytes:
    """Serialize one message to its wire form (length prefix + JSON)."""
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes):
    return json.loads(payload.decode("utf-8"))


# -------------------------------------------------- sync side (the worker)


def write_frame(fh, obj) -> None:
    """Write one frame to a binary stream and flush it."""
    fh.write(encode_frame(obj))
    fh.flush()


def _read_exact(fh, n: int, *, header: bool) -> bytes:
    """Read exactly ``n`` bytes; EOFError at a boundary, TornFrame inside."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = fh.read(n - len(chunks))
        if not chunk:
            if not chunks and header:
                raise EOFError("peer closed the pipe")
            raise TornFrame(
                f"EOF after {len(chunks)} of {n} frame bytes"
            )
        chunks += chunk
    return bytes(chunks)


def read_frame(fh):
    """Blocking read of one frame from a binary stream."""
    head = _read_exact(fh, _LEN.size, header=True)
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"peer declared a {length}-byte frame (max {MAX_FRAME_BYTES})"
        )
    return decode_payload(_read_exact(fh, length, header=False))


def poll_frame(fh, timeout: float):
    """Read one frame if bytes are ready within ``timeout`` seconds.

    Returns ``None`` on timeout.  The worker's main loop calls this
    between batches: 0.0 while arrivals are pending (drain the command
    queue without stalling the pipeline), the life's
    :meth:`~repro.serve.placement.TenantLife.idle_wait` when idle.
    Once ``select`` reports readability the frame is completed with
    blocking reads — the parent writes whole frames at once, so any
    residual wait is bounded by one pipe write.
    """
    ready, _, _ = select.select([fh], [], [], max(0.0, timeout))
    if not ready:
        return None
    return read_frame(fh)


# ------------------------------------------------- async side (the parent)


async def read_frame_async(reader: asyncio.StreamReader):
    """Async read of one frame; same failure surface as :func:`read_frame`."""
    try:
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("peer closed the pipe") from None
        raise TornFrame(
            f"EOF after {len(exc.partial)} of {_LEN.size} header bytes"
        ) from None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"peer declared a {length}-byte frame (max {MAX_FRAME_BYTES})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TornFrame(
            f"EOF after {len(exc.partial)} of {length} frame bytes"
        ) from None
    return decode_payload(payload)


class RpcChannel:
    """Parent-side request/response multiplexer over a worker's pipes.

    One background task reads frames continuously (so the worker's
    stdout pipe can never fill and block it): responses resolve the
    pending future matched by ``id`` — in whatever order they arrive —
    and notifications land in :attr:`notes` for the supervision loop.

    When the pipe closes (worker death, SIGKILL, clean exit) every
    in-flight and future request fails with :class:`RpcClosed`, and a
    ``{"kind": "closed"}`` sentinel is queued so a loop blocked on
    :attr:`notes` wakes immediately.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 1
        self._closed: str | None = None
        self.notes: asyncio.Queue = asyncio.Queue()
        self._read_task = asyncio.ensure_future(self._read_loop())

    @property
    def closed(self) -> bool:
        return self._closed is not None

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame_async(self._reader)
                if not isinstance(frame, dict):
                    raise FrameError(f"non-object frame: {frame!r}")
                if frame.get("id"):
                    future = self._pending.pop(frame["id"], None)
                    if future is not None and not future.done():
                        future.set_result(frame)
                    continue  # stale reply (request already timed out)
                await self.notes.put(frame)
        except (EOFError, FrameError, OSError) as exc:
            self._shutdown(f"{type(exc).__name__}: {exc}")
        except asyncio.CancelledError:
            self._shutdown("channel closed")
            raise

    def _shutdown(self, reason: str) -> None:
        if self._closed is not None:
            return
        self._closed = reason
        for future in self._pending.values():
            if not future.done():
                future.set_exception(RpcClosed(reason))
        self._pending.clear()
        self.notes.put_nowait({"kind": "closed", "reason": reason})

    def send(self, obj) -> None:
        """Fire-and-forget frame to the worker (used for ``init``)."""
        if self._closed is not None:
            raise RpcClosed(self._closed)
        self._writer.write(encode_frame(obj))

    async def request(self, cmd: str, args: dict | None = None, *,
                      timeout: float):
        """One round trip; raises RpcError / RpcClosed / RpcTimeout."""
        if self._closed is not None:
            raise RpcClosed(self._closed)
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            encode_frame(
                {"id": request_id, "cmd": cmd, "args": args or {}}
            )
        )
        try:
            await self._writer.drain()
            reply = await asyncio.wait_for(future, timeout=timeout)
        except asyncio.TimeoutError:
            raise RpcTimeout(
                f"no reply to {cmd!r} within {timeout}s"
            ) from None
        except ConnectionError as exc:
            raise RpcClosed(str(exc)) from None
        finally:
            self._pending.pop(request_id, None)
        if not reply.get("ok"):
            raise RpcError(reply.get("error", "worker error"))
        return reply.get("result")

    async def next_note(self, timeout: float):
        """Next notification, or ``None`` after ``timeout`` seconds."""
        try:
            return await asyncio.wait_for(self.notes.get(), timeout=timeout)
        except asyncio.TimeoutError:
            return None

    async def close(self) -> None:
        """Stop reading and release the pipes (does not touch the process)."""
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
        except Exception:
            pass


__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameTooLarge",
    "RpcChannel",
    "RpcClosed",
    "RpcError",
    "RpcTimeout",
    "TornFrame",
    "encode_frame",
    "poll_frame",
    "read_frame",
    "read_frame_async",
    "write_frame",
]
