"""Stdlib-only HTTP API for the serve daemon (DESIGN.md §13, §15).

A deliberately small HTTP/1.0 server on raw asyncio streams — no
framework, no threads, one read per request, connection closed after
the response.  Routes talk to tenants through their
:class:`~repro.serve.placement.TenantHandle`, so a tenant living in its
own worker process and one living on the daemon's loop answer
identically.

Hardening (DESIGN.md §15): a connection gets one read deadline to
deliver its request head (``408`` past it), the head is size-bounded
(``431``), a declared body over budget is refused (``413``), and
long-poll waiters are counted against a daemon-wide bound (``429``).
Every refusal increments ``syslogdigest_http_rejected_total{reason=}``
— a stalled or slowloris client can never wedge the control plane.

Endpoints (all JSON unless noted):

    GET  /healthz                       liveness + per-tenant states
    GET  /metrics                       Prometheus text format: event
                                        series + every tenant's health
    GET  /tenants                       tenant list with state summary
    GET  /tenants/{t}/health            stream + ingest + budget health
    GET  /tenants/{t}/events            cursor-paginated finalized events;
                                        ?wait=SEC long-polls for new ones
    GET  /tenants/{t}/sources           per-source breaker/watermark/tail rows
    GET  /tenants/{t}/journal           supervisor + breaker transitions
    POST /tenants/{t}/promote           hot-swap to store's active version
    POST /tenants/{t}/rollback[?to=N]   store rollback + hot-swap
    POST /tenants/{t}/requeue           replay quarantine into the stream
    POST /drain                         graceful shutdown (same as SIGTERM)
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.obs import (
    SERVE_HTTP_REJECTED,
    SERVE_HTTP_REQUESTS,
    MetricsRegistry,
    get_registry,
    to_prom_text,
)

from .rpc import RpcClosed, RpcTimeout
from .tenant import publish_tenant_health

MAX_EVENTS_PAGE = 500


def events_page(journal, cursor: int, limit: int) -> dict:
    """One cursor page of a tenant's event journal, JSON-safe.

    Shared by the tenant loop's ``events`` command and a detached
    handle's journal-file fallback (DESIGN.md §15), so every read
    paginates byte-identically.
    """
    limit = min(limit, MAX_EVENTS_PAGE)
    events = journal.read(cursor, limit)
    total = len(journal)
    next_cursor = cursor + len(events)
    return {
        "events": [
            event_payload(event, cursor + i)
            for i, event in enumerate(events)
        ],
        "next_cursor": next_cursor if next_cursor < total else None,
        "total": total,
    }


def event_payload(event, index: int) -> dict:
    """One finalized event as a JSON-safe dict (cursor = journal index)."""
    return {
        "cursor": index,
        "label": event.label,
        "score": event.score,
        "start_ts": event.start_ts,
        "end_ts": event.end_ts,
        "n_messages": event.n_messages,
        "routers": sorted(event.routers),
        "error_codes": sorted(event.error_codes),
        "template_keys": sorted(event.template_keys),
        "locations": [loc.key() for loc in event.location_summary()],
    }


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpApi:
    """Routes requests onto a running :class:`~repro.serve.daemon.ServeDaemon`."""

    def __init__(self, daemon) -> None:
        self._daemon = daemon
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # ------------------------------------------------------------ server

    async def start(self, host: str, port: int) -> None:
        # The stream limit *is* the header-size bound: readuntil raises
        # LimitOverrunError before buffering a byte past it.
        self._server = await asyncio.start_server(
            self._handle,
            host=host,
            port=port,
            limit=self._daemon.config.http_max_header_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader, writer) -> None:
        config = self._daemon.config
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=config.http_read_deadline,
            )
        except asyncio.TimeoutError:
            # Slowloris guard: the head did not arrive in time.
            await self._respond(
                writer, *self._reject(408, "request read deadline",
                                      "deadline")
            )
            return
        except asyncio.LimitOverrunError:
            await self._respond(
                writer, *self._reject(431, "request head too large",
                                      "headers")
            )
            return
        except asyncio.IncompleteReadError:
            writer.close()  # client hung up mid-request
            return
        if self._body_length(request) > config.http_max_body_bytes:
            await self._respond(
                writer, *self._reject(413, "request body too large",
                                      "body")
            )
            return
        status, body, content_type = await self._dispatch(request)
        await self._respond(writer, status, body, content_type)

    @staticmethod
    def _body_length(raw: bytes) -> int:
        """The declared Content-Length (0 when absent or malformed)."""
        for line in raw.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    return int(value.strip())
                except ValueError:
                    return 0
        return 0

    @staticmethod
    def _reject(status: int, message: str, reason: str):
        """A hardening refusal: counted, typed, JSON like any error."""
        get_registry().inc(SERVE_HTTP_REJECTED, reason=reason)
        body = json.dumps({"error": message}) + "\n"
        return status, body, "application/json"

    @staticmethod
    async def _respond(writer, status: int, body: str,
                       content_type: str) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {_STATUS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        try:
            await writer.drain()
        finally:
            writer.close()

    # ---------------------------------------------------------- dispatch

    async def _dispatch(self, raw: bytes) -> tuple[int, str, str]:
        """Full request -> (status, body, content-type), never raises."""
        try:
            line = raw.split(b"\r\n", 1)[0].decode("latin-1")
            parts = line.split(" ")
            if len(parts) < 2:
                raise HttpError(400, "malformed request line")
            method, target = parts[0], parts[1]
            split = urlsplit(target)
            path = [p for p in split.path.split("/") if p]
            query = {
                key: values[-1]
                for key, values in parse_qs(split.query).items()
            }
            get_registry().inc(SERVE_HTTP_REQUESTS, path=split.path)
            if method not in ("GET", "POST"):
                raise HttpError(405, f"method {method} not allowed")
            body = await self._route(method, path, query)
        except RpcClosed as exc:
            return (
                503,
                json.dumps({"error": f"tenant worker unavailable: {exc}"})
                + "\n",
                "application/json",
            )
        except RpcTimeout as exc:
            return (
                504,
                json.dumps({"error": f"tenant worker timed out: {exc}"})
                + "\n",
                "application/json",
            )
        except HttpError as exc:
            return (
                exc.status,
                json.dumps({"error": exc.message}) + "\n",
                "application/json",
            )
        except Exception as exc:  # surface, never kill the daemon
            return (
                500,
                json.dumps({"error": str(exc)}) + "\n",
                "application/json",
            )
        if path == ["metrics"]:
            return 200, body, "text/plain; version=0.0.4"
        return 200, json.dumps(body, sort_keys=True) + "\n", "application/json"

    async def _route(self, method: str, path: list[str], query: dict):
        daemon = self._daemon
        if method == "GET":
            if path == ["healthz"]:
                return {
                    "status": "ok",
                    "draining": daemon.draining,
                    "tenants": {
                        name: daemon.supervisors[name].state
                        for name in daemon.handles
                    },
                }
            if path == ["metrics"]:
                return await self.metrics_text()
            if path == ["tenants"]:
                rows = []
                for name, handle in daemon.handles.items():
                    rows.append(
                        {
                            "name": name,
                            "placement": handle.placement,
                            "state": daemon.supervisors[name].state,
                            "restarts": (
                                daemon.supervisors[name].total_restarts
                            ),
                            "pending_arrivals": handle.pending,
                            "events": handle.events_total,
                        }
                    )
                return rows
            if len(path) == 3 and path[0] == "tenants":
                handle = self._handle_for(path[1])
                if path[2] == "health":
                    health = await handle.health()
                    supervisor = daemon.supervisors[path[1]]
                    health["state"] = supervisor.state
                    health["restarts"] = supervisor.total_restarts
                    return health
                if path[2] == "events":
                    return await self._events(path[1], handle, query)
                if path[2] == "sources":
                    return await handle.sources()
                if path[2] == "journal":
                    return await handle.journal()
        if method == "POST":
            if path == ["drain"]:
                daemon.request_drain()
                return {"draining": True}
            if len(path) == 3 and path[0] == "tenants":
                handle = self._handle_for(path[1])
                if path[2] == "promote":
                    return await handle.request("promote")
                if path[2] == "rollback":
                    to = query.get("to")
                    return await handle.request(
                        "rollback", {"to": int(to) if to is not None else None}
                    )
                if path[2] == "requeue":
                    return await handle.request("requeue")
        raise HttpError(404, f"no route for {method} /{'/'.join(path)}")

    async def metrics_text(self) -> str:
        """The ``/metrics`` body: the daemon's event series, then every
        tenant's health as ``tenant=``-labelled gauges.

        The health comes from :meth:`TenantHandle.health` — the reply
        ``/tenants/<id>/health`` serves, for either placement, stale
        fallback included — and is published into a registry of this
        scrape's own, so a key a later life stops reporting leaves no
        gauge behind.
        """
        handles = self._daemon.handles
        healths = await asyncio.gather(
            *(handle.health() for handle in handles.values())
        )
        scrape = MetricsRegistry()
        for name, health in zip(handles, healths):
            publish_tenant_health(scrape, health, tenant=name)
        return to_prom_text(get_registry()) + to_prom_text(scrape)

    def _handle_for(self, name: str):
        handle = self._daemon.handles.get(name)
        if handle is None:
            raise HttpError(404, f"unknown tenant {name!r}")
        return handle

    async def _events(self, name: str, handle, query: dict) -> dict:
        """One events page; ``?wait=SEC`` long-polls for fresh ones.

        A request that finds its cursor at the journal's end parks on a
        wake-on-append future (bounded daemon-wide — past the bound the
        request is refused with 429, counted ``reason="waiters"``) and
        re-reads its page when woken or timed out; a read during which
        the journal grew is retried before it parks, so an append noted
        mid-read is never slept past.  Works identically
        for both placements: the parent owns the waiters, journal
        growth is observed from the tenant's ``batch`` notes.
        """
        daemon = self._daemon
        try:
            cursor = int(query.get("cursor", 0))
            limit = int(query.get("limit", 50))
            wait = float(query.get("wait", 0.0))
        except ValueError:
            raise HttpError(400, "cursor, limit and wait must be numeric")
        if cursor < 0 or limit < 1 or wait < 0:
            raise HttpError(
                400, "cursor and wait must be >= 0 and limit >= 1"
            )
        limit = min(limit, MAX_EVENTS_PAGE)
        while True:
            seen = handle.events_total
            page = await handle.events_page(cursor, limit)
            if not wait or page["events"] or daemon.draining:
                return page
            # From this check to the registration nothing yields, so a
            # note handled after it wakes the waiter.
            if handle.events_total == seen:
                break
        future = daemon.register_event_waiter(name)
        if future is None:
            get_registry().inc(SERVE_HTTP_REJECTED, reason="waiters")
            raise HttpError(429, "long-poll waiter budget exhausted")
        try:
            await asyncio.wait_for(
                future, timeout=min(wait, daemon.config.longpoll_max_wait)
            )
        except asyncio.TimeoutError:
            pass
        finally:
            daemon.unregister_event_waiter(name, future)
        return await handle.events_page(cursor, limit)
