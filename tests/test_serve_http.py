"""HTTP API: routing, payload shapes, pagination, error handling.

Routing logic is exercised through ``HttpApi._dispatch`` (handlers run
on the event loop between tenant steps, so dispatch *is* the whole
request path minus socket I/O), plus one real-socket round trip to
cover the asyncio server itself.

The fixture daemon is the real one, run with ``once=True`` to its
drained end, so the routes answer from what a finished life left
behind: the snapshot of its ``drain`` reply and the journals on disk.
Every route class runs once per placement (the ``Process`` subclasses),
and :class:`TestPlacementParity` holds the two to the same bytes.
"""

from __future__ import annotations

import asyncio
import json
import re
import time

import pytest

from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.http import MAX_EVENTS_PAGE, HttpApi
from repro.serve.tenant import PLACEMENTS
from repro.syslog.stream import write_log

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def farm(system_a, live_a, tmp_path_factory):
    """One kb and one source log, shared by every daemon below."""
    root = tmp_path_factory.mktemp("http")
    kb_path = root / "kb.json"
    system_a.kb.save(kb_path)
    write_log(root / "s1.log", [m.message for m in live_a.messages][:400])
    return root


def _daemon(root, label: str, placement: str, once: bool) -> ServeDaemon:
    workdir = root / label
    return ServeDaemon(
        ServeConfig.from_dict(
            {
                "workdir": str(workdir),
                "once": once,
                "poll_interval": 0.05,
                "tenants": [
                    {
                        "name": "net-a",
                        "sources": [str(root / "s1.log")],
                        "workdir": str(workdir / "net-a"),
                        "kb_path": str(root / "kb.json"),
                        "placement": placement,
                    }
                ],
            }
        )
    )


@pytest.fixture(scope="module")
def drained(farm):
    """Per placement: a one-tenant daemon run with ``once`` to its end."""
    daemons = {}
    for placement in PLACEMENTS:
        daemons[placement] = _daemon(farm, placement, placement, once=True)
        assert asyncio.run(daemons[placement].run()) == 0
    return daemons


@pytest.fixture
def placement():
    return "inline"


@pytest.fixture
def daemon(drained, placement):
    return drained[placement]


def _get(daemon, target: str):
    request = f"GET {target} HTTP/1.0\r\n\r\n".encode()
    return asyncio.run(daemon.api._dispatch(request))


def _post(daemon, target: str):
    request = f"POST {target} HTTP/1.0\r\n\r\n".encode()
    return asyncio.run(daemon.api._dispatch(request))


class TestRoutes:
    def test_healthz(self, daemon):
        status, body, _ = _get(daemon, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["tenants"] == {"net-a": "drained"}

    def test_tenants_listing(self, daemon):
        status, body, _ = _get(daemon, "/tenants")
        (row,) = json.loads(body)
        assert row["name"] == "net-a"
        assert row["state"] == "drained"
        assert row["events"] > 0

    def test_tenant_health_carries_supervisor_state(self, daemon):
        status, body, _ = _get(daemon, "/tenants/net-a/health")
        payload = json.loads(body)
        assert payload["state"] == "drained"
        assert payload["restarts"] == 0
        assert "stream" in payload and "ingest" in payload

    def test_metrics_is_prometheus_text(self, daemon):
        status, body, content_type = _get(daemon, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "syslogdigest_" in body

    def test_sources_and_journal(self, daemon):
        _, body, _ = _get(daemon, "/tenants/net-a/sources")
        (row,) = json.loads(body)
        assert row["state"] == "closed"
        _, body, _ = _get(daemon, "/tenants/net-a/journal")
        payload = json.loads(body)
        assert [t["to"] for t in payload["supervisor"]] == [
            "healthy",
            "drained",
        ]

    def test_drain_endpoint_sets_the_flag(self, daemon):
        assert not daemon.draining
        status, body, _ = _post(daemon, "/drain")
        assert status == 200 and json.loads(body) == {"draining": True}
        assert daemon.draining
        daemon.draining = False


class TestEventsPagination:
    def test_cursor_walk_covers_everything_once(self, daemon):
        total = daemon.handles["net-a"].events_total
        assert total > 0
        seen = []
        cursor = 0
        while cursor is not None:
            _, body, _ = _get(
                daemon, f"/tenants/net-a/events?cursor={cursor}&limit=7"
            )
            page = json.loads(body)
            assert page["total"] == total
            seen.extend(e["cursor"] for e in page["events"])
            cursor = page["next_cursor"]
        assert seen == list(range(total))

    def test_event_payload_shape(self, daemon):
        _, body, _ = _get(daemon, "/tenants/net-a/events?limit=1")
        (event,) = json.loads(body)["events"]
        assert set(event) == {
            "cursor",
            "label",
            "score",
            "start_ts",
            "end_ts",
            "n_messages",
            "routers",
            "error_codes",
            "template_keys",
            "locations",
        }

    def test_limit_is_capped(self, daemon):
        _, body, _ = _get(
            daemon, f"/tenants/net-a/events?limit={MAX_EVENTS_PAGE * 10}"
        )
        assert len(json.loads(body)["events"]) <= MAX_EVENTS_PAGE

    def test_bad_cursor_is_400(self, daemon):
        status, body, _ = _get(daemon, "/tenants/net-a/events?cursor=x")
        assert status == 400
        status, _, _ = _get(daemon, "/tenants/net-a/events?cursor=-1")
        assert status == 400


    def test_negative_wait_is_400_naming_wait(self, daemon):
        status, body, _ = _get(daemon, "/tenants/net-a/events?wait=-1")
        assert status == 400
        assert "wait" in json.loads(body)["error"]


class TestLongPollWakeup:
    def test_append_noted_during_the_page_read_is_not_slept_past(
        self, farm
    ):
        """The watch can handle a ``batch`` note while ``_events`` awaits
        its page read (an RPC on a process placement): the append is
        then noted before any waiter is parked.  The request must see
        the event at once, not sleep out its whole ``wait``."""
        daemon = _daemon(farm, "lost-wakeup", "inline", once=False)

        class AppendingHandle:
            """A journal that grows by one event during the first read."""

            events_total = 0

            async def events_page(self, cursor, limit):
                page = {"events": [], "next_cursor": None, "total": 0}
                if self.events_total == 0:
                    await asyncio.sleep(0)  # the read's RPC round trip
                    self.events_total = 1
                    daemon.notify_events("net-a")
                    return page
                event = {"cursor": 0}
                return dict(page, events=[event], total=1)

        async def scenario():
            start = time.monotonic()
            page = await daemon.api._events(
                "net-a", AppendingHandle(), {"wait": "3"}
            )
            return page, time.monotonic() - start

        page, elapsed = asyncio.run(scenario())
        assert page["events"] == [{"cursor": 0}]
        assert elapsed < 1.0, elapsed
        assert not daemon._event_waiters.get("net-a")


class TestErrors:
    def test_unknown_tenant_404(self, daemon):
        status, body, _ = _get(daemon, "/tenants/nope/health")
        assert status == 404
        assert "nope" in json.loads(body)["error"]

    def test_unknown_route_404(self, daemon):
        status, _, _ = _get(daemon, "/does/not/exist")
        assert status == 404

    def test_method_not_allowed(self, daemon):
        status, _, _ = asyncio.run(
            daemon.api._dispatch(b"PUT /healthz HTTP/1.0\r\n\r\n")
        )
        assert status == 405

    def test_promote_without_store_is_an_error(self, farm, placement):
        """Mutations need a live life: asked while one is attached."""
        daemon = _daemon(farm, f"promote-{placement}", placement, once=False)

        async def scenario():
            run = asyncio.create_task(daemon.run())
            deadline = time.monotonic() + 120.0
            while not daemon.handles["net-a"].alive:
                assert not run.done() and time.monotonic() < deadline
                await asyncio.sleep(0.02)
            reply = await daemon.api._dispatch(
                b"POST /tenants/net-a/promote HTTP/1.0\r\n\r\n"
            )
            daemon.request_drain()
            assert await run == 0
            return reply

        status, body, _ = asyncio.run(scenario())
        assert status == 500
        assert "store_dir" in json.loads(body)["error"]


class TestRoutesProcess(TestRoutes):
    @pytest.fixture
    def placement(self):
        return "process"


class TestEventsPaginationProcess(TestEventsPagination):
    @pytest.fixture
    def placement(self):
        return "process"


class TestErrorsProcess(TestErrors):
    @pytest.fixture
    def placement(self):
        return "process"


class TestPlacementParity:
    #: A monotonic clock reading, not served state.
    CLOCK = re.compile(r'"checkpoint_age_seconds": [^,}]+')

    @pytest.mark.parametrize(
        "route", ["health", "sources", "journal", "events"]
    )
    def test_bodies_are_byte_identical_across_placements(
        self, drained, route
    ):
        bodies = {}
        for placement, daemon in drained.items():
            status, body, _ = _get(daemon, f"/tenants/net-a/{route}")
            assert status == 200
            bodies[placement] = self.CLOCK.sub("", body).replace(
                f'"placement": "{placement}"', '"placement": ""'
            )
        assert bodies["inline"] == bodies["process"]


class TestRealSocket:
    def test_round_trip_over_a_real_connection(self, daemon):
        async def scenario():
            api = HttpApi(daemon)
            await api.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", api.port
                )
                writer.write(b"GET /healthz HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
            finally:
                await api.stop()
            return raw

        raw = asyncio.run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert json.loads(body)["status"] == "ok"
