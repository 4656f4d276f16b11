"""Paper-scale traffic synthesis: millions of messages, 1k+ routers.

The evaluation datasets (:mod:`repro.netsim.datasets`) model the paper's
*scenarios* faithfully — phased-in behaviours, cascades, ground-truth
labels — but their workload engine pays for that fidelity per message,
which makes million-message throughput runs impractically slow to set
up.  This module trades the labels away for volume: it renders the same
catalog message shapes over a full-size backbone (default 1000 routers)
with a heavy-tailed (Zipf) per-router volume split, emitting messages in
non-decreasing time order at any requested count.  Field values come
from each router's real inventory (its interfaces, controllers, bundles,
slots, link/loopback IPs), so signature matching, location extraction
and the grouping passes all do representative work.

Everything is deterministic in the spec's seed, and :meth:`stream`
yields the messages lazily so a 1M-message run never holds the whole
day in memory.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.netsim.catalog import CATALOG_V1, MessageDef
from repro.netsim.configgen import render_configs
from repro.netsim.topology import Network, build_network
from repro.syslog.message import SyslogMessage
from repro.utils.timeutils import DAY, parse_ts

#: Default first timestamp of the scale stream (continuity with the
#: evaluation datasets' online window; any start works).
SCALE_START = parse_ts("2009-12-01 00:00:00")


@dataclass(frozen=True)
class ScaleSpec:
    """Recipe for one deterministic scale run."""

    n_routers: int = 1000
    n_messages: int = 1_000_000
    duration_days: float = 1.0
    #: Exponent of the per-router volume ranking; ~1 is the classic
    #: heavy tail where the busiest routers dominate (paper Figure 13).
    zipf_exponent: float = 1.1
    seed: int = 7


@dataclass(frozen=True)
class _RouterPool:
    """Pre-extracted inventory one router's messages draw fields from."""

    name: str
    ifaces: tuple[str, ...]
    ctrls: tuple[str, ...]
    bundles: tuple[str, ...]
    slots: tuple[int, ...]
    peer_ips: tuple[str, ...]
    peer_names: tuple[str, ...]


_USERS = ("admin", "noc1", "noc2", "autoconf", "netops")


def _rand_ip(rng: random.Random) -> str:
    """An internet-looking IP for scanner/management chatter."""
    return (
        f"{rng.randrange(11, 223)}.{rng.randrange(256)}"
        f".{rng.randrange(256)}.{rng.randrange(1, 255)}"
    )


def _build_shape_mix() -> list[tuple[MessageDef, float, str]]:
    """(message shape, relative weight, field builder id) triples.

    Weights roughly follow operational syslog: interface churn dominates,
    protocol adjacencies follow, platform health and management chatter
    trail.  Builder ids name the field recipe ``_fields`` dispatches on.
    """
    c = CATALOG_V1
    return [
        (c["v1.link_down"], 14.0, "iface"),
        (c["v1.link_up"], 14.0, "iface"),
        (c["v1.lineproto_down"], 10.0, "iface"),
        (c["v1.lineproto_up"], 10.0, "iface"),
        (c["v1.controller_down"], 4.0, "ctrl"),
        (c["v1.controller_up"], 4.0, "ctrl"),
        (c["v1.mlp_degraded"], 3.0, "bundle"),
        (c["v1.mlp_restored"], 3.0, "bundle"),
        (c["v1.card_removed"], 1.5, "slot"),
        (c["v1.card_inserted"], 1.5, "slot"),
        (c["v1.bgp_up"], 6.0, "bgp"),
        (c["v1.bgp_down_ifflap"], 3.0, "bgp"),
        (c["v1.bgp_down_sent"], 2.0, "bgp"),
        (c["v1.bgp_down_received"], 2.0, "bgp"),
        (c["v1.bgp_down_peerclosed"], 2.0, "bgp"),
        (c["v1.ospf_down"], 3.0, "ip_iface"),
        (c["v1.ospf_up"], 3.0, "ip_iface"),
        (c["v1.isis_down"], 2.0, "neighbor_iface"),
        (c["v1.isis_up"], 2.0, "neighbor_iface"),
        (c["v1.pim_nbr_down"], 2.0, "ip_iface"),
        (c["v1.pim_nbr_up"], 2.0, "ip_iface"),
        (c["v1.cpu_rising"], 4.0, "cpu"),
        (c["v1.cpu_falling"], 4.0, "cpu_simple"),
        (c["v1.env_temp"], 1.0, "temp"),
        (c["v1.env_fan"], 1.0, "fan"),
        (c["v1.tcp_badauth"], 2.0, "scan"),
        (c["v1.acl_deny"], 2.0, "scan4"),
        (c["v1.config_change"], 2.0, "mgmt"),
        (c["v1.ntp_sync"], 1.0, "peer_ip"),
        (c["v1.snmp_auth"], 1.0, "rand_ip"),
    ]


class ScaleGenerator:
    """Deterministic scale-stream factory over one built backbone."""

    def __init__(self, spec: ScaleSpec | None = None) -> None:
        self.spec = spec or ScaleSpec()
        self.network: Network = build_network(
            vendor="V1", n_routers=self.spec.n_routers, seed=self.spec.seed
        )
        self._pools = self._build_pools(self.network)
        self._names = sorted(self._pools)
        # Heavy tail: shuffle the rank order (busy routers scattered over
        # the name space), then weight rank r as (r+1)^-s.
        rng = random.Random(self.spec.seed ^ 0x5CA1E)
        ranked = list(self._names)
        rng.shuffle(ranked)
        s = self.spec.zipf_exponent
        weight_of = {
            name: (rank + 1) ** -s for rank, name in enumerate(ranked)
        }
        self._cum_weights: list[float] = []
        total = 0.0
        for name in self._names:
            total += weight_of[name]
            self._cum_weights.append(total)
        self._shapes = _build_shape_mix()
        self._shape_cum: list[float] = []
        total = 0.0
        for _, weight, _ in self._shapes:
            total += weight
            self._shape_cum.append(total)

    def configs(self) -> list[str]:
        """Rendered router configs (location-dictionary input)."""
        return list(render_configs(self.network).values())

    @staticmethod
    def _build_pools(network: Network) -> dict[str, _RouterPool]:
        peer_ips: dict[str, list[str]] = {name: [] for name in network.routers}
        peer_names: dict[str, list[str]] = {
            name: [] for name in network.routers
        }
        for link in network.links:
            peer_ips[link.router_a].append(link.ip_b)
            peer_ips[link.router_b].append(link.ip_a)
            peer_names[link.router_a].append(link.router_b)
            peer_names[link.router_b].append(link.router_a)
        pools: dict[str, _RouterPool] = {}
        for name, node in network.routers.items():
            ifaces: list[str] = []
            ctrls: set[str] = set()
            bundles: list[str] = []
            for ifname in node.interfaces:
                if ifname.startswith("Multilink"):
                    bundles.append(ifname)
                elif not ifname.startswith("Loopback"):
                    ifaces.append(ifname)
                    ctrl = node.controller_of(ifname)
                    if ctrl:
                        ctrls.add(ctrl)
            pools[name] = _RouterPool(
                name=name,
                ifaces=tuple(sorted(ifaces)),
                ctrls=tuple(sorted(ctrls)),
                bundles=tuple(sorted(bundles)),
                slots=tuple(range(node.n_slots)),
                peer_ips=tuple(peer_ips[name]),
                peer_names=tuple(peer_names[name]),
            )
        return pools

    # ------------------------------------------------------------- rendering

    def _fields(
        self, builder: str, pool: _RouterPool, rng: random.Random
    ) -> dict[str, object] | None:
        """Field values for one shape; None when the pool can't supply them."""
        if builder == "iface":
            if not pool.ifaces:
                return None
            return {"iface": rng.choice(pool.ifaces)}
        if builder == "ctrl":
            if not pool.ctrls:
                return None
            return {"ctrl": rng.choice(pool.ctrls)}
        if builder == "bundle":
            if not pool.bundles:
                return None
            return {"bundle": rng.choice(pool.bundles)}
        if builder == "slot":
            return {"slot": rng.choice(pool.slots)}
        if builder == "bgp":
            if not pool.peer_ips:
                return None
            return {
                "ip": rng.choice(pool.peer_ips),
                "vrf": f"cust{rng.randrange(1, 40)}",
            }
        if builder == "ip_iface":
            if not pool.peer_ips or not pool.ifaces:
                return None
            return {
                "ip": rng.choice(pool.peer_ips),
                "iface": rng.choice(pool.ifaces),
            }
        if builder == "neighbor_iface":
            if not pool.peer_names or not pool.ifaces:
                return None
            return {
                "neighbor": rng.choice(pool.peer_names),
                "iface": rng.choice(pool.ifaces),
            }
        if builder == "cpu":
            return {
                "total": rng.randrange(80, 100),
                "intr": rng.randrange(5, 30),
                "p1": rng.randrange(100, 400),
                "u1": rng.randrange(20, 60),
                "p2": rng.randrange(100, 400),
                "u2": rng.randrange(5, 20),
                "p3": rng.randrange(100, 400),
                "u3": rng.randrange(1, 10),
            }
        if builder == "cpu_simple":
            return {
                "total": rng.randrange(20, 60),
                "intr": rng.randrange(2, 15),
            }
        if builder == "temp":
            return {
                "slot": rng.choice(pool.slots),
                "temp": rng.randrange(55, 90),
            }
        if builder == "fan":
            return {
                "slot": rng.choice(pool.slots),
                "rpm": rng.randrange(800, 2000),
            }
        if builder == "scan":
            return {
                "src_ip": _rand_ip(rng),
                "src_port": rng.randrange(1024, 65535),
                "dst_ip": _rand_ip(rng),
            }
        if builder == "scan4":
            return {
                "src_ip": _rand_ip(rng),
                "src_port": rng.randrange(1024, 65535),
                "dst_ip": _rand_ip(rng),
                "dst_port": rng.randrange(1, 1024),
            }
        if builder == "mgmt":
            return {"user": rng.choice(_USERS), "ip": _rand_ip(rng)}
        if builder == "peer_ip":
            if not pool.peer_ips:
                return None
            return {"ip": rng.choice(pool.peer_ips)}
        if builder == "rand_ip":
            return {"ip": _rand_ip(rng)}
        raise ValueError(f"unknown field builder {builder!r}")

    def _emit(
        self, ts: float, pool: _RouterPool, rng: random.Random
    ) -> SyslogMessage:
        """One rendered message for ``pool``'s router at ``ts``."""
        shapes, cum = self._shapes, self._shape_cum
        pick = rng.random() * cum[-1]
        lo = 0
        while cum[lo] < pick:  # cum is short (~30); linear scan is fine
            lo += 1
        definition, _, builder = shapes[lo]
        fields = self._fields(builder, pool, rng)
        if fields is None:
            # Inventory can't supply this shape (e.g. no bundles on an
            # access router): fall back to plain interface churn.
            definition = self._shapes[0][0]
            fields = {"iface": rng.choice(pool.ifaces)}
        return SyslogMessage(
            timestamp=ts,
            router=pool.name,
            error_code=definition.error_code,
            detail=definition.render(**fields),
            vendor="V1",
        )

    # -------------------------------------------------------------- streams

    def stream(
        self,
        n_messages: int | None = None,
        start_ts: float = SCALE_START,
        seed_salt: int = 0,
    ) -> Iterator[SyslogMessage]:
        """Yield messages in non-decreasing time order.

        ``seed_salt`` derives independent-but-deterministic streams from
        one generator (the learning corpus uses a different salt than the
        measured stream so the digest never sees its training data).
        """
        spec = self.spec
        n = spec.n_messages if n_messages is None else n_messages
        rng = random.Random((spec.seed << 8) ^ seed_salt)
        rate = n / (spec.duration_days * DAY)
        names, cum_weights = self._names, self._cum_weights
        pools = self._pools
        ts = start_ts
        emitted = 0
        while emitted < n:
            batch = min(8192, n - emitted)
            routers = rng.choices(names, cum_weights=cum_weights, k=batch)
            for router in routers:
                ts += rng.expovariate(rate)
                yield self._emit(ts, pools[router], rng)
            emitted += batch

    def learning_messages(
        self, n_messages: int = 30_000
    ) -> list[SyslogMessage]:
        """A historical corpus for template learning (disjoint stream).

        Drawn from the same shape mix and inventory, one learning window
        ahead of :data:`SCALE_START`, with an independent seed salt.
        """
        return list(
            self.stream(
                n_messages,
                start_ts=SCALE_START - 28 * DAY,
                seed_salt=0xB00C,
            )
        )
