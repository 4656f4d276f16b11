"""Synthetic network + syslog workload generator.

This package replaces the paper's proprietary inputs (tier-1 ISP and IPTV
backbone syslog feeds, router configs, trouble tickets) with a simulator
that produces the same *statistical structure* the mining algorithms
exploit, plus ground-truth labels the paper could only approximate with
human validation.  See DESIGN.md §2 for the substitution argument.
"""

from repro.netsim.canary import drift_messages, labeled_canary
from repro.netsim.catalog import CATALOG_V1, CATALOG_V2, MessageDef, catalog_for
from repro.netsim.configgen import render_config, render_configs
from repro.netsim.datasets import (
    DatasetSpec,
    dataset_a,
    dataset_b,
    generate_dataset,
)
from repro.netsim.faults import (
    Compose,
    CorruptLines,
    DiskFull,
    DiskIOError,
    DuplicateBurst,
    FaultProfile,
    FeedStall,
    LateLines,
    ReorderLines,
    RotateLog,
    SourceFlap,
    TruncateLines,
    TruncateLog,
    WorkerFaults,
    labeled_pairs,
)
from repro.netsim.generator import WorkloadEngine, WorkloadMix
from repro.netsim.tickets import TroubleTicket, derive_tickets
from repro.netsim.topology import (
    Interface,
    Link,
    Network,
    RouterNode,
    build_network,
)

__all__ = [
    "CATALOG_V1",
    "CATALOG_V2",
    "Compose",
    "CorruptLines",
    "DatasetSpec",
    "DiskFull",
    "DiskIOError",
    "DuplicateBurst",
    "FaultProfile",
    "FeedStall",
    "Interface",
    "LateLines",
    "Link",
    "MessageDef",
    "Network",
    "ReorderLines",
    "RotateLog",
    "RouterNode",
    "SourceFlap",
    "TroubleTicket",
    "TruncateLines",
    "TruncateLog",
    "WorkerFaults",
    "WorkloadEngine",
    "WorkloadMix",
    "build_network",
    "catalog_for",
    "dataset_a",
    "dataset_b",
    "derive_tickets",
    "drift_messages",
    "generate_dataset",
    "labeled_canary",
    "labeled_pairs",
    "render_config",
    "render_configs",
]
