"""Baselines SyslogDigest is compared against in the benches.

* :mod:`~repro.baselines.severity_filter` — the vendor-severity triage the
  paper argues against (Section 2);
* :mod:`~repro.baselines.drain` — a Drain-style fixed-depth parse-tree
  template miner, the de-facto standard from later log-parsing work, as an
  alternative to the paper's sub-type trees.

The fixed-inactivity-gap baseline needs no module of its own: the EWMA
ablation bench builds it as :class:`~repro.mining.temporal.TemporalParams`
with ``alpha=0`` and a huge ``beta``.
"""

from repro.baselines.drain import DrainMiner
from repro.baselines.severity_filter import severity_filter

__all__ = ["DrainMiner", "severity_filter"]
