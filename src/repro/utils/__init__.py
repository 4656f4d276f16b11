"""Shared utilities: union-find, EWMA, time, tables, stats."""

from repro.utils.ewma import EwmaEstimator
from repro.utils.stats import quantile, summarize
from repro.utils.textable import render_table
from repro.utils.timeutils import (
    HOUR,
    MINUTE,
    SECOND,
    day_index,
    format_ts,
    parse_ts,
)
from repro.utils.unionfind import UnionFind

__all__ = [
    "EwmaEstimator",
    "HOUR",
    "MINUTE",
    "SECOND",
    "UnionFind",
    "day_index",
    "format_ts",
    "parse_ts",
    "quantile",
    "render_table",
    "summarize",
]
