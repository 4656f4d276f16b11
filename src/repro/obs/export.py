"""Registry exposition: Prometheus text format and JSON documents.

Two consumers, two shapes.  Scrape-style monitoring gets the Prometheus
exposition format (``to_prom_text``); integration code gets plain dicts
with stable field names (``to_dict`` / ``to_json``), dumped byte-stably.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.registry import Histogram, LabelItems, MetricsRegistry


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(labels: LabelItems, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prom_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus exposition format (text/plain 0.0.4)."""
    lines: list[str] = []

    counters = registry.counters()
    for name in sorted({name for name, _ in counters}):
        lines.append(f"# TYPE {name} counter")
        for (series, labels), value in sorted(counters.items()):
            if series == name:
                lines.append(
                    f"{name}{_label_text(labels)} {_format_value(value)}"
                )

    gauges = registry.gauges()
    for name in sorted({name for name, _ in gauges}):
        lines.append(f"# TYPE {name} gauge")
        for (series, labels), value in sorted(gauges.items()):
            if series == name:
                lines.append(
                    f"{name}{_label_text(labels)} {_format_value(value)}"
                )

    histograms = registry.histograms()
    for name in sorted({name for name, _ in histograms}):
        lines.append(f"# TYPE {name} histogram")
        for (series, labels), hist in sorted(histograms.items()):
            if series != name:
                continue
            cum = 0
            for bound, count in zip(
                (*hist.bounds, math.inf), hist.bucket_counts
            ):
                cum += count
                le = (("le", _format_value(bound)),)
                lines.append(
                    f"{name}_bucket{_label_text(labels, le)} {cum}"
                )
            lines.append(
                f"{name}_sum{_label_text(labels)} {repr(hist.total)}"
            )
            lines.append(f"{name}_count{_label_text(labels)} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _series_entry(labels: LabelItems, **fields) -> dict:
    return {"labels": dict(labels), **fields}


def to_dict(registry: MetricsRegistry) -> dict:
    """The registry as one JSON-serializable document.

    Series are grouped by metric name and sorted, so two dumps of the
    same registry are byte-identical.
    """
    out: dict[str, dict[str, list[dict]]] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for (name, labels), value in sorted(registry.counters().items()):
        out["counters"].setdefault(name, []).append(
            _series_entry(labels, value=value)
        )
    for (name, labels), value in sorted(registry.gauges().items()):
        out["gauges"].setdefault(name, []).append(
            _series_entry(labels, value=value)
        )
    for (name, labels), hist in sorted(registry.histograms().items()):
        out["histograms"].setdefault(name, []).append(
            _series_entry(labels, **hist.snapshot())
        )
    return out


def to_json(registry: MetricsRegistry) -> str:
    """JSON text of :func:`to_dict`."""
    return json.dumps(to_dict(registry), indent=1)


def write_metrics(path: str | Path, registry: MetricsRegistry) -> Path:
    """Dump the registry to ``path``: JSON for ``*.json``, else Prometheus."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        text = to_json(registry)
    else:
        text = to_prom_text(registry)
    path.write_text(text + ("\n" if not text.endswith("\n") else ""),
                    encoding="utf-8")
    return path
