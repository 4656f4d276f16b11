"""The domain knowledge base the offline stage produces (Figure 1).

Holds everything online processing needs: the template set, the location
dictionary, fitted temporal parameters, the association-rule store, and
historical per-(router, template) frequencies used by prioritization.
Serializes to JSON so the weekly offline refresh can hand the online system
a file, as an operational deployment would.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.locations.dictionary import LocationDictionary
from repro.locations.model import Location, LocationKind
from repro.mining.rules import AssociationRule, RuleMiner
from repro.mining.rulestore import RuleStore
from repro.mining.temporal import TemporalParams
from repro.templates.learner import TemplateSet
from repro.templates.signature import Template

#: Serialization format of :meth:`KnowledgeBase.to_json`.  Version 1 is
#: the legacy payload without the ``format_version`` field; loading a
#: payload newer than this raises :class:`KnowledgeFormatError` instead
#: of failing on some missing key deep inside deserialization.
KB_FORMAT_VERSION = 2


#: Top-level keys every payload carries (``format_version`` is optional).
_PAYLOAD_KEYS = (
    "templates", "miner", "rules", "temporal", "frequencies",
    "history_days", "dictionary",
)


class KnowledgeFormatError(ValueError):
    """A knowledge base that cannot be loaded: a missing or unreadable
    file, invalid JSON, a missing top-level key, or an unsupported
    format version.

    Carries the offending ``source`` (file path or ``"<string>"``) and,
    for a version refusal, the ``found`` version, so operators see
    *what* refused to load and why.
    """

    def __init__(
        self, source: str, found: object = None, reason: str | None = None
    ) -> None:
        self.source = source
        self.found = found
        if reason is None:
            reason = (
                f"has format_version {found!r}; "
                f"this build supports up to {KB_FORMAT_VERSION}"
            )
        super().__init__(f"knowledge base {source} {reason}")


@dataclass
class KnowledgeBase:
    """Learned domain knowledge for one network."""

    templates: TemplateSet
    dictionary: LocationDictionary
    temporal: TemporalParams
    rules: RuleStore
    # Historical occurrence count of each (router, template_key).
    frequencies: dict[tuple[str, str], int] = field(default_factory=dict)
    # Days of history behind ``frequencies`` (normalizes to per-day rates).
    history_days: float = 1.0

    def frequency(self, router: str, template_key: str) -> float:
        """Historical per-day frequency, 0 for never-seen signatures."""
        count = self.frequencies.get((router, template_key), 0)
        return count / max(self.history_days, 1e-9)

    def rule_pairs(self) -> set[tuple[str, str]]:
        """Unordered template pairs related by at least one rule."""
        return self.rules.undirected_pairs()

    # ------------------------------------------------------------- serialization

    def to_json(self) -> str:
        """Serialize to a JSON document."""
        payload = {
            "format_version": KB_FORMAT_VERSION,
            "temporal": {
                "alpha": self.temporal.alpha,
                "beta": self.temporal.beta,
                "s_min": self.temporal.s_min,
                "s_max": self.temporal.s_max,
            },
            "miner": {
                "window": self.rules.miner.window,
                "sp_min": self.rules.miner.sp_min,
                "conf_min": self.rules.miner.conf_min,
            },
            "templates": {
                code: [
                    {"key": t.key, "words": list(t.words)}
                    for t in templates
                ]
                for code, templates in self.templates.by_code.items()
            },
            "rules": [
                {
                    "x": r.x,
                    "y": r.y,
                    "support_x": r.support_x,
                    "support_pair": r.support_pair,
                    "confidence": r.confidence,
                }
                for r in self.rules.rules
            ],
            "pinned_pairs": sorted(list(p) for p in self.rules._pinned),
            "suppressed_pairs": sorted(
                list(p) for p in self.rules._suppressed
            ),
            "frequencies": [
                {"router": router, "template": template, "count": count}
                for (router, template), count in sorted(
                    self.frequencies.items()
                )
            ],
            "history_days": self.history_days,
            "dictionary": _dictionary_to_dict(self.dictionary),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(
        cls, text: str, source: str = "<string>"
    ) -> KnowledgeBase:
        """Reconstruct a knowledge base serialized by :meth:`to_json`.

        Payloads without a ``format_version`` field are treated as the
        legacy version 1.  Invalid JSON, a missing top-level key, or a
        version newer than :data:`KB_FORMAT_VERSION` raises
        :class:`KnowledgeFormatError` naming ``source``.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise KnowledgeFormatError(
                source, reason=f"is not valid JSON ({exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise KnowledgeFormatError(source, reason="is not a JSON object")
        found = payload.get("format_version", 1)
        if not isinstance(found, int) or found > KB_FORMAT_VERSION:
            raise KnowledgeFormatError(source, found)
        missing = [key for key in _PAYLOAD_KEYS if key not in payload]
        if missing:
            raise KnowledgeFormatError(
                source, reason=f"lacks top-level key(s) {', '.join(missing)}"
            )
        templates = TemplateSet(
            by_code={
                code: [
                    Template(
                        key=item["key"],
                        error_code=code,
                        words=tuple(item["words"]),
                    )
                    for item in items
                ]
                for code, items in payload["templates"].items()
            }
        )
        miner = RuleMiner(**payload["miner"])
        store = RuleStore(miner=miner)
        for item in payload["rules"]:
            rule = AssociationRule(**item)
            store._rules[(rule.x, rule.y)] = rule
        for x, y in payload.get("pinned_pairs", ()):
            store.pin(x, y)
        for x, y in payload.get("suppressed_pairs", ()):
            store.suppress(x, y)
        return cls(
            templates=templates,
            dictionary=_dictionary_from_dict(payload["dictionary"]),
            temporal=TemporalParams(**payload["temporal"]),
            rules=store,
            frequencies={
                (item["router"], item["template"]): item["count"]
                for item in payload["frequencies"]
            },
            history_days=payload["history_days"],
        )

    def save(self, path: str | Path) -> None:
        """Write the JSON serialization to ``path``."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> KnowledgeBase:
        """Read a knowledge base serialized by :meth:`save`.

        A file that cannot be read raises :class:`KnowledgeFormatError`
        naming ``path``, like a payload that cannot be parsed.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or str(exc)
            raise KnowledgeFormatError(
                str(path), reason=f"cannot be read ({reason})"
            ) from exc
        return cls.from_json(text, source=str(path))

    def fingerprint(self) -> str:
        """Content hash of the serialized knowledge (sha256 hex).

        Computed over a canonical re-dump (sorted keys, no whitespace)
        so two bases holding the same knowledge fingerprint identically
        regardless of dict insertion order.  The model store uses this
        to detect no-op refreshes and verify versions on load.
        """
        canonical = json.dumps(
            json.loads(self.to_json()),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def clone(self) -> KnowledgeBase:
        """Deep, independent copy (via the JSON round trip).

        The refresh path mutates a *candidate* clone so the active base
        keeps serving unchanged until the promotion gate accepts.
        """
        return KnowledgeBase.from_json(self.to_json(), source="<clone>")


def _loc_to_list(loc: Location) -> list:
    return [loc.router, loc.kind.name, loc.name]


def _loc_from_list(item: list) -> Location:
    return Location(item[0], LocationKind[item[1]], item[2])


def _dictionary_to_dict(dictionary: LocationDictionary) -> dict:
    return {
        "routers": sorted(dictionary.routers),
        "sites": {
            router: dictionary.site_of(router)
            for router in sorted(dictionary.routers)
            if dictionary.site_of(router)
        },
        "components": {
            router: [
                _loc_to_list(loc)
                for loc in sorted(dictionary.components_of(router))
            ]
            for router in sorted(dictionary.routers)
        },
        "ips": {
            ip: _loc_to_list(loc)
            for ip, loc in sorted(dictionary._ip_to_location.items())
        },
        "links": [
            [_loc_to_list(a), _loc_to_list(b)]
            for a, b in sorted(dictionary.all_links())
        ],
        "multilinks": [
            [_loc_to_list(bundle), [_loc_to_list(m) for m in sorted(members)]]
            for bundle, members in sorted(
                dictionary._multilink_members.items()
            )
        ],
    }


def _dictionary_from_dict(payload: dict) -> LocationDictionary:
    dictionary = LocationDictionary()
    sites = payload.get("sites", {})
    for router in payload["routers"]:
        dictionary.add_router(router, sites.get(router))
    for router, items in payload["components"].items():
        for item in items:
            loc = _loc_from_list(item)
            dictionary._components.setdefault(router, set()).add(loc)
    for ip, item in payload["ips"].items():
        dictionary.set_ip(_loc_from_list(item), ip)
    for a_item, b_item in payload["links"]:
        dictionary.add_link(_loc_from_list(a_item), _loc_from_list(b_item))
    for bundle_item, member_items in payload.get("multilinks", []):
        bundle = _loc_from_list(bundle_item)
        for member_item in member_items:
            dictionary.add_multilink_member(
                bundle, _loc_from_list(member_item)
            )
    return dictionary
