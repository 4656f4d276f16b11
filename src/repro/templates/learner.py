"""Template learning and matching over whole message streams.

:class:`TemplateLearner` groups historical messages by error code, builds a
sub-type tree per code, and converts every root-to-leaf path into a
:class:`~repro.templates.signature.Template`.  :class:`TemplateSet` then
matches live messages to the most specific learned template — the online
"signature matching" stage that turns raw syslog into Syslog+.

Matching runs on a lazily compiled index (:mod:`repro.templates.compiled`)
that prefilters candidates by word count, a discriminating literal, and
word-set containment before the exact ordered-subsequence verify; the
naive per-template probe is kept as ``tests/oracle.py``'s
``match_template`` and the two are pinned identical by a property test
and the ``make check`` byte-identity gate.  Ties in specificity break
explicitly on ``(specificity, key)`` in both, so the winner never depends
on the order templates were learned or merged in.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.syslog.message import SyslogMessage
from repro.templates.compiled import CompiledTemplateSet
from repro.templates.signature import Template
from repro.templates.tokenize import tokenize
from repro.templates.tree import SubtypeNode, build_subtype_tree


def _rank(template: Template) -> tuple[int, str]:
    """Match preference: most specific first, ties on key."""
    return (-template.specificity, template.key)


@dataclass
class TemplateSet:
    """All templates learned for one network, indexed by error code.

    ``by_code`` must only be mutated through :meth:`merge` (or before the
    first match): matching compiles an index over the templates and
    caches it, and only :meth:`merge` knows to invalidate that cache.
    """

    by_code: dict[str, list[Template]] = field(default_factory=dict)
    _compiled: CompiledTemplateSet | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return sum(len(ts) for ts in self.by_code.values())

    def __getstate__(self) -> dict:
        # The compiled index is a pure cache; shipping it to process-pool
        # workers would bloat every payload, so it is rebuilt on demand.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def all_templates(self) -> list[Template]:
        """Every learned template, across all error codes."""
        return [t for ts in self.by_code.values() for t in ts]

    def get(self, key: str) -> Template | None:
        """Look up a template by its key."""
        for templates in self.by_code.values():
            for template in templates:
                if template.key == key:
                    return template
        return None

    def compiled(self) -> CompiledTemplateSet:
        """The compiled matching index (built lazily, cached)."""
        if self._compiled is None:
            self._compiled = CompiledTemplateSet(self.by_code)
        return self._compiled

    def match(self, message: SyslogMessage) -> Template:
        """Most specific template matching ``message``.

        Messages of an unseen error code, or ones matching no learned
        sub-type, fall back to a code-level catch-all template (key
        ``<code>/other``) — online processing must never drop a message
        just because offline learning had not seen its shape.

        Equal-specificity ties break on the smaller template key, so the
        winner is deterministic regardless of learn or merge order.
        """
        return self.match_words(message.error_code, tokenize(message.detail))

    def match_words(self, code: str, words: tuple[str, ...]) -> Template:
        """:meth:`match` on a pre-tokenized detail (one-pass hot path)."""
        return self.compiled().match_words(code, words)

    def merge(self, other: TemplateSet) -> None:
        """Union ``other``'s templates into this set, per error code.

        Codes only ``other`` knows are adopted wholesale; for shared
        codes the sub-type lists are unioned with key-level dedup, so a
        code both sets know keeps *both* sides' sub-types instead of
        silently dropping ``other``'s.  Two templates with the same key
        but different contents are a corrupt merge and raise
        ``ValueError`` rather than letting one silently win.
        """
        for code, templates in other.by_code.items():
            mine = self.by_code.get(code)
            if mine is None:
                self.by_code[code] = sorted(templates, key=_rank)
                continue
            known = {t.key: t for t in mine}
            for template in templates:
                existing = known.get(template.key)
                if existing is None:
                    mine.append(template)
                    known[template.key] = template
                elif existing != template:
                    raise ValueError(
                        f"template key {template.key!r} maps to different "
                        f"templates in the two sets being merged"
                    )
            mine.sort(key=_rank)
        self._compiled = None


@dataclass(frozen=True)
class TemplateLearner:
    """Offline template learner.

    Parameters
    ----------
    k:
        Sub-type tree prune threshold (paper: 10).
    max_messages_per_code:
        Per-code subsample cap; tree construction is superlinear in the
        message count and a few thousand examples pin down the frequent
        combinations.  ``None`` disables sampling.
    seed:
        Subsampling seed, for reproducibility.
    """

    k: int = 10
    max_messages_per_code: int | None = 4000
    min_subtype_support: int = 3
    seed: int = 0

    def learn(self, messages: Iterable[SyslogMessage]) -> TemplateSet:
        """Learn templates from historical messages."""
        by_code: dict[str, list[tuple[str, ...]]] = {}
        for message in messages:
            by_code.setdefault(message.error_code, []).append(
                tokenize(message.detail)
            )
        out = TemplateSet()
        rng = random.Random(self.seed)
        for code in sorted(by_code):
            tokenized = by_code[code]
            if (
                self.max_messages_per_code is not None
                and len(tokenized) > self.max_messages_per_code
            ):
                tokenized = rng.sample(tokenized, self.max_messages_per_code)
            tree = build_subtype_tree(
                tokenized, k=self.k, min_support=self.min_subtype_support
            )
            out.by_code[code] = _templates_from_tree(code, tree, tokenized)
        return out


def _ordered_by_position(
    words: frozenset[str], representative: Sequence[str]
) -> tuple[str, ...]:
    """Order a word set by first occurrence in a representative message."""
    position = {}
    for i, word in enumerate(representative):
        if word in words and word not in position:
            position[word] = i
    # Signature words are common to all member messages, so every word has
    # a position; guard anyway to stay total.
    return tuple(sorted(words, key=lambda w: position.get(w, len(representative))))


def _templates_from_tree(
    code: str, tree: SubtypeNode, tokenized: list[tuple[str, ...]]
) -> list[Template]:
    """One template per leaf path of the sub-type tree."""
    templates: list[Template] = []
    counter = 0
    for node, path_words in tree.walk():
        if not node.is_leaf or not node.message_ids:
            continue
        representative = tokenized[node.message_ids[0]]
        ordered = _ordered_by_position(path_words, representative)
        templates.append(
            Template(key=f"{code}/{counter}", error_code=code, words=ordered)
        )
        counter += 1
    if not templates:
        templates.append(Template(key=f"{code}/0", error_code=code, words=()))
    # Stored in match-preference order: most specific first, ties on key
    # (the matcher applies the same rank explicitly, so storage order is
    # cosmetic — but keeping them aligned makes dumps readable).
    templates.sort(key=_rank)
    return templates
