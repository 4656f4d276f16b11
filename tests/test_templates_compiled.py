"""Compiled template matcher ≡ naive reference probe.

The indexed matcher (:mod:`repro.templates.compiled`) must agree with
:func:`tests.oracle.match_template` on *every* input: messages of every
shape both netsim catalogs can emit, fuzzed word sequences, and unseen
codes/shapes (which must fall back to ``<code>/other`` on both paths).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.catalog import CATALOG_V1, CATALOG_V2
from repro.syslog.message import SyslogMessage
from repro.templates.learner import TemplateLearner, TemplateSet
from repro.templates.tokenize import tokenize
from tests.oracle import match_template


def _field_value(name: str, rng: random.Random) -> str:
    """A plausible varying value for a catalog placeholder."""
    if "ip" in name:
        return (
            f"10.{rng.randrange(256)}.{rng.randrange(256)}"
            f".{rng.randrange(1, 255)}"
        )
    if name in ("iface", "port"):
        return f"Serial{rng.randrange(16)}/{rng.randrange(4)}/10:0"
    if name == "ctrl":
        return f"T3 {rng.randrange(16)}/{rng.randrange(4)}"
    if name == "bundle":
        return f"Multilink{rng.randrange(400)}"
    if name in ("slot", "mda", "attempt"):
        return str(rng.randrange(16))
    if name in ("user", "neighbor", "vrf", "lsp", "p1", "p2", "p3"):
        return f"{name}{rng.randrange(50)}"
    return str(rng.randrange(1000))


def _catalog_messages(
    n_per_def: int = 40, seed: int = 11
) -> list[SyslogMessage]:
    """Rendered variants of every shape in both vendor catalogs."""
    rng = random.Random(seed)
    out: list[SyslogMessage] = []
    for d in list(CATALOG_V1.values()) + list(CATALOG_V2.values()):
        for _ in range(n_per_def):
            fields = {
                name: _field_value(name, rng) for name in d.field_names()
            }
            out.append(
                SyslogMessage(
                    timestamp=0.0,
                    router=f"r{rng.randrange(30)}",
                    error_code=d.error_code,
                    detail=d.render(**fields),
                    vendor=d.vendor,
                )
            )
    return out


_LEARNED: TemplateSet | None = None


def _learned() -> TemplateSet:
    """Templates learned over the full two-vendor corpus (built once)."""
    global _LEARNED
    if _LEARNED is None:
        _LEARNED = TemplateLearner().learn(_catalog_messages())
    return _LEARNED


def _vocabulary() -> list[str]:
    """Signature words of every learned template, plus never-seen noise."""
    words = sorted(
        {w for t in _learned().all_templates() for w in t.words}
    )
    return words + ["xyzzy", "quux", "10.9.9.9", "Serial9/9", "0"]


class TestCatalogEquivalence:
    def test_every_catalog_shape_matches_identically(self):
        learned = _learned()
        for message in _catalog_messages(n_per_def=25, seed=77):
            words = tokenize(message.detail)
            compiled = learned.match_words(message.error_code, words)
            reference = match_template(learned, message.error_code, words)
            assert compiled == reference, message.detail

    def test_catalog_shapes_rarely_fall_back(self):
        """Sanity: the corpus actually exercises learned templates."""
        learned = _learned()
        messages = _catalog_messages(n_per_def=10, seed=5)
        hits = sum(
            1
            for m in messages
            if not learned.match(m).key.endswith("/other")
        )
        assert hits > len(messages) * 0.8

    def test_unseen_code_falls_back_both_paths(self):
        learned = _learned()
        words = tokenize("Interface Serial1/0, changed state to down")
        for matched in (
            learned.match_words("NO-SUCH-CODE", words),
            match_template(learned, "NO-SUCH-CODE", words),
        ):
            assert matched.key == "NO-SUCH-CODE/other"
            assert matched.words == ()

    def test_unseen_shape_falls_back_both_paths(self):
        learned = _learned()
        words = tokenize("complete gibberish nothing learned matches")
        for code in sorted(learned.by_code):
            compiled = learned.match_words(code, words)
            reference = match_template(learned, code, words)
            assert compiled == reference


class TestFuzzedEquivalence:
    @given(
        code=st.sampled_from(
            sorted(_learned().by_code) + ["FUZZ-0-NOPE", "WEIRD-9-X"]
        ),
        words=st.lists(st.sampled_from(_vocabulary()), max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_word_sequences_match_identically(self, code, words):
        """Arbitrary word soup: indexed and naive paths always agree."""
        learned = _learned()
        message_words = tuple(words)
        compiled = learned.match_words(code, message_words)
        reference = match_template(learned, code, message_words)
        assert compiled == reference

    @given(
        detail=st.text(
            alphabet="abc /:.,0123456789", min_size=0, max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_raw_details_match_identically(self, detail):
        learned = _learned()
        words = tokenize(detail)
        for code in ("LINK-3-UPDOWN", "BGP-5-ADJCHANGE", "NEW-1-CODE"):
            assert learned.match_words(code, words) == (
                match_template(learned, code, words)
            )
