"""Template learner/matcher tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.syslog.message import SyslogMessage
from repro.templates.learner import TemplateLearner, TemplateSet
from repro.templates.signature import Template, matches_words
from tests.oracle import match_template


def _msg(code: str, detail: str) -> SyslogMessage:
    return SyslogMessage(
        timestamp=0.0, router="r1", error_code=code, detail=detail
    )


def _link_corpus() -> list[SyslogMessage]:
    rng = random.Random(3)
    out = []
    for _ in range(60):
        iface = f"Serial{rng.randrange(16)}/{rng.randrange(4)}/10:0"
        state = rng.choice(["down", "up"])
        out.append(
            _msg(
                "LINK-3-UPDOWN",
                f"Interface {iface}, changed state to {state}",
            )
        )
    return out


class TestLearning:
    def test_down_and_up_subtypes_learned(self):
        learned = TemplateLearner().learn(_link_corpus())
        patterns = {t.pattern() for t in learned.by_code["LINK-3-UPDOWN"]}
        assert "LINK-3-UPDOWN Interface changed state to down" in patterns
        assert "LINK-3-UPDOWN Interface changed state to up" in patterns

    def test_interface_name_masked(self):
        learned = TemplateLearner().learn(_link_corpus())
        for template in learned.by_code["LINK-3-UPDOWN"]:
            assert not any("Serial" in w for w in template.words)

    def test_match_returns_most_specific(self):
        learned = TemplateLearner().learn(_link_corpus())
        message = _msg(
            "LINK-3-UPDOWN",
            "Interface Serial1/0/10:0, changed state to down",
        )
        matched = learned.match(message)
        assert "down" in matched.words

    def test_unseen_code_falls_back(self):
        learned = TemplateLearner().learn(_link_corpus())
        matched = learned.match(_msg("WEIRD-1-THING", "novel message"))
        assert matched.key == "WEIRD-1-THING/other"
        assert matched.words == ()

    def test_unmatchable_shape_falls_back(self):
        learned = TemplateLearner().learn(_link_corpus())
        matched = learned.match(_msg("LINK-3-UPDOWN", "totally different"))
        assert matched.key.endswith("/other")

    def test_subsampling_cap_respected(self):
        corpus = _link_corpus() * 100
        learner = TemplateLearner(max_messages_per_code=100)
        learned = learner.learn(corpus)
        assert len(learned.by_code["LINK-3-UPDOWN"]) >= 2

    def test_template_lookup_by_key(self):
        learned = TemplateLearner().learn(_link_corpus())
        template = learned.by_code["LINK-3-UPDOWN"][0]
        assert learned.get(template.key) == template
        assert learned.get("nope/nope") is None

    def test_merge_keeps_existing_codes(self):
        a = TemplateSet(by_code={"X": [Template("X/0", "X", ("a",))]})
        b = TemplateSet(
            by_code={
                "X": [Template("X/9", "X", ("z",))],
                "Y": [Template("Y/0", "Y", ("b",))],
            }
        )
        a.merge(b)
        assert a.by_code["X"][0].key == "X/0"
        assert "Y" in a.by_code


class TestTieBreak:
    def test_equal_specificity_breaks_on_key_both_paths(self):
        """Two equally specific matches: the smaller key wins,
        regardless of the order the templates are stored in."""
        t_a = Template("C/a", "C", ("x", "z"))
        t_b = Template("C/b", "C", ("x", "y"))
        words = ("x", "y", "z")  # matches both at specificity 2
        for order in ([t_a, t_b], [t_b, t_a]):
            ts = TemplateSet(by_code={"C": list(order)})
            assert ts.match_words("C", words).key == "C/a"
            assert match_template(ts, "C", words).key == "C/a"

    def test_more_specific_still_beats_smaller_key(self):
        t_specific = Template("C/z", "C", ("x", "y", "z"))
        t_small_key = Template("C/a", "C", ("x",))
        ts = TemplateSet(by_code={"C": [t_small_key, t_specific]})
        words = ("x", "y", "z")
        assert ts.match_words("C", words).key == "C/z"
        assert match_template(ts, "C", words).key == "C/z"


class TestMerge:
    def test_partial_overlap_unions_subtypes(self):
        """A code both sets know keeps *both* sides' sub-types."""
        a = TemplateSet(
            by_code={"X": [Template("X/0", "X", ("a",))]}
        )
        b = TemplateSet(
            by_code={
                "X": [
                    Template("X/0", "X", ("a",)),  # shared, identical
                    Template("X/1", "X", ("b", "c")),  # only in b
                ],
                "Y": [Template("Y/0", "Y", ("d",))],
            }
        )
        a.merge(b)
        assert {t.key for t in a.by_code["X"]} == {"X/0", "X/1"}
        assert len(a.by_code["X"]) == 2  # shared key deduplicated
        assert {t.key for t in a.by_code["Y"]} == {"Y/0"}

    def test_same_key_different_template_raises(self):
        a = TemplateSet(by_code={"X": [Template("X/0", "X", ("a",))]})
        b = TemplateSet(by_code={"X": [Template("X/0", "X", ("b",))]})
        with pytest.raises(ValueError, match="X/0"):
            a.merge(b)

    def test_merge_invalidates_compiled_index(self):
        """Templates merged in are matchable immediately, even when a
        compiled index was already built over the pre-merge set."""
        a = TemplateSet(by_code={"X": [Template("X/0", "X", ("a",))]})
        words = ("a", "b", "c")
        assert a.match_words("X", words).key == "X/0"  # compiles index
        a.merge(
            TemplateSet(
                by_code={"X": [Template("X/1", "X", ("a", "b", "c"))]}
            )
        )
        assert a.match_words("X", words).key == "X/1"
        assert match_template(a, "X", words).key == "X/1"


class TestMatchesWords:
    def test_ordered_subsequence(self):
        assert matches_words(("a", "c"), ("a", "b", "c"))
        assert not matches_words(("c", "a"), ("a", "b", "c"))

    def test_empty_signature_matches_anything(self):
        assert matches_words((), ("x",))
        assert matches_words((), ())

    @given(
        st.lists(st.sampled_from("abcdef"), max_size=12),
        st.lists(st.booleans(), max_size=12),
    )
    def test_any_mask_of_words_matches(self, words, mask):
        """Any ordered subset of a message's words is a matching signature."""
        message = tuple(words)
        signature = tuple(
            w for w, keep in zip(message, mask) if keep
        )
        assert matches_words(signature, message)

    def test_duplicate_words_require_multiplicity(self):
        assert matches_words(("a", "a"), ("a", "x", "a"))
        assert not matches_words(("a", "a"), ("a", "x"))
