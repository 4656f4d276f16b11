"""Syslog+ — raw messages augmented with template and location (Section 3.1).

The augmentation is the same offline (preparing historical Syslog+ for
mining) and online (feeding the groupers), so both share this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.locations.dictionary import LocationDictionary
from repro.locations.extract import ExtractedLocation, LocationExtractor
from repro.locations.model import Location
from repro.obs import stage_timer
from repro.syslog.message import SyslogMessage
from repro.templates.learner import TemplateSet
from repro.templates.signature import Template
from repro.templates.tokenize import tokenize

#: Bound on the per-augmenter memo of (router, code, detail) results.
#: Message text is external input, so the memo clears wholesale when full
#: rather than growing without bound.
_MAX_AUGMENT_CACHE = 1 << 17


@dataclass(frozen=True)
class SyslogPlus:
    """One augmented message.

    ``index`` is the message's position in the processed stream; digests
    carry index lists so the raw messages of an event can be retrieved
    (the paper's "index field").
    """

    index: int
    message: SyslogMessage
    template: Template
    locations: tuple[ExtractedLocation, ...]
    primary_location: Location

    @property
    def timestamp(self) -> float:
        """The raw message's timestamp."""
        return self.message.timestamp

    @property
    def router(self) -> str:
        """The raw message's originating router."""
        return self.message.router

    @property
    def template_key(self) -> str:
        """Key of the matched template."""
        return self.template.key

    def local_locations(self) -> tuple[Location, ...]:
        """Locations owned by the originating router or a direct neighbor."""
        return tuple(
            item.location
            for item in self.locations
            if item.role in ("local", "neighbor", "router")
        )


class Augmenter:
    """Signature matching + location parsing -> Syslog+ stream.

    Syslog is extremely repetitive — a flapping interface emits the same
    ``(router, code, detail)`` thousands of times — so the augmenter
    memoizes the template/location result per distinct message body and
    tokenizes each detail exactly once.  The memo is per-instance, and
    augmenters are rebuilt whenever the knowledge base is swapped, so a
    cached result can never outlive the templates or dictionary it was
    computed from.
    """

    def __init__(
        self, templates: TemplateSet, dictionary: LocationDictionary
    ) -> None:
        self._templates = templates
        self._extractor = LocationExtractor(dictionary)
        self._counter = 0
        self._memo: dict[
            tuple[str, str, str],
            tuple[Template, tuple[ExtractedLocation, ...], Location],
        ] = {}

    def _compute(
        self, message: SyslogMessage
    ) -> tuple[Template, tuple[ExtractedLocation, ...], Location]:
        """Template, locations, and primary location of one message."""
        template = self._templates.match_words(
            message.error_code, tokenize(message.detail)
        )
        locations = tuple(
            self._extractor.extract(message.router, message.detail)
        )
        primary = next(
            (i.location for i in locations if i.role == "local"),
            Location.router_level(message.router),
        )
        return template, locations, primary

    def _augmentation(
        self, message: SyslogMessage
    ) -> tuple[Template, tuple[ExtractedLocation, ...], Location]:
        """Memoized :meth:`_compute`."""
        key = (message.router, message.error_code, message.detail)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= _MAX_AUGMENT_CACHE:
                self._memo.clear()
            hit = self._compute(message)
            self._memo[key] = hit
        return hit

    def augment(self, message: SyslogMessage) -> SyslogPlus:
        """Augment one message, assigning the next stream index."""
        template, locations, primary = self._augmentation(message)
        plus = SyslogPlus(
            index=self._counter,
            message=message,
            template=template,
            locations=locations,
            primary_location=primary,
        )
        self._counter += 1
        return plus

    def augment_all(self, messages) -> list[SyslogPlus]:
        """Augment a whole (time-sorted) sequence.

        Batch form of :meth:`augment` with the two augmentation stages
        timed (``stage="signature_match"`` and ``stage="location_parse"``;
        memo hits are attributed to the first stage); results are
        identical.

        Index assignment is exception-safe: ``self._counter`` only
        advances once the *whole* batch has augmented, so a mid-batch
        failure (e.g. location parsing raising on one message) leaves the
        stream position untouched and a retry of the same batch reuses
        the same indices instead of desynchronizing them.
        """
        messages = list(messages)
        with stage_timer("signature_match"):
            parts = [self._augmentation(m) for m in messages]
        with stage_timer("location_parse"):
            start = self._counter
            out = [
                SyslogPlus(
                    index=start + i,
                    message=message,
                    template=template,
                    locations=locations,
                    primary_location=primary,
                )
                for i, (message, (template, locations, primary)) in enumerate(
                    zip(messages, parts)
                )
            ]
            self._counter = start + len(out)
        return out
