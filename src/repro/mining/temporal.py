"""Temporal pattern model: EWMA interarrival grouping (Sections 4.1.3, 4.2.1).

Messages of one template on one location form clusters in time.  The model
predicts the next interarrival with an EWMA
``S_hat_t = alpha * S_{t-1} + (1 - alpha) * S_hat_{t-1}`` and keeps a new
arrival in the current group iff ``S_t <= beta * S_hat_t``, clamped by two
absolute thresholds:

* ``S_t <= s_min`` (1 second, the data's finest granularity): always the
  same group;
* ``S_t > s_max`` (3 hours, domain knowledge): always a new group — the
  EWMA alone cannot guarantee convergence, since each accepted ``S_t`` may
  be up to ``beta`` times the prediction and thus grow geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.ewma import EwmaEstimator
from repro.utils.timeutils import HOUR


@dataclass(frozen=True)
class TemporalParams:
    """Parameters of the temporal grouping model."""

    alpha: float = 0.05
    beta: float = 5.0
    s_min: float = 1.0
    s_max: float = 3 * HOUR

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.s_min < 0 or self.s_max <= self.s_min:
            raise ValueError("need 0 <= s_min < s_max")


@dataclass
class TemporalSplitter:
    """Online group assignment for one (template, location) key.

    Feed timestamps in non-decreasing order; :meth:`observe` returns the
    group index of each arrival (0-based, increasing).  The EWMA keeps
    learning across group boundaries — it models the template's rhythm —
    but observations are clamped at ``s_max`` so one long quiet spell does
    not blow up the prediction.

    ``skew_tolerance`` absorbs collector clock skew: a timestamp up to
    that far behind the previous one is clamped to a zero interarrival
    (indistinguishable from simultaneous, hence same group) instead of
    raising.
    """

    params: TemporalParams
    skew_tolerance: float = 0.0
    _ewma: EwmaEstimator = field(init=False)
    _last_ts: float | None = field(init=False, default=None)
    _group: int = field(init=False, default=-1)

    def __post_init__(self) -> None:
        self._ewma = EwmaEstimator(self.params.alpha)

    @property
    def last_ts(self) -> float:
        """Timestamp of the most recent arrival (-inf before the first)."""
        return self._last_ts if self._last_ts is not None else float("-inf")

    def observe(self, ts: float) -> int:
        """Assign ``ts`` to a group and update the model."""
        if self._last_ts is None:
            self._group = 0
            self._last_ts = ts
            return self._group
        interarrival = ts - self._last_ts
        if interarrival < 0:
            if interarrival < -self.skew_tolerance:
                raise ValueError(
                    f"timestamps must be non-decreasing "
                    f"({ts} < {self._last_ts})"
                )
            # Small collector skew: treat as simultaneous and keep the
            # stream clock monotone.
            interarrival = 0.0
            ts = self._last_ts
        if not self._same_group(interarrival):
            self._group += 1
        # Repeats at or below the data's time granularity (s_min) are
        # indistinguishable from simultaneous and carry no rhythm
        # information — feeding them would collapse the prediction and
        # split every later arrival.  Long quiet spells are capped at
        # s_max so one outage cannot blow the prediction up.
        if interarrival > self.params.s_min:
            self._ewma.observe(min(interarrival, self.params.s_max))
        self._last_ts = ts
        return self._group

    def _same_group(self, interarrival: float) -> bool:
        p = self.params
        if interarrival <= p.s_min:
            return True
        if interarrival > p.s_max:
            return False
        prediction = self._ewma.prediction
        if prediction is None:
            # No rhythm learned yet: within s_max is the only evidence.
            return True
        return interarrival <= p.beta * max(prediction, p.s_min)


def split_series(
    timestamps: list[float], params: TemporalParams
) -> list[int]:
    """Group indices for a whole sorted series (batch convenience)."""
    splitter = TemporalSplitter(params)
    return [splitter.observe(ts) for ts in timestamps]


def n_groups(timestamps: list[float], params: TemporalParams) -> int:
    """Number of temporal groups a sorted series splits into."""
    if not timestamps:
        return 0
    return split_series(timestamps, params)[-1] + 1
