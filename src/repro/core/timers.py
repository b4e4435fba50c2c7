"""Adaptive WRB delivery timer (Section 6.1.1, "Dynamically Tuning the Timeout").

The paper adjusts the WRB wait timer from the exponential moving average of
recent message delays::

    timer_r = (2 / (N + 1)) * d_{r-1} + (1 - 2 / (N + 1)) * timer_{r-2}

On an unsuccessful delivery the timer is increased (Algorithm 1, line 14) to
preserve liveness under ♦Synch; on success it is re-adjusted downward toward
the EMA of observed delays (line 19).
"""

from __future__ import annotations


class AdaptiveTimer:
    """EMA-driven timeout with multiplicative backoff on failures."""

    #: Timer (tau) of the first WRB-deliver, before any delay was observed.
    INITIAL = 0.5
    #: EMA window N of Section 6.1.1.
    EMA_WINDOW = 10
    #: Safety multiplier applied on top of the EMA estimate.
    MULTIPLIER = 4.0
    #: Lower / upper clamps on the timer.
    MINIMUM = 0.05
    MAXIMUM = 4.0

    def __init__(self) -> None:
        self.alpha = 2.0 / (self.EMA_WINDOW + 1)
        self._ema = self.INITIAL / self.MULTIPLIER
        self._timer = self._clamp(self.INITIAL)

    def _clamp(self, value: float) -> float:
        return min(self.MAXIMUM, max(self.MINIMUM, value))

    @property
    def current(self) -> float:
        """The timeout to use for the next WRB-deliver."""
        return self._timer

    def record_success(self, observed_delay: float) -> float:
        """Fold an observed delivery delay into the EMA and shrink the timer."""
        if observed_delay < 0:
            observed_delay = 0.0
        self._ema = self.alpha * observed_delay + (1 - self.alpha) * self._ema
        self._timer = self._clamp(self.MULTIPLIER * self._ema)
        return self._timer

    def record_failure(self) -> float:
        """Back off multiplicatively after an unsuccessful delivery."""
        self._timer = self._clamp(self._timer * 2.0)
        return self._timer
