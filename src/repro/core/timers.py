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

    def __init__(self, initial: float, ema_window: int = 10,
                 multiplier: float = 4.0, minimum: float = 0.002,
                 maximum: float = 4.0) -> None:
        if initial <= 0:
            raise ValueError("initial timer must be positive")
        if ema_window < 1:
            raise ValueError("ema_window must be >= 1")
        if minimum <= 0 or maximum < minimum:
            raise ValueError("require 0 < minimum <= maximum")
        self.alpha = 2.0 / (ema_window + 1)
        self.multiplier = multiplier
        self.minimum = minimum
        self.maximum = maximum
        self._ema = initial / max(multiplier, 1.0)
        self._timer = self._clamp(initial)

    def _clamp(self, value: float) -> float:
        return min(self.maximum, max(self.minimum, value))

    @property
    def current(self) -> float:
        """The timeout to use for the next WRB-deliver."""
        return self._timer

    def record_success(self, observed_delay: float) -> float:
        """Fold an observed delivery delay into the EMA and shrink the timer."""
        if observed_delay < 0:
            observed_delay = 0.0
        self._ema = self.alpha * observed_delay + (1 - self.alpha) * self._ema
        self._timer = self._clamp(self.multiplier * self._ema)
        return self._timer

    def record_failure(self) -> float:
        """Back off multiplicatively after an unsuccessful delivery."""
        self._timer = self._clamp(self._timer * 2.0)
        return self._timer
