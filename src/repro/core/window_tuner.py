"""Adaptive forecast-window tuning (the paper's §6.2 future work).

Figure 6's worst band exists because the forecasting window coincides
with the noise-burst length: the burst dominates every forecast horizon
and COLT materializes indexes it drops again almost immediately.  The
paper closes with: "It may be possible for the system to tune the length
of this window if materialized indices are dropped too quickly.  We plan
to explore this extension in our future work."

:class:`ForecastWindowTuner` implements that extension with a simple
additive-increase / gradual-decrease controller:

* every index build records the epoch it happened;
* when an index is dropped after a *short tenure* (fewer than
  ``short_tenure_epochs`` since its build), the controller counts it as
  an overreaction and **grows** the window multiplicatively -- longer
  windows average over more history, so transient trends need to persist
  longer before they look materialization-worthy;
* each quiet epoch (no short-tenure drop) the window **decays** one step
  back toward the configured base, restoring adaptivity.

The window is clamped to ``[base, max_factor * base]``: adaptivity never
exceeds the paper's default, only caution does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable

if TYPE_CHECKING:
    from repro.engine.index import IndexDef


class ForecastWindowTuner:
    """Controller adjusting the forecast window from drop tenures.

    Args:
        base_window: The configured forecast window (the paper's ``h``).
        short_tenure_epochs: A drop within this many epochs of the build
            counts as "dropped too quickly".
        growth: Multiplicative window growth per short-tenure drop.
        max_factor: Upper clamp as a multiple of the base window.
    """

    def __init__(
        self,
        base_window: int,
        short_tenure_epochs: int = 4,
        growth: float = 1.5,
        max_factor: float = 2.0,
    ) -> None:
        if base_window < 1:
            raise ValueError("base_window must be positive")
        self._base = base_window
        self._short = short_tenure_epochs
        self._growth = growth
        self._max = max(base_window, int(round(base_window * max_factor)))
        self._window = float(base_window)
        self._built_at: Dict[IndexDef, int] = {}
        self._epoch = 0
        self.short_tenure_drops = 0

    @property
    def window(self) -> int:
        """The forecast window to use for the next epoch, in epochs."""
        return int(round(self._window))

    @property
    def epoch(self) -> int:
        """Epochs observed so far."""
        return self._epoch

    def observe_epoch(
        self,
        materialized: Iterable[IndexDef],
        dropped: Iterable[IndexDef],
    ) -> int:
        """Fold one epoch's reorganization outcome into the controller.

        Args:
            materialized: Indexes built this epoch.
            dropped: Indexes dropped this epoch.

        Returns:
            The window to use for the next epoch.
        """
        overreacted = False
        for index in dropped:
            built = self._built_at.pop(index, None)
            if built is not None and self._epoch - built < self._short:
                overreacted = True
                self.short_tenure_drops += 1
        for index in materialized:
            self._built_at[index] = self._epoch

        if overreacted:
            self._window = min(float(self._max), self._window * self._growth)
        else:
            # Gradual relaxation toward the base, one epoch-step at a time.
            self._window = max(float(self._base), self._window - 0.25)

        self._epoch += 1
        return self.window
