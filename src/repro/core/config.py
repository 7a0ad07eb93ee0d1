"""COLT configuration.

Defaults follow §6.1 of the paper: epoch length ``w = 10``, history depth
``h = 12`` epochs, at most ``#WI_max = 20`` what-if calls per epoch, and
90% confidence intervals.  The paper reports its results were not
sensitive to the exact values.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

#: Fields earlier versions wrote into snapshots and traces and this one
#: no longer has.
RETIRED_FIELDS = frozenset({"knapsack_warm_start"})


@dataclasses.dataclass(frozen=True)
class ColtConfig:
    """Tuning parameters for COLT, read by every engine.

    Attributes:
        epoch_length: Queries per epoch (the paper's ``w``).
        history_epochs: Epochs of memory (the paper's ``h``); statistics
            and forecasts use a sliding window of this many epochs.
        max_whatif_per_epoch: Hard cap on what-if calls per epoch (the
            paper's ``#WI_max``); the Self-Organizer's re-budgeting sets
            the actual per-epoch limit ``#WI_lim`` in ``[0, max]``.
        confidence: Confidence level for CLT gain intervals.
        storage_budget_pages: On-line storage budget ``B`` for
            materialized indexes, in pages.
        rebudget_knee: The ratio ``r`` at which profiling saturates to
            ``max_whatif_per_epoch`` (the paper uses 1.3: profiling is
            suspended at r = 1 and maximal at r >= 1.3).
        max_hot_size: Safety cap on the hot set size after the 2-means
            split of crude benefits.
        whatif_call_cost: Overhead charged to the ledger per what-if
            call, in planner cost units.  Models the CPU the paper's
            prototype spends in the extended optimizer (kept small by
            its sub-plan reuse).
        smoothing: Exponential smoothing factor for the crude-benefit
            average used in hot set selection (weight of the newest
            epoch).
        matcost_weight: Multiplier on the index build cost inside the
            NetBenefit formula.  1.0 is the paper's formula taken
            literally (per-query benefit forecasts against the full
            build cost), which acts as hysteresis against churn between
            near-equal indexes; smaller values make COLT more eager to
            re-materialize.
        retention_weight: Fraction of the build cost credited to an
            already-materialized index in the knapsack, so a challenger
            must beat the incumbent by a noise-proof margin (evict +
            re-adopt costs two builds).
        min_history_epochs: A hot index needs at least this many epochs
            of measured benefit history before the conservative knapsack
            may materialize it -- committing budget after one good epoch
            preempts better candidates that have not been profiled yet.
        forecast_window: Override for the forecasting window in epochs;
            None uses ``history_epochs``.  Exposed for the forecast-
            window ablation the paper's §6.2 discussion motivates.
        adaptive_forecast_window: Implements the paper's §6.2 future
            work: "tune the length of this window if materialized
            indices are dropped too quickly."  When enabled, the
            Self-Organizer grows the forecast window after short-tenure
            drops (making the tuner more skeptical of transient trends)
            and relaxes it back while the configuration is stable.
        composite_candidates: Extension beyond the paper (§2 restricts
            COLT to single-column indexes): when True, queries with
            several predicates on one table also mine two-column
            composite index candidates, which flow through the same
            profiling, knapsack and scheduling machinery.
        gain_cache: Enables the gain cache's structural-zero rule
            (``repro.core.gaincache``): the gain of an index on a column
            the query does not reference is exactly 0.0, and is served
            without an extended-optimizer call and without ledger
            overhead.  Sampling decisions and the selected configuration
            are unchanged either way (see docs/PERFORMANCE.md); off by
            default so overhead accounting matches the paper's prototype
            exactly.
        seed: Seed for the profiler's sampling decisions.
    """

    epoch_length: int = 10
    history_epochs: int = 12
    max_whatif_per_epoch: int = 20
    confidence: float = 0.90
    storage_budget_pages: float = 12_000.0
    rebudget_knee: float = 1.3
    max_hot_size: int = 12
    whatif_call_cost: float = 10.0
    smoothing: float = 0.3
    matcost_weight: float = 0.4
    retention_weight: float = 0.2
    min_history_epochs: int = 3
    forecast_window: int | None = None
    adaptive_forecast_window: bool = False
    composite_candidates: bool = False
    gain_cache: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be positive")
        if self.history_epochs < 1:
            raise ValueError("history_epochs must be positive")
        if self.max_whatif_per_epoch < 0:
            raise ValueError("max_whatif_per_epoch must be non-negative")
        if not 0.5 <= self.confidence < 1.0:
            raise ValueError("confidence must be in [0.5, 1.0)")
        if self.storage_budget_pages < 0:
            raise ValueError("storage_budget_pages must be non-negative")
        if self.rebudget_knee <= 1.0:
            raise ValueError("rebudget_knee must exceed 1.0")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.forecast_window is not None and self.forecast_window < 1:
            raise ValueError("forecast_window must be positive (None uses history_epochs)")
        for name in (
            "max_hot_size",
            "whatif_call_cost",
            "matcost_weight",
            "retention_weight",
            "min_history_epochs",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def effective_forecast_window(self) -> int:
        """The forecasting window in epochs."""
        return self.forecast_window or self.history_epochs


_FIELD_NAMES = frozenset(field.name for field in dataclasses.fields(ColtConfig))


def stored_config(stored: Mapping) -> ColtConfig:
    """The :class:`ColtConfig` a stored ``config`` block describes.

    Every engine is parameterized by a ``ColtConfig``, and this is the
    one reader of the ``config`` block in snapshots and traces.  Fields
    retired since the block was written are dropped.  A bandit block
    written before the bandit's own knobs became the constants of
    :mod:`repro.bandit.tuner` still carries them: each is accepted only
    at its constant's value.  Any other unknown key fails the
    constructor (``TypeError``).

    Raises:
        ValueError: naming a bandit knob stored at another value.
    """
    fields = {k: v for k, v in stored.items() if k not in RETIRED_FIELDS}
    if fields.keys() - _FIELD_NAMES:
        # Only a block with keys ColtConfig lacks loads the bandit module.
        from repro.bandit.tuner import STORED_CONSTANTS

        for name in sorted(fields.keys() & STORED_CONSTANTS.keys()):
            value = fields.pop(name)
            if value != STORED_CONSTANTS[name]:
                raise ValueError(
                    f"stored config field {name!r} is {value!r}, but the"
                    f" bandit fixes it at {STORED_CONSTANTS[name]!r}"
                )
    return ColtConfig(**fields)
