"""Configuration of the C³-UCB bandit tuning engine.

Mirrors :class:`~repro.core.config.ColtConfig` in spirit: one frozen
dataclass carrying every behavioural knob, validated on construction,
plus :meth:`BanditConfig.from_colt` so fleet and CLI code that already
holds a ``ColtConfig`` can derive a matched bandit configuration (same
epoch clock, same storage budget, same seed) without duplicating flags.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.core.config import ColtConfig


@dataclasses.dataclass(frozen=True)
class BanditConfig:
    """Parameters of :class:`~repro.bandit.tuner.BanditTuner`.

    Attributes:
        epoch_length: Queries per decision round (the bandit's super-arm
            is re-selected at every epoch boundary, like COLT's ``w``).
        storage_budget_pages: Storage budget ``B`` constraining the
            super-arm (the knapsack capacity).
        history_epochs: Sliding-window length for crude candidate
            statistics (feeds the feature map, same role as COLT's
            ``h``).
        smoothing: EWMA factor for crude candidate benefits.
        alpha: Exploration scale of the UCB term
            ``theta^T x + alpha * sqrt(x^T V^-1 x)``.  The confidence
            ellipsoid shrinks as observations accumulate in ``V``;
            ``alpha`` only scales it.
        lambda_reg: Ridge regularizer (the ``lambda I`` prior on ``V``).
        forgetting: Per-epoch decay ``gamma`` applied to ``V`` and ``b``
            before new rewards are folded in; values below 1.0 age out
            stale rewards so the model tracks drifting workloads.
        forced_exploration_epochs: During the first N epochs the
            super-arm is chosen without build-cost hysteresis, so
            never-played arms (whose confidence width is maximal) get
            materialized and produce reward observations.
        observe_per_epoch: Reward observations sampled per epoch --
            each prices a with/without plan pair for one materialized
            index (:meth:`~repro.executor.instrument.CountingStore.observed_cost`
            when a physical store is attached, plan costs
            otherwise).
        observe_cost_factor: Fraction of each counterfactual (shadow)
            execution's observed cost charged as tuning overhead.
        safety_factor: Safety fallback trigger: when the mean observed
            per-query cost of the epoch following a configuration
            change exceeds ``safety_factor`` times the pre-change cost,
            the change is reverted and the added arms are banned for
            ``safety_cooldown_epochs``.
        safety_cooldown_epochs: Epochs a reverted arm stays banned.
        matcost_weight: Build-cost hysteresis outside forced
            exploration (same exchange rate as COLT's knob).
        retention_weight: Fraction of its build cost credited to an
            already-materialized arm (anti-thrash margin).
        max_hot_size: Cap on the reported hot set (top arms by UCB not
            currently materialized).
        max_arms: Cap on the arm pool per decision round (materialized
            arms always kept; the rest by descending crude benefit).
        whatif_call_cost: Ledger charge per reward-observation
            optimizer call, in planner cost units (kept name-compatible
            with ``ColtConfig`` so fleet routing accounting works
            unchanged).
        composite_candidates: Mine two-column composite arms as well.
        seed: Seed for the tuner's sampling decisions; runs are fully
            deterministic given (seed, workload).
    """

    epoch_length: int = 10
    storage_budget_pages: float = 12_000.0
    history_epochs: int = 12
    smoothing: float = 0.3
    alpha: float = 1.0
    lambda_reg: float = 1.0
    forgetting: float = 0.9
    forced_exploration_epochs: int = 3
    observe_per_epoch: int = 6
    observe_cost_factor: float = 1.0
    safety_factor: float = 1.5
    safety_cooldown_epochs: int = 6
    matcost_weight: float = 0.4
    retention_weight: float = 0.2
    max_hot_size: int = 12
    max_arms: int = 24
    whatif_call_cost: float = 10.0
    composite_candidates: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be positive")
        if self.storage_budget_pages <= 0.0:
            raise ValueError("storage_budget_pages must be positive")
        if self.history_epochs < 1:
            raise ValueError("history_epochs must be positive")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.lambda_reg <= 0.0:
            raise ValueError("lambda_reg must be positive")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        if self.forced_exploration_epochs < 0:
            raise ValueError("forced_exploration_epochs must be >= 0")
        if self.observe_per_epoch < 0:
            raise ValueError("observe_per_epoch must be >= 0")
        if self.observe_cost_factor < 0.0:
            raise ValueError("observe_cost_factor must be >= 0")
        if self.safety_factor <= 1.0:
            raise ValueError("safety_factor must exceed 1.0")
        if self.safety_cooldown_epochs < 1:
            raise ValueError("safety_cooldown_epochs must be positive")
        if self.matcost_weight < 0.0 or self.retention_weight < 0.0:
            raise ValueError("cost weights must be >= 0")
        if self.max_hot_size < 1:
            raise ValueError("max_hot_size must be positive")
        if self.max_arms < 1:
            raise ValueError("max_arms must be positive")
        if self.whatif_call_cost < 0.0:
            raise ValueError("whatif_call_cost must be >= 0")

    @classmethod
    def from_colt(cls, config: "ColtConfig", **overrides) -> "BanditConfig":
        """Derive a matched bandit configuration from a COLT one.

        Copies the knobs the two engines share (epoch clock, budget,
        candidate-window shape, seed) so fleet replicas and CLI runs
        compare like for like; everything bandit-specific stays at its
        default unless overridden.
        """
        base = dict(
            epoch_length=config.epoch_length,
            storage_budget_pages=config.storage_budget_pages,
            history_epochs=config.history_epochs,
            smoothing=config.smoothing,
            matcost_weight=config.matcost_weight,
            retention_weight=config.retention_weight,
            max_hot_size=config.max_hot_size,
            whatif_call_cost=config.whatif_call_cost,
            composite_candidates=config.composite_candidates,
            seed=config.seed,
        )
        base.update(overrides)
        return cls(**base)
