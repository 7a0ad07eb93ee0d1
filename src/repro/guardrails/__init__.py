"""Production guardrails: verify, quarantine, stage, and constrain.

Closes the predict->observe->act loop around COLT's what-if-driven
decisions: observed-cost verification per materialized index
(:mod:`repro.guardrails.verify`), breaker-backed quarantine for indexes
that failed it (:mod:`repro.guardrails.quarantine`), DBA pin/ban/prefer
advice (:mod:`repro.guardrails.advice`, resolved by the tuner itself),
canary-first fleet rollout (:mod:`repro.guardrails.rollout`); verification
and quarantine are orchestrated per tuner by the
:class:`~repro.guardrails.manager.GuardrailManager`.
"""

from repro.guardrails.advice import AdviceBook, AdviceDirective, AdviceError
from repro.guardrails.manager import GuardrailConfig, GuardrailManager
from repro.guardrails.quarantine import Quarantine, QuarantineEntry
from repro.guardrails.rollout import (
    RolloutController,
    RolloutRecord,
    RolloutStage,
    RolloutSummary,
)
from repro.guardrails.verify import (
    CostObserver,
    ExecutionObserver,
    IndexVerifier,
    Observation,
    PlanCostObserver,
    Verdict,
)

__all__ = [
    "AdviceBook",
    "AdviceDirective",
    "AdviceError",
    "CostObserver",
    "ExecutionObserver",
    "GuardrailConfig",
    "GuardrailManager",
    "IndexVerifier",
    "Observation",
    "PlanCostObserver",
    "Quarantine",
    "QuarantineEntry",
    "RolloutController",
    "RolloutRecord",
    "RolloutStage",
    "RolloutSummary",
    "Verdict",
]
