"""Production guardrails: verify, quarantine, and constrain.

Closes the predict->observe->act loop around COLT's what-if-driven
decisions: observed-cost verification per materialized index
(:mod:`repro.guardrails.verify`), epoch-counted quarantine for indexes
that failed it (:mod:`repro.guardrails.quarantine`), DBA pin/ban/prefer
advice (:mod:`repro.guardrails.advice`, resolved by the tuner itself);
verification and quarantine are orchestrated per tuner by the
:class:`~repro.guardrails.manager.GuardrailManager`.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "advice": ("AdviceBook", "AdviceDirective", "AdviceError"),
        "manager": ("GuardrailManager",),
        "quarantine": ("Quarantine", "QuarantineEntry"),
        "verify": (
            "CostObserver",
            "ExecutionObserver",
            "IndexVerifier",
            "Observation",
            "PlanCostObserver",
            "Verdict",
        ),
    },
)
