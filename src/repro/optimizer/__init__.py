"""Cost-based query optimizer with a what-if interface.

The optimizer is Selinger-style: per-relation access path selection (seq
scan vs. index scan) followed by dynamic-programming join enumeration.
Costs are computed from catalog statistics using the formulas of
``repro.engine.cost_params``, which mirror PostgreSQL's planner.

The :class:`~repro.optimizer.whatif.WhatIfOptimizer` wraps the plain
optimizer with the interface the paper assumes: ``WhatIfOptimize(q, P)``
returns, for each index in the probation set ``P``, the change in the
optimal cost of ``q`` if that index's materialization status were flipped.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "optimizer": ("OptimizationResult", "Optimizer"),
        "plan": ("PlanNode", "explain"),
        "whatif": ("WhatIfOptimizer",),
    },
)
