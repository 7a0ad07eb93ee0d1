"""COLT: Continuous On-Line Tuning (the paper's primary contribution).

The tuner watches the query stream in epochs of ``w`` queries, maintains
three nested index sets -- candidates ``C``, hot ``H``, materialized
``M`` -- and continuously adjusts ``M`` within a storage budget:

* The **Profiler** (``profiler``) gathers per-epoch statistics: crude
  analytic benefits for all of ``C``, and what-if-measured confidence
  intervals per (index, query-cluster) for ``H`` and ``M``, under an
  adaptive sampling policy bounded by the epoch's what-if budget.
* The **Self-Organizer** (``self_organizer``) runs at epoch boundaries:
  it forecasts each index's future benefit, re-solves a knapsack over
  ``H ∪ M`` to pick the new materialized set, promotes the most
  promising candidates into the new hot set, and *re-budgets* -- scaling
  the next epoch's what-if budget by how much an optimistic view of the
  hot indexes could improve on the current materialized set.
* The **Scheduler** (``scheduler``) carries out materializations.

:class:`~repro.core.colt.ColtTuner` wires the components together behind
a two-method API: ``process_query`` for every arriving query, which also
returns the cost ledger entry for that query.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "colt": ("ColtTuner", "InsertOutcome", "QueryOutcome"),
        "config": ("ColtConfig",),
    },
)
