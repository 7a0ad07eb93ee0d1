"""One-shot index advisor: the Dexter/HypoPG-style front end.

Modern what-if tooling (HypoPG, Dexter) answers the one-shot question
"given these queries, which indexes should I create?".  This module
wraps the reproduction's OFFLINE tuner and what-if optimizer behind that
interface: feed it SQL strings (or bound queries) and a budget, get back
a recommendation with per-index impact estimates.

The continuous tuner (:class:`~repro.core.colt.ColtTuner`) is the
paper's contribution; the advisor is the complementary batch tool built
from the same parts, useful for "run EXPLAIN over yesterday's log"
workflows and as a simple public API for downstream users.

Usage::

    from repro.advisor import advise
    from repro.workload import build_catalog

    report = advise(
        build_catalog(),
        [
            "select l_orderkey from lineitem_1 "
            "where l_shipdate between '1994-01-01' and '1994-02-01'",
        ],
        budget_pages=9_000,
    )
    print(report.to_text())
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.baselines.offline import OfflineTuner
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.sql.ast import Query


@dataclasses.dataclass
class Recommendation:
    """One recommended index with its estimated impact.

    Attributes:
        index: The recommended index.
        size_pages: Estimated size in pages.
        build_cost: Estimated one-time build cost (cost units).
        marginal_gain: Workload cost saved by this index *given the rest
            of the recommendation* (cost units over the whole workload).
        queries_helped: How many workload queries improve with the full
            recommendation but regress when this index alone is removed.
    """

    index: IndexDef
    size_pages: float
    build_cost: float
    marginal_gain: float
    queries_helped: int


@dataclasses.dataclass
class AdvisorReport:
    """The advisor's output.

    Attributes:
        recommendations: Indexes to create, by descending marginal gain.
        workload_cost_before: Total estimated workload cost today.
        workload_cost_after: Total estimated cost with the recommendation.
        budget_pages: The storage budget applied.
    """

    recommendations: List[Recommendation]
    workload_cost_before: float
    workload_cost_after: float
    budget_pages: float

    @property
    def improvement_percent(self) -> float:
        """Estimated workload cost reduction, in percent."""
        if self.workload_cost_before <= 0:
            return 0.0
        return (1 - self.workload_cost_after / self.workload_cost_before) * 100.0

    def to_text(self) -> str:
        """Render the report for terminals."""
        if not self.recommendations:
            return (
                "no indexes recommended: nothing beats sequential scans "
                f"within the {self.budget_pages:,.0f}-page budget"
            )
        lines = [
            f"recommended indexes (budget {self.budget_pages:,.0f} pages):",
            f"{'index':<40} {'pages':>8} {'build':>10} {'gain':>12} {'helps':>6}",
        ]
        for rec in self.recommendations:
            lines.append(
                f"{rec.index.name:<40} {rec.size_pages:>8,.0f} "
                f"{rec.build_cost:>10,.0f} {rec.marginal_gain:>12,.0f} "
                f"{rec.queries_helped:>6}"
            )
        lines.append(
            f"estimated workload cost: {self.workload_cost_before:,.0f} -> "
            f"{self.workload_cost_after:,.0f} "
            f"({self.improvement_percent:.1f}% better)"
        )
        return "\n".join(lines)


def advise(
    catalog: Catalog,
    workload: Sequence[Union[str, Query]],
    budget_pages: float,
    candidates: Optional[Sequence[IndexDef]] = None,
    strategy: str = "exhaustive",
) -> AdvisorReport:
    """Recommend indexes for a known workload within a budget.

    Args:
        catalog: Catalog with statistics (no indexes need exist).
        workload: SQL strings or bound queries, in any order.
        budget_pages: Storage budget for the recommendation.
        candidates: Optional candidate restriction; defaults to every
            indexable column the workload references.
        strategy: ``"exhaustive"`` (optimal) or ``"greedy"``.

    Returns:
        The recommendation report.

    Raises:
        ValueError: for a negative ``budget_pages``.
        repro.sql.parser.ParseError / repro.sql.binder.BindError: if a
            SQL string does not parse or bind against the catalog.
    """
    if budget_pages < 0:
        raise ValueError(f"budget must be non-negative, got {budget_pages:g} pages")
    queries = [
        bind_query(parse_query(q), catalog) if isinstance(q, str) else q
        for q in workload
    ]
    tuner = OfflineTuner(catalog, strategy=strategy)
    result = tuner.tune(queries, budget_pages, candidates=candidates)

    chosen = frozenset(result.indexes)
    after_costs = tuner.query_costs(queries, chosen)
    recommendations = []
    for index in result.indexes:
        without = tuner.query_costs(queries, chosen - {index})
        marginal = sum(without) - sum(after_costs)
        helped = sum(1 for w, a in zip(without, after_costs) if a < w - 1e-9)
        recommendations.append(
            Recommendation(
                index=index,
                size_pages=catalog.index_size_pages(index),
                build_cost=catalog.index_build_cost(index),
                marginal_gain=marginal,
                queries_helped=helped,
            )
        )
    recommendations.sort(key=lambda r: r.marginal_gain, reverse=True)
    return AdvisorReport(
        recommendations=recommendations,
        workload_cost_before=result.baseline_cost,
        workload_cost_after=result.total_cost,
        budget_pages=budget_pages,
    )
