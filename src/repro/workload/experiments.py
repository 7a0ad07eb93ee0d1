"""Pre-built distributions matching the paper's experimental workloads.

§6.1 describes the workloads only qualitatively; these factories encode
the stated properties:

* **Stable** (Fig. 3): a fixed distribution implying 18 relevant indexes,
  "many of which have high potential benefit", with the space budget
  sized to fit 3-6 of them and no materialized set clearly optimal.
* **Shifting** (Figs. 4-5): four distributions, each focusing on
  different attributes/instances with different selectivities, with some
  overlap between consecutive optimal index sets.
* **Noise** (Fig. 6): two distributions whose optimal index sets are
  disjoint.

Workload structure: each distribution has a handful of *dominant*
templates -- selective predicates on large, well-correlated columns whose
indexes pay off decisively -- plus a low-weight *tail* of templates that
widens the relevant-index set without moving the optimum.  This mirrors
the paper's setup, where the optimal sets are clear-cut enough that COLT
converges to OFFLINE within ~100 queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.workload.querygen import (
    JoinSpec,
    PredicateSpec,
    QueryDistribution,
    QueryTemplate,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog

# Selectivity bands used throughout: the paper's clustering separates
# "selective" (0-2%) from "non-selective" (2-100%) predicates.
SELECTIVE = (0.0003, 0.01)
# Band for predicates on large uncorrelated columns, where the index-scan
# break-even sits near 0.2% selectivity.
NEEDLE = (0.0002, 0.002)
MODERATE = (0.02, 0.08)

# Weight given to each tail template (the long tail of occasionally
# touched attributes that populate the candidate set).
TAIL_WEIGHT = 0.25


def _t(
    table: str,
    column: str,
    band: Tuple[float, float] = SELECTIVE,
    weight: float = 1.0,
    aggregate: bool = False,
) -> QueryTemplate:
    """Single-table template with one focus predicate."""
    return QueryTemplate(
        predicates=(PredicateSpec(table, column, band),),
        weight=weight,
        aggregate=aggregate,
    )


def _tj(
    table: str,
    column: str,
    join_table: str,
    left: str,
    right: str,
    band: Tuple[float, float] = SELECTIVE,
    weight: float = 1.0,
) -> QueryTemplate:
    """Template with one focus predicate plus a join to a second table."""
    return QueryTemplate(
        predicates=(PredicateSpec(table, column, band),),
        join=JoinSpec(table=join_table, left_column=left, right_column=right),
        weight=weight,
    )


def _tail(instance: int) -> Tuple[QueryTemplate, ...]:
    """Low-weight tail templates over one schema instance.

    Mostly moderate selectivities on secondary attributes: they mine
    candidates (and thus contribute to the 18 relevant indexes) without
    making their indexes worth the budget.
    """
    i = instance
    return (
        _t(f"lineitem_{i}", "l_partkey", MODERATE, weight=TAIL_WEIGHT),
        _t(f"lineitem_{i}", "l_quantity", MODERATE, weight=TAIL_WEIGHT),
        _t(f"lineitem_{i}", "l_extendedprice", MODERATE, weight=TAIL_WEIGHT),
        _t(f"lineitem_{i}", "l_discount", MODERATE, weight=TAIL_WEIGHT, aggregate=True),
        _t(f"orders_{i}", "o_totalprice", MODERATE, weight=TAIL_WEIGHT),
        _t(f"part_{i}", "p_size", MODERATE, weight=TAIL_WEIGHT, aggregate=True),
        _t(f"part_{i}", "p_retailprice", MODERATE, weight=TAIL_WEIGHT),
        _t(f"customer_{i}", "c_acctbal", MODERATE, weight=TAIL_WEIGHT),
        _t(f"supplier_{i}", "s_acctbal", MODERATE, weight=TAIL_WEIGHT),
        _t(f"partsupp_{i}", "ps_availqty", MODERATE, weight=TAIL_WEIGHT),
    )


def stable_distribution() -> QueryDistribution:
    """The Figure 3 distribution: 18 relevant indexes on instances 1-2.

    Dominant indexes (decisively beneficial): lineitem_1.l_shipdate,
    lineitem_2.l_shipdate, orders_1.o_orderdate, orders_2.o_orderdate,
    and lineitem_1.l_receiptdate -- together they *exceed* the Figure 3
    budget, so (as the paper puts it) "no materialized set is clearly
    optimal" and the tuners must pick.  A tail over instance 1 plus two
    join templates widens the relevant set to 18.
    """
    dominants = (
        _t("lineitem_1", "l_shipdate", weight=3.5),
        _t("lineitem_2", "l_shipdate", weight=2.5),
        _t("orders_1", "o_orderdate", weight=2.5),
        _t("orders_2", "o_orderdate", weight=2.0),
        _t("lineitem_1", "l_receiptdate", weight=1.5),
        _t("partsupp_1", "ps_supplycost", NEEDLE, weight=1.5),
    )
    joins = (
        _tj("lineitem_1", "l_shipdate", "orders_1", "l_orderkey", "o_orderkey", weight=0.5),
        _tj("orders_1", "o_orderdate", "customer_1", "o_custkey", "c_custkey", weight=0.5),
    )
    return QueryDistribution(
        name="stable", templates=dominants + joins + _tail(1)
    )


def phase_distributions() -> List[QueryDistribution]:
    """The four Figure 4 phases, with overlapping optimal index sets."""
    phase1 = QueryDistribution(
        name="phase1",
        templates=(
            _t("lineitem_1", "l_shipdate", weight=3.5),
            _t("orders_1", "o_orderdate", weight=2.5),
            _t("lineitem_1", "l_receiptdate", weight=2.0),
            _t("partsupp_1", "ps_supplycost", NEEDLE, weight=1.0),
        )
        + _tail(1),
    )
    phase2 = QueryDistribution(
        name="phase2",
        templates=(
            # Overlap with phase 1: orders_1.o_orderdate stays relevant.
            _t("orders_1", "o_orderdate", weight=1.5),
            _t("lineitem_2", "l_shipdate", weight=3.5),
            _t("lineitem_2", "l_receiptdate", weight=2.0),
            _t("orders_2", "o_orderdate", weight=2.0),
        )
        + _tail(2),
    )
    phase3 = QueryDistribution(
        name="phase3",
        templates=(
            # Overlap with phase 2: lineitem_2.l_shipdate stays relevant.
            _t("lineitem_2", "l_shipdate", weight=1.5),
            _t("lineitem_3", "l_shipdate", weight=3.5),
            _t("lineitem_3", "l_commitdate", weight=2.0),
            _t("orders_3", "o_orderdate", weight=2.0),
            _t("partsupp_3", "ps_supplycost", NEEDLE, weight=1.0),
        )
        + _tail(3),
    )
    phase4 = QueryDistribution(
        name="phase4",
        templates=(
            # Overlap with phase 3: lineitem_3.l_shipdate stays relevant.
            _t("lineitem_3", "l_shipdate", weight=1.5),
            _t("lineitem_4", "l_shipdate", weight=3.5),
            _t("lineitem_4", "l_receiptdate", weight=2.0),
            _t("orders_4", "o_orderdate", weight=2.5),
        )
        + _tail(4),
    )
    return [phase1, phase2, phase3, phase4]


def noise_distributions() -> Tuple[QueryDistribution, QueryDistribution]:
    """The Figure 6 pair (Q1, Q2) with disjoint optimal index sets."""
    q1 = QueryDistribution(
        name="q1_base",
        templates=(
            _t("lineitem_1", "l_shipdate", weight=3.5),
            _t("orders_1", "o_orderdate", weight=2.5),
            _t("lineitem_1", "l_receiptdate", weight=2.0),
        ),
    )
    q2 = QueryDistribution(
        name="q2_noise",
        templates=(
            _t("lineitem_2", "l_shipdate", weight=3.5),
            _t("orders_2", "o_orderdate", weight=2.5),
            _t("lineitem_2", "l_commitdate", weight=2.0),
        ),
    )
    return q1, q2


def relevant_index_count(catalog: Optional[Catalog] = None) -> int:
    """Number of relevant indexes for the stable workload (paper: 18).

    Args:
        catalog: Catalog used to resolve index definitions; a fresh
            paper-scale catalog is built when omitted.
    """
    if catalog is None:
        from repro.workload.datagen import build_catalog

        catalog = build_catalog()
    return len(stable_distribution().relevant_indexes(catalog))
