"""Differential test: hypothetical vs. really-materialized index costs.

COLT's whole accounting rests on what-if probes being *truthful*: the
cost the optimizer predicts for a hypothetical index must equal the
cost it produces once that index actually exists.  This drives 200
seeded random single-table queries through both paths and demands exact
agreement.
"""

import random

import pytest

from repro.backend.local import LocalBackend
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.datagen import build_catalog
from repro.workload.querygen import PredicateSpec, QueryTemplate, build_query

#: (table, column) pool spanning sizes from 2k to 1.2M rows, numeric
#: and equality-friendly columns, across all four TPC-H instances.
COLUMNS = [
    ("orders_1", "o_custkey"),
    ("orders_3", "o_totalprice"),
    ("lineitem_2", "l_quantity"),
    ("lineitem_4", "l_extendedprice"),
    ("customer_3", "c_acctbal"),
    ("customer_1", "c_custkey"),
    ("part_4", "p_size"),
    ("part_2", "p_retailprice"),
    ("partsupp_1", "ps_availqty"),
    ("supplier_2", "s_acctbal"),
]

N_QUERIES = 200


def _cases():
    """200 seeded (query, index) cases over random columns/selectivities."""
    catalog = build_catalog()
    rng = random.Random(20260805)
    cases = []
    for _ in range(N_QUERIES):
        table, column = COLUMNS[rng.randrange(len(COLUMNS))]
        low = rng.uniform(0.0005, 0.05)
        template = QueryTemplate(
            predicates=(
                PredicateSpec(table, column, selectivity=(low, low * 4)),
            )
        )
        query = build_query(template, catalog, rng)
        cases.append((query, catalog.index_for(table, column)))
    return catalog, cases


class TestWhatIfMatchesMaterialization:
    def test_hypothetical_cost_equals_real_cost(self):
        catalog, cases = _cases()
        for query, index in cases:
            whatif = WhatIfOptimizer(LocalBackend(catalog))
            session = whatif.begin_query(query)
            gain = whatif.what_if_optimize(session, [index])[index]
            hypothetical = session.base.cost - gain

            catalog.materialize_index(index)
            try:
                real = Optimizer(catalog).optimize(query).cost
            finally:
                catalog.drop_index(index)

            assert hypothetical == pytest.approx(real, rel=1e-9), (
                f"what-if disagrees with materialization for {index}"
            )

    def test_config_override_equals_materialization(self):
        # The lower-level path the what-if optimizer builds on: passing
        # config= explicitly must match the catalog-backed default.
        catalog, cases = _cases()
        for query, index in cases[:50]:
            override = Optimizer(catalog).optimize(
                query, config=frozenset({index})
            ).cost
            catalog.materialize_index(index)
            try:
                real = Optimizer(catalog).optimize(query).cost
            finally:
                catalog.drop_index(index)
            assert override == pytest.approx(real, rel=1e-9)

    def test_gains_are_nonnegative_for_single_table_probes(self):
        catalog, cases = _cases()
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        for query, index in cases[:50]:
            session = whatif.begin_query(query)
            gain = whatif.what_if_optimize(session, [index])[index]
            assert gain >= -1e-9
