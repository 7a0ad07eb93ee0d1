"""Engine micro-benchmarks.

Not a paper experiment -- these track the performance of the primitives
everything else is built on (B+tree operations, optimization latency,
what-if call throughput), so regressions in the substrate are visible
in the same `pytest benchmarks/` run that regenerates the figures.
"""

import random

from repro.backend.local import LocalBackend
from repro.engine.btree import BPlusTree
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution

N_KEYS = 20_000


def test_btree_bulk_load(benchmark):
    rng = random.Random(0)
    pairs = [(rng.randrange(N_KEYS), rid) for rid in range(N_KEYS)]
    tree = benchmark(BPlusTree.bulk_load, pairs)
    assert len(tree) == N_KEYS


def test_btree_point_lookups(benchmark):
    rng = random.Random(1)
    tree = BPlusTree.bulk_load(
        (rng.randrange(N_KEYS), rid) for rid in range(N_KEYS)
    )
    keys = [rng.randrange(N_KEYS) for _ in range(1_000)]

    def lookups():
        return sum(len(tree.search(k)) for k in keys)

    benchmark(lookups)


def test_btree_range_scan(benchmark):
    tree = BPlusTree.bulk_load((i, i) for i in range(N_KEYS))

    def scan():
        return sum(1 for _ in tree.range_scan(1_000, 6_000))

    count = benchmark(scan)
    assert count == 5_001


def test_btree_incremental_inserts(benchmark):
    rng = random.Random(2)
    values = [rng.randrange(N_KEYS) for _ in range(5_000)]

    def build():
        tree = BPlusTree(order=64)
        for rid, key in enumerate(values):
            tree.insert(key, rid)
        return tree

    tree = benchmark(build)
    assert len(tree) == 5_000


def test_optimizer_latency_single_table(benchmark):
    catalog = build_catalog()
    query = bind_query(
        parse_query(
            "select l_orderkey from lineitem_1 "
            "where l_shipdate between '1994-01-01' and '1994-01-08'"
        ),
        catalog,
    )
    optimizer = Optimizer(catalog)

    def optimize():
        return optimizer.optimize(query, config=frozenset(), cache=PlanCache())

    result = benchmark(optimize)
    assert result.cost > 0


def test_optimizer_latency_join(benchmark):
    catalog = build_catalog()
    query = bind_query(
        parse_query(
            "select lineitem_1.l_orderkey from lineitem_1, orders_1 "
            "where lineitem_1.l_orderkey = orders_1.o_orderkey "
            "and orders_1.o_orderdate between '1994-01-01' and '1994-01-08'"
        ),
        catalog,
    )
    optimizer = Optimizer(catalog)
    benchmark(
        lambda: optimizer.optimize(query, config=frozenset(), cache=PlanCache())
    )


def test_whatif_call_throughput(benchmark):
    """What-if calls per second with session plan reuse -- the quantity
    that makes COLT's profiling affordable."""
    catalog = build_catalog()
    rng = random.Random(3)
    dist = stable_distribution()
    queries = [dist.sample(catalog, rng) for _ in range(20)]
    whatif = WhatIfOptimizer(LocalBackend(catalog))
    probes = [
        catalog.index_for("lineitem_1", "l_shipdate"),
        catalog.index_for("orders_1", "o_orderdate"),
    ]

    def profile_batch():
        total = 0
        for query in queries:
            session = whatif.begin_query(query)
            gains = whatif.what_if_optimize(session, probes)
            total += len(gains)
        return total

    assert benchmark(profile_batch) == 40
