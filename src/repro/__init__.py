"""COLT: Continuous On-Line Tuning -- a full reproduction.

This package reproduces *On-Line Index Selection for Shifting Workloads*
(Schnaitter, Abiteboul, Milo, Polyzotis -- ICDE 2007) as a complete,
self-contained Python system:

* ``repro.engine`` -- the database substrate: catalog, statistics,
  columnar heaps, B+tree indexes.
* ``repro.sql`` -- SQL parsing and binding for conjunctive SPJ queries.
* ``repro.optimizer`` -- a Selinger-style cost-based optimizer with the
  what-if interface COLT profiles through.
* ``repro.executor`` -- a volcano-style executor, so tuned configurations
  can be exercised on real data, not just costed.
* ``repro.core`` -- COLT itself: two-level profiler, query clustering,
  CLT gain intervals, adaptive sampling, knapsack reorganization, and
  self-regulating what-if budgets.
* ``repro.baselines`` -- the idealized OFFLINE tuner the paper compares
  against.
* ``repro.workload`` -- the four-instance TPC-H data set of Table 1 and
  the stable / shifting / noisy workload generators of §6.
* ``repro.bench`` -- drivers regenerating every table and figure.

Quickstart::

    from repro import ColtConfig, ColtTuner, bind_query, parse_query
    from repro.workload import build_catalog

    catalog = build_catalog()
    tuner = ColtTuner(catalog, ColtConfig(storage_budget_pages=9_000))
    query = bind_query(
        parse_query("select l_orderkey from lineitem_1 "
                    "where l_shipdate between '1994-01-01' and '1994-01-07'"),
        catalog,
    )
    outcome = tuner.process_query(query)
"""

from repro._facade import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "baselines.offline": ("OfflineTuner",),
        "core.colt": ("ColtTuner",),
        "core.config": ("ColtConfig",),
        "engine.catalog": ("Catalog", "ColumnDef", "TableDef"),
        "engine.datatypes": ("DataType",),
        "engine.index": ("IndexDef",),
        "executor.executor": ("execute", "execute_query"),
        "optimizer.optimizer": ("Optimizer",),
        "optimizer.plan": ("explain",),
        "optimizer.whatif": ("WhatIfOptimizer",),
        "sql.binder": ("bind_query",),
        "sql.parser": ("parse_query",),
    },
)
