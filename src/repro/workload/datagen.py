"""Catalog and physical data construction from the schema specs.

Two entry points with different cost/fidelity trade-offs:

* :func:`build_catalog` -- statistics only, at full paper scale.  This is
  what the benchmark harness uses: the optimizer (and therefore COLT)
  behaves exactly as if 6.9M tuples were present, with zero data-gen cost.
* :func:`build_physical` -- a :class:`~repro.engine.storage.PhysicalStore`
  with rows generated at a scale factor, while the catalog still carries
  paper-scale statistics (``analyze(scale_to=...)``).  Examples and
  integration tests use this to actually run queries.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.engine.catalog import Catalog, ColumnDef, TableDef
from repro.engine.storage import PhysicalStore
from repro.workload.spec import generate_rows, scaled_rows
from repro.workload.tpch import TPCH_INSTANCES, tpch_schema

if TYPE_CHECKING:
    from repro.engine.cost_params import CostParams
    from repro.workload.spec import TableSpec


def build_catalog(
    instances: int = TPCH_INSTANCES,
    params: Optional[CostParams] = None,
    specs: Optional[List[TableSpec]] = None,
) -> Catalog:
    """Build a catalog with paper-scale declared statistics (no data).

    Args:
        instances: Number of schema instances (the paper uses 4).
        params: Cost parameters; defaults to PostgreSQL-flavoured values.
        specs: Override table specs (defaults to the TPC-H schema).

    Returns:
        A catalog ready for optimization and what-if calls.
    """
    catalog = Catalog(params=params)
    for spec in specs if specs is not None else tpch_schema(instances):
        table = TableDef(
            name=spec.name,
            columns=[ColumnDef(c.name, c.dtype) for c in spec.columns],
            row_count=float(spec.row_count),
        )
        catalog.add_table(table)
        for col in spec.columns:
            catalog.set_stats(spec.name, col.name, col.stats(spec.row_count))
    return catalog


def build_physical(
    instances: int = 1,
    scale: float = 0.01,
    seed: int = 42,
    params: Optional[CostParams] = None,
    specs: Optional[List[TableSpec]] = None,
    paper_scale_stats: bool = True,
) -> PhysicalStore:
    """Build a physical store with generated rows at ``scale``.

    Args:
        instances: Number of schema instances to materialize.
        scale: Fraction of the paper-scale cardinality to generate
            physically (e.g. 0.01 → 12,000 physical lineitem rows).
        seed: RNG seed for reproducible data.
        params: Cost parameters.
        specs: Override table specs.
        paper_scale_stats: When True, catalog statistics describe the
            paper-scale table even though fewer rows are stored; when
            False, statistics match the physical sample.

    Returns:
        A store with heaps populated and statistics installed.
    """
    rng = random.Random(seed)
    table_specs = specs if specs is not None else tpch_schema(instances)
    catalog = Catalog(params=params)
    for spec in table_specs:
        catalog.add_table(
            TableDef(
                name=spec.name,
                columns=[ColumnDef(c.name, c.dtype) for c in spec.columns],
            )
        )
    store = PhysicalStore(catalog)
    for spec in table_specs:
        heap = store.create_heap(spec.name)
        physical = scaled_rows(spec, scale)
        heap.insert_many(generate_rows(spec, physical, rng))
        store.analyze(
            spec.name,
            scale_to=float(spec.row_count) if paper_scale_stats else None,
        )
    return store
