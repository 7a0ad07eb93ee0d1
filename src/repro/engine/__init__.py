"""Relational engine substrate.

This package implements the database substrate that the COLT tuner sits on
top of: a catalog with statistics, columnar heap storage, B+tree indexes,
and the cost parameters shared by the optimizer.  It deliberately mirrors
the slice of PostgreSQL that the paper's prototype touches -- enough of a
real engine that what-if optimization, index materialization, and query
execution are all meaningful operations rather than stubs.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "catalog": ("Catalog", "ColumnDef", "ColumnRef", "TableDef"),
        "cost_params": ("CostParams",),
        "datatypes": ("DataType",),
        "index": ("IndexDef",),
        "stats": ("ColumnStats", "Histogram"),
        "storage": ("HeapTable",),
    },
)
