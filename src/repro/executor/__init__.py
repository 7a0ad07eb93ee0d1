"""Volcano-style query executor.

Mirrors the optimizer's plan tree one-to-one with pull-based iterators
over the physical store.  Rows flow through the tree as dictionaries
keyed by ``(table, column)`` pairs, which makes predicate evaluation and
join-key extraction uniform regardless of plan shape.

The executor exists so the reproduction is a *database*, not just a cost
model: examples and integration tests run queries for real and check that
index-assisted plans return the same rows as sequential plans.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "executor": ("execute", "execute_query"),
        "instrument": ("CountingStore", "ExecutionCounters"),
    },
)
