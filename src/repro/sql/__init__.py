"""SQL front end: lexer, abstract syntax tree, and recursive-descent parser.

The dialect covers the query shapes the paper's workloads exercise:
conjunctive select-project-join queries with range/equality/IN predicates,
optional aggregation, grouping, ordering and LIMIT.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ast": (
            "Aggregate",
            "BetweenPredicate",
            "ColumnExpr",
            "ComparisonPredicate",
            "InPredicate",
            "JoinPredicate",
            "OrderItem",
            "Query",
            "SelectItem",
        ),
        "parser": ("ParseError", "parse_query"),
    },
)
