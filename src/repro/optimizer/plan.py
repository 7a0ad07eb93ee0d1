"""Physical plan tree.

Every node carries the optimizer's cost and cardinality estimates; the
executor mirrors this tree one-to-one with iterator implementations.  The
``indexes_used`` traversal is what COLT's profiler uses to derive the
indicator ``u_{q,I}`` (whether the optimizer chose index ``I`` for query
``q``) from the normal optimization of each query.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.engine.index import IndexDef
    from repro.sql.ast import Aggregate, ColumnExpr, JoinPredicate, OrderItem, SelectItem


@dataclasses.dataclass
class PlanNode:
    """Base class for plan nodes.

    Attributes:
        rows: Estimated output cardinality.
        cost: Estimated total cost in planner cost units.
    """

    rows: float
    cost: float

    def children(self) -> List["PlanNode"]:
        """Child nodes, left to right."""
        return []

    def indexes_used(self) -> Set[IndexDef]:
        """All indexes referenced anywhere in this subtree."""
        used: Set[IndexDef] = set()
        stack: List[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, IndexScanNode):
                used.add(node.index)
            stack.extend(node.children())
        return used

    def tables(self) -> Set[str]:
        """All base tables scanned in this subtree."""
        found: Set[str] = set()
        stack: List[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, (SeqScanNode, IndexScanNode)):
                found.add(node.table)
            stack.extend(node.children())
        return found

    def label(self) -> str:
        """Short human-readable node label for EXPLAIN output."""
        return type(self).__name__


@dataclasses.dataclass
class SeqScanNode(PlanNode):
    """Full sequential scan of a heap, applying all filters."""

    table: str = ""
    filters: List = dataclasses.field(default_factory=list)

    def label(self) -> str:
        return f"SeqScan({self.table})"


@dataclasses.dataclass
class IndexScanNode(PlanNode):
    """B+tree index scan with heap fetches.

    Attributes:
        table: Base table.
        index: The index driving the scan.
        lookup_value: Key for a point lookup, or None for a range scan.
        range_low / range_high: Inclusive range bounds (None = unbounded).
        residual: Filters applied after the heap fetch.
        in_values: For an IN-list scan, the lookup keys (the scan performs
            one point lookup per key).
        low_inclusive / high_inclusive: Whether the range bounds include
            their endpoints.
        parameterized_by: When set, the scan is the inner side of an index
            nested-loop join and the lookup key comes from this outer
            column at run time; ``cost`` and ``rows`` are then per outer
            tuple rather than totals.
    """

    table: str = ""
    index: Optional[IndexDef] = None
    lookup_value: object = None
    range_low: object = None
    range_high: object = None
    residual: List = dataclasses.field(default_factory=list)
    in_values: Optional[Tuple] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    # Composite indexes: values of the equality predicates on the leading
    # key columns; the other bound fields then refer to the key column at
    # position len(prefix_values).
    prefix_values: Tuple = ()
    parameterized_by: Optional[ColumnExpr] = None

    def label(self) -> str:
        if self.parameterized_by is not None:
            kind = "param"
        elif self.lookup_value is not None:
            kind = "eq"
        elif self.in_values is not None:
            kind = "in"
        else:
            kind = "range"
        return f"IndexScan({self.index.name}, {kind})"


@dataclasses.dataclass
class NestedLoopNode(PlanNode):
    """Nested-loop join; the inner side may be a parameterized index scan."""

    outer: Optional[PlanNode] = None
    inner: Optional[PlanNode] = None
    joins: List[JoinPredicate] = dataclasses.field(default_factory=list)

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner]

    def label(self) -> str:
        return "NestLoop"


@dataclasses.dataclass
class HashJoinNode(PlanNode):
    """Hash join; the right child is the build side."""

    probe: Optional[PlanNode] = None
    build: Optional[PlanNode] = None
    joins: List[JoinPredicate] = dataclasses.field(default_factory=list)

    def children(self) -> List[PlanNode]:
        return [self.probe, self.build]

    def label(self) -> str:
        return "HashJoin"


@dataclasses.dataclass
class SortNode(PlanNode):
    """Full sort of the child output."""

    child: Optional[PlanNode] = None
    keys: List[OrderItem] = dataclasses.field(default_factory=list)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(str(k.column) for k in self.keys)
        return f"Sort({keys})"


@dataclasses.dataclass
class AggregateNode(PlanNode):
    """Hash aggregation with optional grouping."""

    child: Optional[PlanNode] = None
    group_by: List[ColumnExpr] = dataclasses.field(default_factory=list)
    aggregates: List[Aggregate] = dataclasses.field(default_factory=list)
    output: List[SelectItem] = dataclasses.field(default_factory=list)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "HashAggregate" if self.group_by else "Aggregate"


@dataclasses.dataclass
class ProjectNode(PlanNode):
    """Column projection (no-op for SELECT *)."""

    child: Optional[PlanNode] = None
    output: List[SelectItem] = dataclasses.field(default_factory=list)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Project"


@dataclasses.dataclass
class LimitNode(PlanNode):
    """Row-count limit."""

    child: Optional[PlanNode] = None
    limit: int = 0

    def __post_init__(self) -> None:
        # The parser rejects ``LIMIT -5``; a hand-built Query must not
        # get a plan with a negative cardinality either.
        if self.limit < 0 or self.rows < 0:
            raise ValueError(f"LIMIT cannot be negative, got {self.limit}")

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit({self.limit})"


def explain(plan: PlanNode) -> str:
    """Render a plan tree as indented EXPLAIN-style text."""
    lines: List[str] = []
    _explain(plan, 0, lines)
    return "\n".join(lines)


def _explain(node: PlanNode, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    lines.append(
        f"{indent}{node.label()}  (rows={node.rows:.0f} cost={node.cost:.2f})"
    )
    for child in node.children():
        _explain(child, depth + 1, lines)


def plan_signature(plan: PlanNode) -> Tuple:
    """A hashable structural summary of a plan (for tests and caching)."""
    parts: List = [plan.label()]
    for child in plan.children():
        parts.append(plan_signature(child))
    return tuple(parts)
