"""Recursive-descent parser for the supported SQL dialect.

Grammar (informal)::

    query     := SELECT select_list FROM table_list [WHERE conjuncts]
                 [GROUP BY columns] [ORDER BY order_items] [LIMIT n]
    select    := '*' | item (',' item)*
    item      := column | agg '(' (column | '*' | DISTINCT column) ')' [AS ident]
    conjuncts := predicate (AND predicate)*
    predicate := column op literal | literal op column | column op column
               | column BETWEEN literal AND literal
               | column IN '(' literal (',' literal)* ')'

Only conjunctions are supported -- the same restriction the paper's
workload model makes (COLT mines conjunctive selection predicates).
"""

from __future__ import annotations

from typing import List

from repro.sql.ast import (
    AggFunc,
    Aggregate,
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    OrderItem,
    Query,
    SelectItem,
)
from repro.sql.lexer import EOF, IDENT, NUMBER, STRING, tokenize


class ParseError(ValueError):
    """Raised when the input does not conform to the grammar."""


_AGGREGATES = {func.value: func for func in AggFunc}
_OPERATORS = {op.value: op for op in CompareOp}
_OPERATORS["!="] = CompareOp.NE
# ``literal op column`` is stored as ``column flipped(op) literal``.
_FLIPPED = {text: op.flipped() for text, op in _OPERATORS.items()}


class _Parser:
    """One parse: the scanner's parallel lists and an index into them."""

    __slots__ = ("_sql", "_kinds", "_values", "_offsets", "_i")

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._kinds, self._values, self._offsets = tokenize(sql)
        self._i = 0

    # -- token helpers -------------------------------------------------
    # The clauses every query passes through test ``kinds[self._i]`` in
    # line; ``_accept`` serves the optional tokens off that path.
    def _accept(self, kind: str) -> bool:
        i = self._i
        if self._kinds[i] == kind:
            self._i = i + 1
            return True
        return False

    def _expect(self, kind: str) -> str:
        """Consume one token of ``kind`` and return its value."""
        i = self._i
        if self._kinds[i] != kind:
            raise self._expected(kind.lower())
        self._i = i + 1
        return self._values[i]

    def _expected(self, want: str) -> ParseError:
        i = self._i
        return ParseError(
            f"expected {want!r} at offset {self._offsets[i]}, got {self._values[i]!r}"
        )

    def _listed(self, item) -> list:
        """``item (',' item)*``"""
        items = [item()]
        kinds = self._kinds
        while kinds[self._i] == ",":
            self._i += 1
            items.append(item())
        return items

    # -- grammar -------------------------------------------------------
    def parse(self) -> Query:
        kinds = self._kinds
        self._expect("select")
        select = [] if self._accept("*") else self._listed(self._select_item)
        self._expect("from")
        tables = self._table_list()
        filters: List[object] = []
        joins: List[JoinPredicate] = []
        if kinds[self._i] == "where":
            self._i += 1
            self._predicate(filters, joins)
            while kinds[self._i] == "and":
                self._i += 1
                self._predicate(filters, joins)
        group_by: List[ColumnExpr] = []
        if kinds[self._i] == "group":
            self._i += 1
            self._expect("by")
            group_by = self._listed(self._column)
        order_by: List[OrderItem] = []
        if kinds[self._i] == "order":
            self._i += 1
            self._expect("by")
            order_by = self._listed(self._order_item)
        limit = None
        if kinds[self._i] == "limit":
            self._i += 1
            text = self._expect(NUMBER)
            try:
                limit = int(text)
            except ValueError:
                limit = None
            if limit is None or limit < 0:
                what = "takes an integer" if limit is None else "cannot be negative"
                at = self._offsets[self._i - 1]
                raise ParseError(f"LIMIT {what}, got {text!r} at offset {at}")
        self._expect(EOF)
        return Query(
            tables=tables,
            select=select,
            filters=filters,
            joins=joins,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            text=self._sql,
        )

    def _select_item(self) -> SelectItem:
        func = _AGGREGATES.get(self._kinds[self._i])
        if func is not None:
            self._i += 1
            self._expect("(")
            if self._accept("*"):
                arg = None
                if func is not AggFunc.COUNT:
                    raise ParseError(f"{func.value}(*) is not supported")
            else:
                self._accept("distinct")
                arg = self._column()
            self._expect(")")
            expr: object = Aggregate(func, arg)
        else:
            expr = self._column()
        if self._kinds[self._i] != "as":
            return SelectItem(expr)
        self._i += 1
        return SelectItem(expr, self._expect(IDENT))

    def _table_list(self) -> List[str]:
        tables = [self._expect(IDENT)]
        kinds = self._kinds
        while kinds[self._i] == ",":
            self._i += 1
            name = self._expect(IDENT)
            if name in tables:
                raise ParseError(f"table {name!r} referenced twice (self-joins unsupported)")
            tables.append(name)
        return tables

    def _predicate(self, filters: List[object], joins: List[JoinPredicate]) -> None:
        kinds = self._kinds
        kind = kinds[self._i]
        if kind == NUMBER or kind == STRING:
            # literal op column  →  normalize to column op literal
            literal = self._literal()
            op = _FLIPPED.get(kinds[self._i])
            if op is None:
                raise self._expected("op")
            self._i += 1
            filters.append(ComparisonPredicate(self._column(), op, literal))
            return

        column = self._column()
        i = self._i
        kind = kinds[i]
        if kind == "between":
            self._i = i + 1
            low = self._literal()
            self._expect("and")
            filters.append(BetweenPredicate(column, low, self._literal()))
        elif kind == "in":
            self._i = i + 1
            self._expect("(")
            values = tuple(self._listed(self._literal))
            self._expect(")")
            filters.append(InPredicate(column, values))
        else:
            op = _OPERATORS.get(kind)
            if op is None:
                raise self._expected("op")
            self._i = i + 1
            if kinds[i + 1] == IDENT:
                right = self._column()
                if op is not CompareOp.EQ:
                    raise ParseError(
                        f"only equi-joins are supported, got {op.value!r} "
                        f"at offset {self._offsets[i]}"
                    )
                joins.append(JoinPredicate(column, right))
            else:
                filters.append(ComparisonPredicate(column, op, self._literal()))

    def _column(self) -> ColumnExpr:
        i = self._i
        kinds = self._kinds
        if kinds[i] != IDENT:
            raise self._expected("ident")
        # Past an IDENT the stream holds at least EOF, past a "." too.
        if kinds[i + 1] != ".":
            self._i = i + 1
            return ColumnExpr(self._values[i])
        self._i = i + 2
        if kinds[i + 2] != IDENT:
            raise self._expected("ident")
        self._i = i + 3
        return ColumnExpr(self._values[i + 2], self._values[i])

    def _order_item(self) -> OrderItem:
        column = self._column()
        descending = self._accept("desc")
        if not descending:
            self._accept("asc")
        return OrderItem(column, descending)

    def _literal(self):
        i = self._i
        kind = self._kinds[i]
        text = self._values[i]
        if kind == NUMBER:
            self._i = i + 1
            if "." in text or "e" in text or "E" in text:
                return float(text)
            try:
                return int(text)
            except ValueError:  # more digits than int() converts (3.11+)
                at = self._offsets[i]
                raise ParseError(f"integer literal too long at offset {at}") from None
        if kind == STRING:
            self._i = i + 1
            return text
        raise ParseError(f"expected literal at offset {self._offsets[i]}, got {text!r}")


def parse_query(sql: str) -> Query:
    """Parse a SQL string into an analyzed :class:`Query`.

    Raises:
        ParseError: if the input does not conform to the grammar.
        LexError: if the text does not scan (see :mod:`repro.sql.lexer`).
    """
    return _Parser(sql).parse()
