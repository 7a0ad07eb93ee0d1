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

from typing import List, Optional

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
from repro.sql.lexer import Token, TokenType, tokenize


class ParseError(ValueError):
    """Raised when the input does not conform to the grammar."""


_AGG_NAMES = {f.value for f in AggFunc}


class _Parser:
    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _accept(self, ttype: TokenType, value: Optional[str] = None) -> Optional[Token]:
        tok = self._peek()
        if tok.type is ttype and (value is None or tok.value == value):
            return self._next()
        return None

    def _expect(self, ttype: TokenType, value: Optional[str] = None) -> Token:
        tok = self._accept(ttype, value)
        if tok is None:
            got = self._peek()
            want = value or ttype.value
            raise ParseError(
                f"expected {want!r} at offset {got.pos}, got {got.value!r}"
            )
        return tok

    # -- grammar -------------------------------------------------------
    def parse(self) -> Query:
        self._expect(TokenType.KEYWORD, "select")
        select = self._select_list()
        self._expect(TokenType.KEYWORD, "from")
        tables = self._table_list()
        filters: List[object] = []
        joins: List[JoinPredicate] = []
        if self._accept(TokenType.KEYWORD, "where"):
            self._conjuncts(filters, joins)
        group_by: List[ColumnExpr] = []
        if self._accept(TokenType.KEYWORD, "group"):
            self._expect(TokenType.KEYWORD, "by")
            group_by.append(self._column())
            while self._accept(TokenType.PUNCT, ","):
                group_by.append(self._column())
        order_by: List[OrderItem] = []
        if self._accept(TokenType.KEYWORD, "order"):
            self._expect(TokenType.KEYWORD, "by")
            order_by.append(self._order_item())
            while self._accept(TokenType.PUNCT, ","):
                order_by.append(self._order_item())
        limit = None
        if self._accept(TokenType.KEYWORD, "limit"):
            tok = self._expect(TokenType.NUMBER)
            try:
                limit = int(tok.value)
            except ValueError:
                raise ParseError(
                    f"LIMIT takes an integer, got {tok.value!r} at offset {tok.pos}"
                ) from None
        self._expect(TokenType.EOF)
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

    def _select_list(self) -> List[SelectItem]:
        if self._accept(TokenType.PUNCT, "*"):
            return []
        items = [self._select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        tok = self._peek()
        if tok.type is TokenType.KEYWORD and tok.value in _AGG_NAMES:
            self._next()
            self._expect(TokenType.PUNCT, "(")
            func = AggFunc(tok.value)
            if self._accept(TokenType.PUNCT, "*"):
                arg = None
                if func is not AggFunc.COUNT:
                    raise ParseError(f"{func.value}(*) is not supported")
            else:
                self._accept(TokenType.KEYWORD, "distinct")
                arg = self._column()
            self._expect(TokenType.PUNCT, ")")
            expr: object = Aggregate(func=func, arg=arg)
        else:
            expr = self._column()
        alias = None
        if self._accept(TokenType.KEYWORD, "as"):
            alias = self._expect(TokenType.IDENT).value
        return SelectItem(expr=expr, alias=alias)

    def _table_list(self) -> List[str]:
        tables = [self._expect(TokenType.IDENT).value]
        while self._accept(TokenType.PUNCT, ","):
            name = self._expect(TokenType.IDENT).value
            if name in tables:
                raise ParseError(f"table {name!r} referenced twice (self-joins unsupported)")
            tables.append(name)
        return tables

    def _conjuncts(self, filters: List[object], joins: List[JoinPredicate]) -> None:
        self._predicate(filters, joins)
        while self._accept(TokenType.KEYWORD, "and"):
            self._predicate(filters, joins)

    def _predicate(self, filters: List[object], joins: List[JoinPredicate]) -> None:
        tok = self._peek()
        if tok.type in (TokenType.NUMBER, TokenType.STRING):
            # literal op column  →  normalize to column op literal
            literal = self._literal()
            op_tok = self._expect(TokenType.OP)
            column = self._column()
            op = _parse_op(op_tok.value).flipped()
            filters.append(ComparisonPredicate(column=column, op=op, value=literal))
            return

        column = self._column()
        if self._accept(TokenType.KEYWORD, "between"):
            low = self._literal()
            self._expect(TokenType.KEYWORD, "and")
            high = self._literal()
            filters.append(BetweenPredicate(column=column, low=low, high=high))
            return
        if self._accept(TokenType.KEYWORD, "in"):
            self._expect(TokenType.PUNCT, "(")
            values = [self._literal()]
            while self._accept(TokenType.PUNCT, ","):
                values.append(self._literal())
            self._expect(TokenType.PUNCT, ")")
            filters.append(InPredicate(column=column, values=tuple(values)))
            return

        op_tok = self._expect(TokenType.OP)
        op = _parse_op(op_tok.value)
        rhs = self._peek()
        if rhs.type is TokenType.IDENT:
            right = self._column()
            if op is not CompareOp.EQ:
                raise ParseError(
                    f"only equi-joins are supported, got {op.value!r} at offset {op_tok.pos}"
                )
            joins.append(JoinPredicate(left=column, right=right))
        else:
            filters.append(
                ComparisonPredicate(column=column, op=op, value=self._literal())
            )

    def _column(self) -> ColumnExpr:
        first = self._expect(TokenType.IDENT).value
        if self._accept(TokenType.PUNCT, "."):
            second = self._expect(TokenType.IDENT).value
            return ColumnExpr(column=second, table=first)
        return ColumnExpr(column=first)

    def _order_item(self) -> OrderItem:
        column = self._column()
        descending = False
        if self._accept(TokenType.KEYWORD, "desc"):
            descending = True
        else:
            self._accept(TokenType.KEYWORD, "asc")
        return OrderItem(column=column, descending=descending)

    def _literal(self):
        tok = self._next()
        if tok.type is TokenType.NUMBER:
            if any(c in tok.value for c in ".eE"):
                return float(tok.value)
            return int(tok.value)
        if tok.type is TokenType.STRING:
            return tok.value
        raise ParseError(f"expected literal at offset {tok.pos}, got {tok.value!r}")


def _parse_op(text: str) -> CompareOp:
    if text == "!=":
        return CompareOp.NE
    return CompareOp(text)


def parse_query(sql: str) -> Query:
    """Parse a SQL string into an analyzed :class:`Query`.

    Raises:
        ParseError: if the input does not conform to the grammar.
    """
    return _Parser(sql).parse()
