"""The SQL front end ``repro.sql`` shipped before its one-pass scanner.

The character-at-a-time tokenizer (a frozen ``Token`` per token), the
recursive-descent parser that walked those objects through
``_accept -> _peek -> _next``, and the binder that rebuilt every node,
verbatim.  They are the reference the compiled scanner, the index-walking
parser and the node-reusing binder are held against
(``test_frontend_differential.py``); nothing in ``src/`` imports them.
The exception classes are the shipped ones, so "same exception class"
is an identity check.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional

from repro.engine.catalog import Catalog
from repro.engine.datatypes import DataType, coerce, comparable
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
from repro.sql.binder import BindError
from repro.sql.lexer import LexError
from repro.sql.parser import ParseError


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "select",
        "from",
        "where",
        "and",
        "group",
        "order",
        "by",
        "limit",
        "asc",
        "desc",
        "between",
        "in",
        "as",
        "count",
        "sum",
        "avg",
        "min",
        "max",
        "distinct",
    }
)

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")
_PUNCT = "(),.*"


@dataclasses.dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        type: Token category.
        value: Normalized token text (keywords/identifiers lowercased,
            numbers and strings as their literal text).
        pos: Character offset in the source, for error messages.
    """

    type: TokenType
    value: str
    pos: int


def tokenize(sql: str) -> List[Token]:
    """Tokenize a SQL string.

    Raises:
        LexError: on invalid input (unterminated string, bad character).
    """
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            end = sql.find("'", i + 1)
            if end < 0:
                raise LexError(f"unterminated string literal at offset {i}")
            yield Token(TokenType.STRING, sql[i + 1 : end], i)
            i = end + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    # A dot not followed by a digit is punctuation
                    # (qualified name), not a decimal point.
                    if j + 1 >= n or not sql[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # An exponent (``1.03e-05``: how repr() prints tiny and huge
            # floats) needs a digit after it; otherwise ``e`` starts a word.
            if j < n and sql[j] in "eE":
                k = j + 2 if j + 1 < n and sql[j + 1] in "+-" else j + 1
                if k < n and sql[k].isdigit():
                    j = k + 1
                    while j < n and sql[j].isdigit():
                        j += 1
            yield Token(TokenType.NUMBER, sql[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j].lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            yield Token(kind, word, i)
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                yield Token(TokenType.OP, op, i)
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            yield Token(TokenType.PUNCT, ch, i)
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at offset {i}")
    yield Token(TokenType.EOF, "", n)


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


def bind_query(query: Query, catalog: Catalog) -> Query:
    """Return a fully-bound copy of ``query``.

    Raises:
        BindError: on unknown tables/columns, ambiguous references, or
            type-incompatible predicates.
    """
    binder = _Binder(query, catalog)
    return binder.bind()


class _Binder:
    def __init__(self, query: Query, catalog: Catalog) -> None:
        self._query = query
        self._catalog = catalog

    def bind(self) -> Query:
        for name in self._query.tables:
            if not self._catalog.has_table(name):
                raise BindError(f"unknown table {name!r}")
        return Query(
            tables=list(self._query.tables),
            select=[self._bind_item(i) for i in self._query.select],
            filters=[self._bind_filter(f) for f in self._query.filters],
            joins=[self._bind_join(j) for j in self._query.joins],
            group_by=[self._bind_column(c) for c in self._query.group_by],
            order_by=[
                OrderItem(self._bind_column(o.column), o.descending)
                for o in self._query.order_by
            ],
            limit=self._query.limit,
            text=self._query.text,
        )

    def _bind_column(self, col: ColumnExpr) -> ColumnExpr:
        if col.table is not None:
            if col.table not in self._query.tables:
                raise BindError(f"table {col.table!r} not in FROM clause")
            if not self._catalog.table(col.table).has_column(col.column):
                raise BindError(f"no column {col.column!r} in table {col.table!r}")
            return col
        owners = [
            t
            for t in self._query.tables
            if self._catalog.table(t).has_column(col.column)
        ]
        if not owners:
            raise BindError(f"unknown column {col.column!r}")
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {col.column!r}: in tables {', '.join(owners)}"
            )
        return ColumnExpr(column=col.column, table=owners[0])

    def _dtype(self, col: ColumnExpr) -> DataType:
        return self._catalog.table(col.table).column(col.column).dtype

    def _bind_item(self, item: SelectItem) -> SelectItem:
        if isinstance(item.expr, Aggregate):
            arg = item.expr.arg
            bound_arg = None if arg is None else self._bind_column(arg)
            return SelectItem(
                expr=Aggregate(func=item.expr.func, arg=bound_arg),
                alias=item.alias,
            )
        return SelectItem(expr=self._bind_column(item.expr), alias=item.alias)

    def _bind_filter(self, pred):
        column = self._bind_column(pred.column)
        dtype = self._dtype(column)
        try:
            if isinstance(pred, ComparisonPredicate):
                return ComparisonPredicate(
                    column=column, op=pred.op, value=coerce(pred.value, dtype)
                )
            if isinstance(pred, BetweenPredicate):
                return BetweenPredicate(
                    column=column,
                    low=coerce(pred.low, dtype),
                    high=coerce(pred.high, dtype),
                )
            if isinstance(pred, InPredicate):
                return InPredicate(
                    column=column,
                    values=tuple(coerce(v, dtype) for v in pred.values),
                )
        except TypeError as exc:
            raise BindError(f"type error in predicate on {column}: {exc}") from exc
        raise BindError(f"unsupported predicate type {type(pred).__name__}")

    def _bind_join(self, join: JoinPredicate) -> JoinPredicate:
        left = self._bind_column(join.left)
        right = self._bind_column(join.right)
        if left.table == right.table:
            raise BindError(f"join predicate {join} references a single table")
        if not comparable(self._dtype(left), self._dtype(right)):
            raise BindError(
                f"join predicate {join} compares incompatible types"
            )
        return JoinPredicate(left=left, right=right)
