"""SQL tokenizer.

Produces a flat token stream for the parser.  Keywords are recognized
case-insensitively; identifiers preserve their (lowercased) spelling.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List


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


class LexError(ValueError):
    """Raised on an unrecognizable character sequence."""


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
