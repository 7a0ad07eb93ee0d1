"""SQL scanner: one compiled pattern, one pass over the text.

``tokenize`` returns three parallel lists -- kinds, values, offsets --
that the parser walks by index.  A token's *kind* is what the grammar
matches on: keywords, operators and punctuation are their own
(lower-cased) text, so the parser tests ``kinds[i] == "from"``; the open
classes are :data:`IDENT`, :data:`NUMBER` and :data:`STRING`, and
:data:`EOF` closes every stream.  The class names are upper-case and
words are lower-cased, so an identifier can never be mistaken for one.

Outside string literals the dialect is ASCII: any other character is a
:class:`LexError` naming its offset.  Inside a string ``''`` is one quote.
"""

from __future__ import annotations

import re
from typing import List, Tuple

IDENT, NUMBER, STRING, EOF = "IDENT", "NUMBER", "STRING", "EOF"

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

# One alternative per token class; the scan loop branches on the group
# number (literal there: a global per comparison is 8 % of the scan).
# Operators and punctuation are one class, both being their own kind.
# Groups 5 and 6 make every position match, so the loop has no failure
# branch.  The leading class is str.isspace() restricted to ASCII.
_TOKEN = re.compile(
    r"""[ \t-\r\x1c-\x1f]*(?:
        ([A-Za-z_][A-Za-z0-9_]*)                          # 1 word
      | (<=|>=|<>|!=|[=<>(),.*])                          # 2 operator, punctuation
      | (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)       # 3 number
      | ('[^']*(?:''[^']*)*')                             # 4 string
      | (\Z)                                              # 5 end of input
      | (.)                                               # 6 anything else
    )""",
    re.VERBOSE | re.DOTALL,
)


class LexError(ValueError):
    """Raised on an unrecognizable character sequence."""


def tokenize(sql: str) -> Tuple[List[str], List[str], List[int]]:
    """Scan a SQL string into parallel ``(kinds, values, offsets)`` lists.

    Values are normalized token text: words lower-cased, numbers as
    written, strings without their quotes and with ``''`` read as ``'``.

    Raises:
        LexError: on invalid input (unterminated string, bad character).
    """
    kinds: List[str] = []
    values: List[str] = []
    offsets: List[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(sql, pos)
        group = m.lastindex
        start, pos = m.span(group)
        text = m[group]
        if group == 1:
            text = text.lower()
            add_kind(text if text in KEYWORDS else IDENT)
        elif group == 2:
            add_kind(text)
        elif group == 3:
            add_kind(NUMBER)
        elif group == 4:
            text = text[1:-1]
            if "''" in text:
                text = text.replace("''", "'")
            add_kind(STRING)
        else:
            break
        add_value(text)
        add_offset(start)
    if group != 5:
        if text == "'":
            raise LexError(f"unterminated string literal at offset {start}")
        raise LexError(f"unexpected character {text!r} at offset {start}")
    add_kind(EOF)
    add_value("")
    add_offset(start)
    return kinds, values, offsets
