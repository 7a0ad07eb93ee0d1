"""Differential: the shipped SQL front end against the one it replaced.

``tests/sql/oracle.py`` keeps the character-at-a-time tokenizer, the
token-object parser and the node-rebuilding binder verbatim.  On every
text the compiled scanner must emit the same token stream (kind, value,
offset) or raise the same exception with the same message (which names
the offset); ``parse_query`` must return an equal AST or raise the same;
``bind_query`` must return an equal ``Query`` or raise the same, and
leave its input as it found it.

Five behaviour changes are deliberate, and they are the only places the
two may part (``DELIBERATE``).  Two are the scanner's: up to the first
character one of them applies to, the streams must still agree exactly,
so the text is cut there, the new behaviour is asserted at the cut, and
the comparison runs on what is in front of it.  Two are the parser's and
one the binder's, each asserted in place of the comparison it replaces:
where the old front end let a bare ``ValueError`` / ``OverflowError``
through, the new one raises its own error class.

No test here fixes ``max_examples``: the ``deep`` profile
(``tests/conftest.py``, ``--hypothesis-profile=deep``) decides the depth.
"""

import copy
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.ast import Query
from repro.sql.binder import BindError, bind_query
from repro.sql.lexer import KEYWORDS, STRING, LexError, tokenize
from repro.sql.parser import ParseError, parse_query
from repro.sql.render import render_query
from repro.workload.datagen import build_catalog

from tests.fleet.workloads import build_small_catalog
from tests.sql import oracle
from tests.sql.test_roundtrip_fuzz import _random_query

#: A character outside ASCII, outside a string literal: the old scanner
#: asked ``str.isspace/isalpha/isdigit`` (so ``٣`` was the number 3 and
#: ``²`` a bare ValueError from ``int()``); now a LexError at its offset.
ASCII_OUTSIDE_STRINGS = "ascii_outside_strings"
#: ``'a''b'`` was two adjacent strings (a ParseError wherever the grammar
#: takes a literal); now one string holding a quote.
DOUBLED_QUOTE = "doubled_quote"
#: ``LIMIT -5`` parsed; now a ParseError naming the number's offset.
NEGATIVE_LIMIT = "negative_limit"
#: An integer literal of more digits than ``int()`` converts (4 300 from
#: Python 3.11) left ``parse_query`` as ``int()``'s bare ValueError; now a
#: ParseError naming the literal's offset.
OVERLONG_INTEGER = "overlong_integer"
#: A literal ``coerce`` cannot convert for a reason other than its type
#: (text that is no date, an integer no float holds) left ``bind_query``
#: as a bare ValueError / OverflowError; now a BindError naming the column.
UNCOERCIBLE_LITERAL = "uncoercible_literal"
DELIBERATE = (
    ASCII_OUTSIDE_STRINGS, DOUBLED_QUOTE, NEGATIVE_LIMIT, OVERLONG_INTEGER,
    UNCOERCIBLE_LITERAL,
)

_FIXED = (oracle.TokenType.KEYWORD, oracle.TokenType.OP, oracle.TokenType.PUNCT)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(instances=1)


@pytest.fixture(scope="module")
def small():
    return build_small_catalog()


def _outcome(call, *args):
    """What a call returned, or the class and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # the class is the thing under comparison
        return type(exc), str(exc)


def _assert_same(new, old):
    # ``==`` holds 5 equal to 5.0; the repr does not.
    assert new == old
    assert repr(new) == repr(old)


def _raised(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _old_streams(sql):
    """The oracle's tokens in the shipped scanner's layout."""
    tokens = oracle.tokenize(sql)
    kinds = [t.value if t.type in _FIXED else t.type.name for t in tokens]
    return kinds, [t.value for t in tokens], [t.pos for t in tokens]


def _first_divergence(sql):
    """``(offset, end, name)`` of the first scanner-level deliberate change.

    Read off the oracle's own scan: the first non-ASCII character it met
    outside a string, and the first string whose closing quote touches
    the opening quote of another complete string (``end`` is then where
    that second string ends).  None when the text has neither.
    """
    tokens = []
    scanned = len(sql)
    try:
        tokens.extend(oracle._tokens(sql))
    except LexError as exc:
        # Up to and including the character it stopped at; past an
        # unterminated string's opening quote everything is its content.
        scanned = int(re.search(r"at offset (\d+)$", str(exc)).group(1)) + 1
    strings = [
        (t.pos, t.pos + len(t.value) + 2)
        for t in tokens
        if t.type is oracle.TokenType.STRING
    ]
    quoted = {i for start, end in strings for i in range(start, end)}
    foreign = next(
        (i for i in range(scanned) if ord(sql[i]) > 127 and i not in quoted), scanned
    )
    for (start, end), (next_start, next_end) in zip(strings, strings[1:]):
        if end == next_start and start < foreign:
            return start, next_end, DOUBLED_QUOTE
    if foreign < scanned:
        return foreign, foreign + 1, ASCII_OUTSIDE_STRINGS
    return None


def _assert_new_behaviour_at(sql, offset, end, name):
    if name == DOUBLED_QUOTE:
        kinds, values, offsets = tokenize(sql[:end])
        inner = sql[offset + 1 : end - 1]
        assert "''" in inner
        assert (kinds[-2], values[-2], offsets[-2]) == (
            STRING,
            inner.replace("''", "'"),
            offset,
        )
        return
    # The error the text in front of it already earns (``-`` before a
    # non-ASCII digit is no sign), else this character's own.
    expected = _outcome(tokenize, sql[:offset])
    if not _raised(expected):
        expected = LexError, f"unexpected character {sql[offset]!r} at offset {offset}"
    assert _outcome(tokenize, sql) == expected


def _compare(sql, catalog):
    """Hold the two front ends to each other on one text.

    Returns the names of the deliberate changes the text ran into.
    """
    met = []
    cut = _first_divergence(sql)
    if cut is not None:
        offset, end, name = cut
        _assert_new_behaviour_at(sql, offset, end, name)
        met.append(name)
        sql = sql[:offset]
        assert _first_divergence(sql) is None

    _assert_same(_outcome(tokenize, sql), _outcome(_old_streams, sql))

    old = _outcome(oracle.parse_query, sql)
    new = _outcome(parse_query, sql)
    if isinstance(old, Query) and old.limit is not None and old.limit < 0:
        number_at = oracle.tokenize(sql)[-2].pos
        assert _raised(new) and new[0] is ParseError
        assert new[1].endswith(f"at offset {number_at}")
        return met + [NEGATIVE_LIMIT]
    if _raised(old) and old[0] is ValueError:  # int()'s own, not a subclass
        assert _raised(new) and new[0] is ParseError
        assert re.search(r"^integer literal too long at offset \d+$", new[1])
        return met + [OVERLONG_INTEGER]
    _assert_same(new, old)
    if not isinstance(new, Query):
        return met

    before = copy.deepcopy(new)
    bound = _outcome(bind_query, new, catalog)
    old_bound = _outcome(oracle.bind_query, old, catalog)
    if _raised(old_bound) and old_bound[0] in (ValueError, OverflowError):
        assert _raised(bound) and bound[0] is BindError
        assert bound[1].startswith("type error in predicate on ")
        assert bound[1].endswith(": " + old_bound[1])
        met.append(UNCOERCIBLE_LITERAL)
    else:
        _assert_same(bound, old_bound)
    _assert_same(new, before)
    if isinstance(bound, Query):
        assert bound is not new
        for name in ("tables", "select", "filters", "joins", "group_by", "order_by"):
            assert getattr(bound, name) is not getattr(new, name)
    return met


# -- the sources --------------------------------------------------------

#: SQL-ish ASCII: every whitespace kind ``str.isspace`` knows below 128,
#: the sign, the dot, both exponent letters, digits, quotes alone and
#: doubled, every operator and punctuation mark, characters the dialect
#: lacks, the keywords in both cases, names the catalog binds, and whole
#: literals of each shape.
SOUP = (
    list(" \t\n\r\f\v\x1c\x1d\x1e\x1f")
    + list("-.eE_0123456789'")
    + ["''", "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*"]
    + list("!+;@#\"\\/\x00")
    + sorted(KEYWORDS)
    + [word.upper() for word in sorted(KEYWORDS)]
    + ["lineitem_1", "orders_1", "l_orderkey", "o_orderkey", "l_shipdate"]
    + ["l_extendedprice", "l_returnflag", "o_orderdate", "nosuch", "T", "x"]
    + ["1", "42", "-7", "1.5", "-0.25", "1e5", "7E2", "2.5E-3", "1e", "1.", ".5"]
    + ["'abc'", "'1994-01-01'", "'it''s'", "'", "'R'"]
)

soup = st.lists(st.sampled_from(SOUP), max_size=40).map("".join)


def _cased(word):
    return st.sampled_from([word, word.upper(), word.capitalize()])


# Texts the grammar derives, over the events/users catalog (``user_id``
# is in both tables, so unqualified references can be ambiguous): every
# production the rendered queries never take -- unqualified and unknown
# columns, literal-first and column-column comparisons of any operator,
# DISTINCT, aliases, ASC, mixed case, odd spacing, literals of the wrong
# type -- as a token list, so an edit can break it at a token boundary.
COLUMN = st.sampled_from(
    ["user_id", "amount", "day", "kind", "score", "events.kind", "users.score"]
    + ["events.user_id", "users.user_id", "events.amount", "events.day"] * 2
    + ["nosuch", "users.amount", "other.kind"]
)
LITERAL = st.sampled_from(
    ["0", "7", "-7", "42", "5.0", "1.5", "-0.25", "1e3", "1E3", "2.5E-3"]
    + ["'click'", "'view'", "''", "'1992-06-01'", "'1994-01-01'", "'no date'"]
)
OPERATOR = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="])
FROM = st.sampled_from(
    [["events"], ["users"], ["Events"], ["events", ",", "users"]] * 2
    + [["users", ",", "events"], ["events", ",", "events"], ["missing"]]
)


def _some(items):
    return st.lists(items, min_size=1, max_size=3)


def _listed(parts):
    """Token lists joined by commas."""
    out = list(parts[0])
    for part in parts[1:]:
        out += [",", *part]
    return out


@st.composite
def _select_item(draw):
    shape = draw(st.integers(0, 3))
    if shape == 0:
        item = [draw(COLUMN)]
    else:
        func = draw(st.sampled_from(["count", "count", "sum", "avg", "min", "max"]))
        inner = ["*"] if shape == 1 and func != "avg" else [draw(COLUMN)]
        if shape == 3:
            inner.insert(0, draw(_cased("distinct")))
        item = [draw(_cased(func)), "(", *inner, ")"]
    if draw(st.booleans()):
        item += [draw(_cased("as")), draw(st.sampled_from(["z", "total", "Kind"]))]
    return item


@st.composite
def _predicate(draw):
    shape = draw(st.integers(0, 4))
    column = draw(COLUMN)
    if shape == 0:
        return [column, draw(OPERATOR), draw(LITERAL)]
    if shape == 1:
        return [draw(LITERAL), draw(OPERATOR), column]
    if shape == 2:
        # Mostly the one operator a join may have.
        return [column, draw(st.sampled_from(["=", "=", "=", "<", "!="])), draw(COLUMN)]
    if shape == 3:
        bounds = [draw(LITERAL), draw(_cased("and")), draw(LITERAL)]
        return [column, draw(_cased("between")), *bounds]
    values = draw(_some(LITERAL.map(lambda v: [v])))
    return [column, draw(_cased("in")), "(", *_listed(values), ")"]


@st.composite
def _order_item(draw):
    return [draw(COLUMN)] + draw(st.sampled_from([[], ["asc"], ["desc"], ["DESC"]]))


@st.composite
def derived_tokens(draw):
    tokens = [draw(_cased("select"))]
    tokens += ["*"] if draw(st.booleans()) else _listed(draw(_some(_select_item())))
    tokens += [draw(_cased("from")), *draw(FROM)]
    if draw(st.booleans()):
        tokens.append(draw(_cased("where")))
        predicates = draw(_some(_predicate()))
        tokens += predicates[0]
        for predicate in predicates[1:]:
            tokens += [draw(_cased("and")), *predicate]
    if draw(st.booleans()):
        columns = draw(_some(COLUMN.map(lambda c: [c])))
        tokens += [draw(_cased("group")), "by", *_listed(columns)]
    if draw(st.booleans()):
        tokens += [draw(_cased("order")), "BY", *_listed(draw(_some(_order_item())))]
    if draw(st.booleans()):
        tokens += ["limit", draw(st.sampled_from(["0", "3", "10", "250", "-5", "1.5"]))]
    return tokens


#: ``(token index, replacement)``; no replacement deletes the token.
edits = st.lists(
    st.tuples(st.integers(0, 80), st.none() | st.sampled_from(SOUP)), max_size=2
)
spacing = st.sampled_from([" ", "  ", "\n", "\t ", " \x1f"])


class TestFrontEndDifferential:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_rendered_queries(self, seed, catalog):
        query = _random_query(random.Random(seed), catalog)
        # Only quotes in TEXT literals can make a rendered query part ways.
        assert set(_compare(render_query(query, catalog), catalog)) <= {DOUBLED_QUOTE}

    @given(sql=soup)
    @settings(deadline=None)
    def test_token_soup(self, sql, catalog):
        _compare(sql, catalog)

    @given(tokens=derived_tokens(), edits=edits, space=spacing)
    @settings(deadline=None)
    def test_grammar_derivations_whole_and_broken(self, tokens, edits, space, small):
        for index, replacement in edits:
            at = index % len(tokens)
            tokens[at : at + 1] = [] if replacement is None else [replacement]
            if not tokens:
                break
        _compare(space.join(tokens), small)

    @given(sql=st.text())
    @settings(deadline=None)
    def test_arbitrary_text(self, sql, catalog):
        _compare(sql, catalog)

    @pytest.mark.parametrize(
        "sql, met",
        [
            ("select l_orderkey from lineitem_1 where l_orderkey = 3", []),
            ("select l_orderkey from lineitem_1 where l_orderkey = ²", [ASCII_OUTSIDE_STRINGS]),
            ("select l_orderkey from lineitem_1 where l_orderkey = ٣", [ASCII_OUTSIDE_STRINGS]),
            ("select l_orderkey from lineitem_1 where l_orderkey = -٣", [ASCII_OUTSIDE_STRINGS]),
            ("select l_orderkéy from lineitem_1", [ASCII_OUTSIDE_STRINGS]),
            ("select l_orderkey from lineitem_1", [ASCII_OUTSIDE_STRINGS]),
            ("select * from orders_1 where o_comment = 'é' and o_clerk = '²'", []),
            ("select * from orders_1 where o_clerk = 'O''Brien'", [DOUBLED_QUOTE]),
            ("select * from orders_1 where o_clerk = ''''", [DOUBLED_QUOTE]),
            ("select * from orders_1 where o_clerk = 'a''b' é", [DOUBLED_QUOTE]),
            ("select * from orders_1 where o_clerk = 'a''b", []),
            ("select * from orders_1 where o_clerk = '''", []),
            ("select l_orderkey from lineitem_1 limit -5", [NEGATIVE_LIMIT]),
            ("select l_orderkey from lineitem_1 limit -0", []),
            (
                "select l_orderkey from lineitem_1 where l_orderkey = " + "7" * 5000,
                [OVERLONG_INTEGER] if sys.version_info >= (3, 11) else [],
            ),
            ("select l_orderkey from lineitem_1 limit " + "7" * 5000, []),
            ("select * from orders_1 where o_orderdate = 'no date'", [UNCOERCIBLE_LITERAL]),
            ("select * from orders_1 where o_orderdate = '1994-01-01'", []),
            (
                "select * from lineitem_1 where l_extendedprice = 1" + "0" * 400,
                [UNCOERCIBLE_LITERAL],
            ),
        ],
    )
    def test_each_deliberate_change_is_met_and_only_where_named(self, sql, met, catalog):
        assert set(met) <= set(DELIBERATE)
        assert _compare(sql, catalog) == met
