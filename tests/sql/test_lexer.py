"""Unit tests for the SQL scanner."""

import pytest

from repro.sql.lexer import EOF, IDENT, KEYWORDS, NUMBER, STRING, LexError, tokenize


def _kinds(sql):
    return tokenize(sql)[0]


def _values(sql):
    return tokenize(sql)[1][:-1]  # drop EOF


def _first(sql):
    kinds, values, offsets = tokenize(sql)
    return kinds[0], values[0], offsets[0]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert _values("SELECT select SeLeCt") == ["select", "select", "select"]
        assert _kinds("SELECT select SeLeCt") == ["select", "select", "select", EOF]

    def test_identifiers_lowercased(self):
        assert _first("MyTable") == (IDENT, "mytable", 0)

    def test_eof_always_last(self):
        assert tokenize("") == ([EOF], [""], [0])
        assert tokenize("select  ") == (["select", EOF], ["select", ""], [0, 8])

    def test_full_query(self):
        sql = "select a, b from t where a >= 10 and b = 'x' order by a desc limit 5"
        values = _values(sql)
        assert "select" in values
        assert ">=" in values
        assert "x" in values

    def test_streams_are_parallel(self):
        kinds, values, offsets = tokenize("select t.a from t where a<=-1.5 and b='x'")
        assert len(kinds) == len(values) == len(offsets)
        assert offsets == sorted(offsets)

    def test_fixed_tokens_are_their_own_kind(self):
        sql = " ".join(sorted(KEYWORDS)) + " <= >= <> != = < > ( ) , . *"
        kinds, values, _ = tokenize(sql)
        assert kinds[:-1] == values[:-1]

    def test_class_kinds_cannot_collide_with_words(self):
        # Words are lower-cased; the class names are not.
        for name in (IDENT, NUMBER, STRING, EOF):
            assert name != name.lower()
            assert _first(name) == (IDENT, name.lower(), 0)

    @pytest.mark.parametrize("space", " \t\n\r\f\v\x1c\x1d\x1e\x1f")
    def test_every_ascii_whitespace_separates(self, space):
        assert tokenize(f"a{space}{space}b{space}") == (
            [IDENT, IDENT, EOF],
            ["a", "b", ""],
            [0, 3, 5],
        )


class TestNumbers:
    def test_integer(self):
        assert _first("123") == (NUMBER, "123", 0)

    def test_decimal(self):
        assert _values("1.5") == ["1.5"]

    def test_negative(self):
        assert _values("-42") == ["-42"]
        assert _values("a-42") == ["a", "-42"]

    @pytest.mark.parametrize(
        "text", ["1.03e-05", "1e+22", "-2.5E3", "7e300", "5e-324"]
    )
    def test_exponent(self, text):
        assert _first(text) == (NUMBER, text, 0)
        assert _kinds(text) == [NUMBER, EOF]

    def test_e_without_digits_is_not_an_exponent(self):
        assert _values("1e") == ["1", "e"]
        assert _values("12 e3") == ["12", "e3"]
        assert _values("1ex") == ["1", "ex"]

    def test_qualified_name_not_decimal(self):
        values = _values("t.a")
        assert values == ["t", ".", "a"]

    def test_number_then_dot_ident(self):
        # "1.x" lexes as number 1, dot, ident x (not a malformed decimal).
        assert _values("1.x") == ["1", ".", "x"]

    def test_second_dot_ends_the_number(self):
        assert _values("1.5.3") == ["1.5", ".", "3"]
        assert _values("1..5") == ["1", ".", ".", "5"]


class TestStrings:
    def test_quoted_string(self):
        assert _first("'hello world'") == (STRING, "hello world", 0)

    def test_empty_string(self):
        assert _first("''") == (STRING, "", 0)

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated string literal at offset 4"):
            tokenize("a = 'oops")

    def test_doubled_quote_is_one_quote(self):
        assert _first("'O''Brien'") == (STRING, "O'Brien", 0)
        assert _first("''''") == (STRING, "'", 0)
        assert _first("'x'' and l_orderkey = ''1'") == (
            STRING,
            "x' and l_orderkey = '1",
            0,
        )
        assert _kinds("'a''b' 'c'") == [STRING, STRING, EOF]

    def test_odd_quote_run_is_unterminated(self):
        # Reported at the last quote, the one nothing pairs with.
        with pytest.raises(LexError, match="unterminated string literal at offset 2"):
            tokenize("'''")
        with pytest.raises(LexError, match="unterminated string literal at offset 6"):
            tokenize("a 'it''s")

    def test_strings_keep_case_spacing_and_any_character(self):
        assert _values("'  Mixed\tCase ²٣é\n'") == ["  Mixed\tCase ²٣é\n"]

    def test_keyword_text_in_a_string_is_a_string(self):
        assert _kinds("'select' ','") == [STRING, STRING, EOF]


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>", "!="])
    def test_each_operator(self, op):
        assert _first(op) == (op, op, 0)

    def test_two_char_ops_not_split(self):
        assert _values("a<=b") == ["a", "<=", "b"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("select @")

    def test_position_reported(self):
        with pytest.raises(LexError, match=r"unexpected character '#' at offset 3"):
            tokenize("ab #")

    @pytest.mark.parametrize("bad", ["-", "!", "- 1", "1e+", "a ; b", "\x00"])
    def test_ascii_characters_outside_the_dialect(self, bad):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(bad)

    @pytest.mark.parametrize(
        "sql, offset",
        [
            ("select a from t where a = ²", 26),  # str.isdigit(), int() rejects it
            ("select a from t where a = ٣", 26),  # int() reads it as 3
            ("select a from t where a = 1٣", 27),
            ("select café from t", 10),  # str.isalpha()
            ("select\xa0a from t", 6),  # str.isspace(): no-break space
            ("select a\u2003from t", 8),  # em space
            ("select a from t where a = 'x' €", 30),
        ],
    )
    def test_non_ascii_outside_a_string_is_a_lex_error(self, sql, offset):
        with pytest.raises(LexError, match=f"at offset {offset}$"):
            tokenize(sql)
