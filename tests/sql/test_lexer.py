"""Unit tests for the SQL tokenizer."""

import pytest

from repro.sql.lexer import LexError, Token, TokenType, tokenize


def _types(sql):
    return [t.type for t in tokenize(sql)]


def _values(sql):
    return [t.value for t in tokenize(sql)][:-1]  # drop EOF


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert _values("SELECT select SeLeCt") == ["select", "select", "select"]

    def test_identifiers_lowercased(self):
        tokens = tokenize("MyTable")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "mytable"

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("select")[-1].type is TokenType.EOF

    def test_full_query(self):
        sql = "select a, b from t where a >= 10 and b = 'x' order by a desc limit 5"
        values = _values(sql)
        assert "select" in values
        assert ">=" in values
        assert "x" in values


class TestNumbers:
    def test_integer(self):
        tok = tokenize("123")[0]
        assert tok.type is TokenType.NUMBER
        assert tok.value == "123"

    def test_decimal(self):
        assert tokenize("1.5")[0].value == "1.5"

    def test_negative(self):
        assert tokenize("-42")[0].value == "-42"

    @pytest.mark.parametrize(
        "text", ["1.03e-05", "1e+22", "-2.5E3", "7e300", "5e-324"]
    )
    def test_exponent(self, text):
        tok = tokenize(text)[0]
        assert tok.type is TokenType.NUMBER
        assert tok.value == text
        assert _types(text) == [TokenType.NUMBER, TokenType.EOF]

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


class TestStrings:
    def test_quoted_string(self):
        tok = tokenize("'hello world'")[0]
        assert tok.type is TokenType.STRING
        assert tok.value == "hello world"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>", "!="])
    def test_each_operator(self, op):
        tok = tokenize(op)[0]
        assert tok.type is TokenType.OP
        assert tok.value == op

    def test_two_char_ops_not_split(self):
        assert _values("a<=b") == ["a", "<=", "b"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("select @")

    def test_position_reported(self):
        try:
            tokenize("ab #")
        except LexError as exc:
            assert "3" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected LexError")


class TestTokenDataclass:
    def test_frozen(self):
        tok = Token(TokenType.IDENT, "x", 0)
        with pytest.raises(Exception):
            tok.value = "y"  # type: ignore[misc]
