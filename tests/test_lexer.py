"""Query tokenizer."""

import pytest

from repro.errors import LexError
from repro.query.lexer import Token, TokenType, tokenize


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("select") == [(TokenType.KEYWORD, "SELECT")]
        assert kinds("SeLeCt") == [(TokenType.KEYWORD, "SELECT")]

    def test_identifiers_keep_case(self):
        assert kinds("roomId") == [(TokenType.IDENT, "roomId")]

    def test_numbers(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]
        assert kinds("3.5") == [(TokenType.NUMBER, "3.5")]
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_superscript_digit_is_refused(self):
        """``"²".isdigit()`` holds, but ``float`` cannot read it: the
        lexer refuses it instead of handing the parser a number it
        fails to convert."""
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("TOP ²2")

    def test_strings(self):
        assert kinds("'Room A'") == [(TokenType.STRING, "Room A")]

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("'oops")

    def test_operators_maximal_munch(self):
        assert kinds("<=") == [(TokenType.OPERATOR, "<=")]
        assert kinds("<") == [(TokenType.OPERATOR, "<")]
        assert kinds("<>") == [(TokenType.OPERATOR, "!=")]

    def test_punctuation(self):
        assert kinds("(,)*;") == [
            (TokenType.PUNCT, "("), (TokenType.PUNCT, ","),
            (TokenType.PUNCT, ")"), (TokenType.PUNCT, "*"),
            (TokenType.PUNCT, ";"),
        ]

    def test_eof_token_terminates(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].type is TokenType.EOF

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("SELECT @")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("SELECT\n  TOP 3")
        top = tokens[1]
        assert (top.line, top.column) == (2, 3)
        three = tokens[2]
        assert (three.line, three.column) == (2, 7)

    def test_error_position(self):
        with pytest.raises(LexError) as info:
            tokenize("a\nbb @")
        assert info.value.line == 2
        assert info.value.column == 4


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("SELECT -- pick\n1") == [
            (TokenType.KEYWORD, "SELECT"), (TokenType.NUMBER, "1")]

    def test_comment_at_eof(self):
        assert kinds("SELECT -- trailing") == [(TokenType.KEYWORD, "SELECT")]


class TestPaperQueries:
    def test_running_example_tokenizes(self):
        text = ("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                "GROUP BY roomid EPOCH DURATION 1 min")
        tokens = tokenize(text)
        values = [t.value for t in tokens[:-1]]
        assert values[0] == "SELECT"
        assert "AVERAGE" in values
        assert "MIN" in values  # "min" lexes as the aggregate keyword

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 1, 1)
        assert token.is_keyword("select")
        assert not token.is_keyword("TOP")
