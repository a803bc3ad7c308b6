"""Tokenizer for the KSpot query dialect.

Keywords are case-insensitive (``SELECT`` ≡ ``select``); identifiers
keep their case. Both aggregate spellings the paper uses are accepted
(``AVERAGE`` in the running example, ``AVG`` in the GUI description).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import LexError


class TokenType(enum.Enum):
    """Lexical categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words (upper-case canonical form).
KEYWORDS = frozenset({
    "SELECT", "TOP", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "EPOCH", "DURATION", "SAMPLE", "PERIOD",
    "WITH", "HISTORY", "LIFETIME", "AS",
    "AND", "OR", "NOT",
    "AVG", "AVERAGE", "MIN", "MAX", "SUM", "COUNT",
})

#: Multi-character operators first so maximal munch wins.
_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")

_PUNCT = {",", "(", ")", "*", ";"}


@dataclass(frozen=True)
class Token:
    """One lexeme with its source position (1-based line/column)."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """True when this token is the given keyword."""
        return self.type is TokenType.KEYWORD and self.value == word.upper()


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with an EOF token.

    Raises:
        LexError: on characters outside the dialect.
    """
    tokens: list[Token] = []
    position = 0
    line = 1
    column = 1
    length = len(text)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for _ in range(count):
            if position < length and text[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = text[position]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", position):
            # SQL line comment.
            while position < length and text[position] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        # Decimal digits only: ``isdigit`` also holds for superscripts
        # such as "²", which ``float`` cannot read.
        if char.isdecimal() or (char == "." and position + 1 < length
                                and text[position + 1].isdecimal()):
            end = position
            seen_dot = False
            while end < length and (text[end].isdecimal()
                                    or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            value = text[position:end]
            advance(end - position)
            tokens.append(Token(TokenType.NUMBER, value, start_line, start_column))
            continue
        if char.isalpha() or char == "_":
            end = position
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            advance(end - position)
            if word.upper() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.upper(),
                                    start_line, start_column))
            else:
                tokens.append(Token(TokenType.IDENT, word,
                                    start_line, start_column))
            continue
        if char == "'":
            end = position + 1
            while end < length and text[end] != "'":
                end += 1
            if end >= length:
                raise LexError("unterminated string literal", position,
                               start_line, start_column)
            value = text[position + 1:end]
            advance(end - position + 1)
            tokens.append(Token(TokenType.STRING, value, start_line, start_column))
            continue
        matched_operator = next(
            (op for op in _OPERATORS if text.startswith(op, position)), None)
        if matched_operator:
            advance(len(matched_operator))
            canonical = "!=" if matched_operator == "<>" else matched_operator
            tokens.append(Token(TokenType.OPERATOR, canonical,
                                start_line, start_column))
            continue
        if char in _PUNCT:
            advance(1)
            tokens.append(Token(TokenType.PUNCT, char, start_line, start_column))
            continue
        raise LexError(f"unexpected character {char!r}", position,
                       start_line, start_column)

    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens
