"""The character-loop tokenizer that ``freezeml.parser.tokenize`` replaced.

Kept verbatim as the oracle for the lexer property in
``test_parser.py``: on any text, the compiled scan must return the same
``(kind, text, span)`` list, or raise ``SyntaxError_`` with the same
message and span.  Nothing in the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from freezeml.parser import PUNCT, SyntaxError_
from freezeml.syntax import INTERNAL_PREFIX, Span


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'punct', 'eof'
    text: str
    span: Span


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == INTERNAL_PREFIX


def _ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        col = i - line_start + 1
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _ident_start(ch):
            j = i + 1
            while j < n and _ident_char(text[j]):
                j += 1
            tokens.append(Token("ident", text[i:j], Span(i, j, line, col)))
            i = j
            continue
        # isdecimal, not isdigit: superscripts such as '²' are digits
        # that int() refuses.
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], Span(i, j, line, col)))
            i = j
            continue
        for punct in PUNCT:
            if text.startswith(punct, i):
                j = i + len(punct)
                tokens.append(Token("punct", punct, Span(i, j, line, col)))
                i = j
                break
        else:
            raise SyntaxError_(
                f"unexpected character {ch!r}", Span(i, i + 1, line, col)
            )
    tokens.append(Token("eof", "", Span(n, n, line, n - line_start + 1)))
    return tokens
