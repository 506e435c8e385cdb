"""Tokenizer for the Jedd mini-language.

Recognises the relational symbols added by Figure 5 of the paper
(``><``, ``<>``, ``=>``, ``0B``, ``1B``) along with ordinary identifiers,
integers, strings, and punctuation.  Java-style ``//`` and ``/* */``
comments are skipped.

One compiled master regex is matched at each position; its first
matching alternative names the lexeme.  Lines and columns come from the
newlines that whitespace and comments consume (no other lexeme holds
one), so a column is the token's offset from the start of its line.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from repro.jedd.ast import Position

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "domain",
    "attribute",
    "physdom",
    "def",
    "if",
    "else",
    "while",
    "do",
    "return",
    "new",
    "print",
    "free",
    "fix",
}

# Each match is the whitespace before a lexeme, then the lexeme, named
# by its first matching alternative.  Identifiers come first, as the
# commonest.  Multi-character symbols come before their one-character
# prefixes, so maximal munch works.  The relation constants 0B and 1B
# (paper section 2.1) come before integers, so "01B" is the integer 01
# then the identifier B.  A digit is a Unicode decimal digit; an
# identifier starts with a word character that is not one and goes on
# with word characters.  ``skip`` is a comment; ``eof`` matches the end
# of the input; ``bad`` any other character: the start of an
# unterminated string or comment, or an unexpected character.
_LEXEME = re.compile(
    r"""
    [ \t\r\n]*
    (?:
        (?P<ident> [^\W\d]\w* )
      | (?P<symbol> \|= | &= | -= | == | != | => | >< | <> | [<>{}(),;:.=|&-] )
      | (?P<relconst> [01]B )
      | (?P<int> \d+ )
      | (?P<string> "[^"\n]*" )
      | (?P<skip> //[^\n]* | /\*.*?\*/ )
      | (?P<eof> \Z )
      | (?P<bad> . )
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(Exception):
    """Raised on unrecognised input."""


class Token(NamedTuple):
    """One lexeme with its kind, text, and source position."""

    kind: str  # "ident", "keyword", "int", "string", "relconst", symbol, "eof"
    text: str
    pos: Position


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; always ends with an ``eof`` token."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    line = 1
    line_start = 0  # offset of the first character of ``line``
    n = len(source)
    # Offset of the first newline not yet counted; n when none is left.
    newline = source.find("\n") % (n + 1)
    new = tuple.__new__  # builds a named tuple without its Python __new__
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue  # its newlines are counted before the next lexeme
        start = m.start(kind)
        if start > newline:
            line += source.count("\n", newline, start)
            line_start = source.rindex("\n", newline, start) + 1
            newline = source.find("\n", start) % (n + 1)
        pos = new(Position, (line, start - line_start + 1))
        text = m.group(kind)
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
        elif kind == "symbol":
            kind = text
        elif kind == "string":
            text = text[1:-1]
        elif kind == "bad":
            if source.startswith("/*", start):
                raise LexError(f"unterminated comment at {pos}")
            if text == '"':
                raise LexError(f"unterminated string at {pos}")
            raise LexError(f"unexpected character {text!r} at {pos}")
        yield new(Token, (kind, text, pos))
        if kind == "eof":
            return  # the end also matches after a lexeme that reaches it
