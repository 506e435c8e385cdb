"""Tests for the Jedd tokenizer."""

import hashlib
import os
import random

import pytest

from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.jedd.lexer import KEYWORDS, LexError, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def texts(src):
    return [t.text for t in tokenize(src) if t.kind != "eof"]


class TestTokens:
    def test_empty_input_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = tokenize("domain toResolve while whilex")
        assert [t.kind for t in toks[:-1]] == [
            "keyword",
            "ident",
            "keyword",
            "ident",
        ]

    def test_relation_constants(self):
        toks = tokenize("0B 1B 0 1 2B")
        assert [t.kind for t in toks[:-1]] == [
            "relconst",
            "relconst",
            "int",
            "int",
            "int",
            "ident",
        ]

    def test_join_and_compose_symbols(self):
        assert texts("x{a} >< y{b}") == ["x", "{", "a", "}", "><", "y", "{", "b", "}"]
        assert "<>" in texts("x{a} <> y{b}")

    def test_arrow_and_compound_assign(self):
        assert texts("a=>b |= &= -= == !=") == ["a", "=>", "b", "|=", "&=", "-=", "==", "!="]

    def test_maximal_munch_angle_brackets(self):
        # "<type," must not lex "<>"; "<>" alone must.
        assert texts("<type>")[0] == "<"
        assert texts("<>") == ["<>"]

    def test_string_literal(self):
        toks = tokenize('"B.bar()"')
        assert toks[0].kind == "string"
        assert toks[0].text == "B.bar()"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_string_with_newline_rejected(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_line_comment(self):
        assert texts("a // comment >< junk\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* >< \n <> */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].pos.line, toks[0].pos.column) == (1, 1)
        assert (toks[1].pos.line, toks[1].pos.column) == (2, 3)

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_underscored_identifier(self):
        assert tokenize("_foo_1")[0].kind == "ident"


# ----------------------------------------------------------------------
# Pins against the character-by-character lexer the regex one replaced
# ----------------------------------------------------------------------

#: Bit widths of the jeddc benchmark's Table 1 programs (the jedit
#: facts' ``jedd_bits``), as in ``tests/sat/test_pinned_search.py``.
JEDIT_BITS = dict(
    type_bits=8, sig_bits=5, method_bits=10, var_bits=12, obj_bits=10,
    field_bits=4, site_bits=10,
)

#: Source -> (token count, SHA-256 of its token stream as
#: ``"kind 'text' line column\n"`` lines), recorded with the
#: character-by-character lexer on the thirteen programs the jeddc
#: benchmark compiles.
TOKEN_PINS = {
    "table1:Virtual Call Resolution": (366, "86f608527508fa8d529ffe08f2a6fe0acbb2e52e3f4a2ed2a0e4c2f91aae1007"),
    "table1:Hierarchy": (421, "50f618be81c88f4feef973ae2510124146b4f3cb5c87addd47c000bb242ea1b9"),
    "table1:Points-to Analysis": (816, "87bca71183b37cd07248d7cdd39de48cb03f58411aa6650a0d80e8a85c0f424b"),
    "table1:Side-effect Analysis": (662, "941878155ee7831a27f179224020410817c6f80316d8b610f475b4a7f8c8bf2a"),
    "table1:Call Graph": (963, "19163eedf68b9337e8b48e9f88bcbfe4303640d0914df8aedd61e2d06b77f854"),
    "table1:All 5 combined": (2009, "63345a09c8591c58c290efbfa0f074fc6b52762178532e8d43c29c25e38a4056"),
    "example:callgraph.jedd": (963, "fdc9d8938765c79d0dd1021d638187ad0b0511836c5c322f0a55e01fb7413188"),
    "example:combined.jedd": (2009, "39acb6a4ad05e33881f0a4d3aaf0ab89613973ede2e00f08fa95c07455c72d07"),
    "example:hierarchy.jedd": (421, "7f83f53a18b92a60959b04a07cb6149253075f094bb86695823b021d16dbc3e7"),
    "example:multiplicity.jedd": (180, "fe051d24f00b1980a46dd69f7fc70f395f57a563542c8a2d1c7c0c238cd4e70f"),
    "example:pointsto.jedd": (816, "44b27ede9b65dd2660a948932be1f153593f97eadd700adc54a8d9ba0c16cb5c"),
    "example:sideeffects.jedd": (662, "90b010965ea5f0207442c1cff82a98118c38283fb3b05fdaeb05f6becaa8a35f"),
    "example:vcall.jedd": (366, "f81ecf9846ac29cda863084f7c688df29f519fc68ae0f87d3f92ae9b99ac1f7d"),
}

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples", "jedd",
)


def source(key):
    kind, name = key.split(":", 1)
    if kind == "table1":
        return ANALYSIS_SOURCES[name](**JEDIT_BITS)
    with open(os.path.join(EXAMPLES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def stream(src):
    """``tokenize(src)`` as ``(kind, text, line, column)`` tuples."""
    return [(t.kind, t.text, t.pos.line, t.pos.column) for t in tokenize(src)]


def outcome(lex, src):
    """``lex(src)``'s token tuples, or its error's type and text."""
    try:
        return list(lex(src))
    except LexError as err:
        return ("LexError", str(err))


def test_token_pins_cover_the_benchmark_programs():
    tables = {f"table1:{name}" for name in ANALYSIS_SOURCES}
    examples = {f"example:{name}" for name in os.listdir(EXAMPLES)
                if name.endswith(".jedd")}
    assert set(TOKEN_PINS) == tables | examples


@pytest.mark.parametrize("key", sorted(TOKEN_PINS))
def test_token_stream_is_pinned(key):
    tokens = stream(source(key))
    text = "".join(f"{k} {t!r} {line} {col}\n" for k, t, line, col in tokens)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(tokens), digest) == TOKEN_PINS[key]


@pytest.mark.parametrize("src, message", [
    ('a "oops', "unterminated string at 1,3"),
    ('\n  "a\nb"', "unterminated string at 2,3"),
    ("x /* never closed", "unterminated comment at 1,3"),
    ("/*/", "unterminated comment at 1,1"),
    ("a\n\t@ b", "unexpected character '@' at 2,2"),
    ("a / b", "unexpected character '/' at 1,3"),
    ("!", "unexpected character '!' at 1,1"),
], ids=["string-eof", "string-newline", "comment", "comment-overlap",
        "at-sign", "slash", "bang"])
def test_error_text_is_pinned(src, message):
    assert outcome(_oracle, src) == ("LexError", message)
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert str(err.value) == message


@pytest.mark.parametrize("src, tokens", [
    ("0B", [("relconst", "0B")]),
    ("01B", [("int", "01"), ("ident", "B")]),
    ("0B5", [("relconst", "0B"), ("int", "5")]),
    ("1Bx", [("relconst", "1B"), ("ident", "x")]),
    ("10B", [("int", "10"), ("ident", "B")]),
    ('""', [("string", "")]),
], ids=["0B", "01B", "0B5", "1Bx", "10B", "empty-string"])
def test_relation_constant_edges(src, tokens):
    assert [(k, t) for k, t, _, _ in stream(src)] == tokens + [("eof", "")]
    assert stream(src) == outcome(_oracle, src)


#: Pieces the fuzz fragments are made of: every lexeme class, the
#: comment and string delimiters alone, whitespace of each kind, bad
#: characters, and a non-ASCII letter and decimal digit.
FUZZ_PIECES = [
    "a", "B", "x1", "_", "do", "while", "fix", "new", "0", "1", "7", "01",
    "0B", "1B", " ", "  ", "\t", "\r", "\n", "//", "/*", "*/", "/", "*",
    '"', '"s"', "|", "&", "-", "=", "!", "<", ">", "{", "}", "(", ")", ",",
    ";", ":", ".", "|=", "=>", "><", "<>", "@", "#", "$", "é", "٣",
]


def test_fuzz_matches_the_character_lexer():
    rng = random.Random(20041)
    for _ in range(10_000):
        src = "".join(rng.choice(FUZZ_PIECES)
                      for _ in range(rng.randint(0, 16)))
        assert outcome(stream, src) == outcome(_oracle, src), repr(src)


@pytest.mark.parametrize("src, regex, character", [
    ("²", [("ident", "²")], [("int", "²")]),
    ("1²", [("int", "1"), ("ident", "²")], [("int", "1²")]),
    ("½x", [("ident", "½x")], "unexpected character '½'"),
], ids=["superscript", "digit-superscript", "fraction"])
def test_non_decimal_numerals_differ(src, regex, character):
    """A digit is a Unicode decimal digit (``\\d``), and an identifier
    starts with any other word character.  The character lexer took
    ``str.isdigit`` digits (superscripts too) and ``str.isalpha``
    starts, so it lexed ``²`` as an integer (which ``int()`` then
    refused) and ``½`` as an error.  Letters and decimal digits
    outside ASCII lex alike (see the fuzz); these do not."""
    assert [(k, t) for k, t, _, _ in stream(src)] == regex + [("eof", "")]
    old = outcome(_oracle, src)
    if isinstance(character, str):
        assert old[0] == "LexError" and old[1].startswith(character)
    else:
        assert [(k, t) for k, t, _, _ in old] == character + [("eof", "")]


def _oracle(source):
    """The character-by-character lexer that the regex lexer replaced,
    yielding ``(kind, text, line, column)`` tuples."""
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count):
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            advance((end if end != -1 else n) - i)
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError(f"unterminated comment at {line},{col}")
            advance(end + 2 - i)
            continue
        pos = (line, col)
        where = f"{line},{col}"
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError(f"unterminated string at {where}")
                j += 1
            if j >= n:
                raise LexError(f"unterminated string at {where}")
            text = source[i + 1 : j]
            advance(j + 1 - i)
            yield ("string", text) + pos
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "B" and source[i:j] in ("0", "1"):
                text = source[i : j + 1]
                advance(j + 1 - i)
                yield ("relconst", text) + pos
                continue
            text = source[i:j]
            advance(j - i)
            yield ("int", text) + pos
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = "keyword" if text in KEYWORDS else "ident"
            yield (kind, text) + pos
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                advance(len(sym))
                yield (sym, sym) + pos
                break
        else:
            raise LexError(f"unexpected character {ch!r} at {where}")
    yield ("eof", "", line, col)


#: The character lexer's symbols, longest first (maximal munch).
_SYMBOLS = [
    "|=", "&=", "-=", "==", "!=", "=>", "><", "<>", "<", ">", "{", "}",
    "(", ")", ",", ";", ":", ".", "=", "|", "&", "-",
]
