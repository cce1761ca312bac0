"""Lexer tests."""

import pytest
from hypothesis import given, strategies as st

from repro.minicc.errors import CompileError
from repro.minicc.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


def test_keywords_and_identifiers():
    assert kinds("int x while whilex") == ["int", "ident", "while", "ident", "eof"]


def test_numbers_decimal_and_hex():
    assert values("0 42 0x10 0XFF") == [0, 42, 16, 255]


def test_char_literals():
    assert values("'a' '\\n' '\\0' '\\\\'") == [97, 10, 0, 92]


#: Two lines holding a multi-line block comment and a string literal,
#: so that every diagnostic below reports a line counted through both.
PREFIX = '/* a block\n   comment */ int *s = "a \\"str\\"";\n'


def error_of(source):
    """``(message, line)`` of the diagnostic ``source`` raises."""
    with pytest.raises(CompileError) as info:
        tokenize(source, "t.mc")
    return info.value.message, info.value.line


def test_prefix_spans_two_lines():
    tokens = tokenize(PREFIX + "x")
    assert tokens[-2] == Token("ident", "x", 3)
    assert Token("str", 'a "str"', 2) in tokens


def test_unterminated_char_rejected():
    assert error_of(PREFIX + "'a") == ("unterminated char literal", 3)
    assert error_of(PREFIX + "x;\n'ab'") == ("unterminated char literal", 4)
    assert error_of(PREFIX + "'") == ("unterminated char literal", 3)


def test_bad_char_escape_rejected():
    assert error_of(PREFIX + "'\\q'") == ("bad escape in char literal", 3)
    assert error_of(PREFIX + "'\\") == ("bad escape in char literal", 3)


def test_unterminated_string_rejected():
    assert error_of(PREFIX + '"abc') == ("unterminated string literal", 3)
    assert error_of(PREFIX + '"ab\ncd"') == ("unterminated string literal", 3)


def test_bad_string_escape_rejected():
    assert error_of(PREFIX + '"a\\qb"') == ("bad escape in string literal", 3)
    assert error_of(PREFIX + '"a\\') == ("bad escape in string literal", 3)


def test_malformed_hex_literal_rejected():
    assert error_of(PREFIX + "int x = 0x;") == ("malformed hex literal '0x'", 3)
    assert error_of(PREFIX + "\n0Xg") == ("malformed hex literal '0X'", 4)


def test_overlong_number_rejected():
    digits = "9" * 5000
    assert error_of(PREFIX + digits) == ("number literal too long (5000 digits)", 3)


def test_source_outside_literals_is_ascii():
    # str.isdigit/str.isalpha accept these; MiniC identifiers and
    # numbers do not.
    assert error_of(PREFIX + "int x = \u00b2;") == ("unexpected character '\u00b2'", 3)
    assert error_of(PREFIX + "int caf\u00e9;") == ("unexpected character '\u00e9'", 3)
    assert error_of(PREFIX + "x = 1\u0663;") == ("unexpected character '\u0663'", 3)
    # Literals and comments may hold any character.
    assert tokenize('"caf\u00e9" /* \u00b2 */')[0] == Token("str", "caf\u00e9", 1)
    assert values("'\u00e9'") == [0xE9]


def test_maximal_munch_operators():
    assert kinds("a <<= b << c <= d < e")[:9] == [
        "ident", "<<=", "ident", "<<", "ident", "<=", "ident", "<", "ident",
    ]


def test_line_comments_skipped():
    assert kinds("a // comment\n b") == ["ident", "ident", "eof"]


def test_block_comments_track_lines():
    tokens = tokenize("/* one\ntwo */ x")
    assert tokens[0] == Token("ident", "x", 2)


def test_unterminated_block_comment_rejected():
    assert error_of(PREFIX + "x;\n/* never\nends") == ("unterminated comment", 4)
    assert error_of("/*/") == ("unterminated comment", 1)


def test_unexpected_character_reports_line():
    assert error_of(PREFIX + "x\n@") == ("unexpected character '@'", 4)
    assert error_of(PREFIX + "#") == ("unexpected character '#'", 3)


def test_line_numbers_attached():
    tokens = tokenize("a\nb\n\nc")
    assert [t.line for t in tokens[:-1]] == [1, 2, 4]


@given(st.integers(0, 2**62))
def test_every_number_roundtrips(value):
    assert values(str(value)) == [value]


@given(
    st.lists(
        st.sampled_from(["foo", "bar", "int", "42", "+", "<<", "(", ")"]),
        max_size=12,
    )
)
def test_whitespace_insensitivity(parts):
    spaced = " ".join(parts)
    extra = "   ".join(parts)
    assert kinds(spaced) == kinds(extra)
