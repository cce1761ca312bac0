"""MiniC lexer, and the scanner builder both frontends share.

:func:`make_tokenizer` turns a language's keywords, operators and
literal forms into one compiled master pattern; the scanner walks its
matches and produces a flat token list.  Tokens carry their line number
for diagnostics.  Comments (``//`` and ``/* */``) and whitespace are
skipped.  Source outside literals and comments is ASCII: identifiers
are ``[A-Za-z_][A-Za-z0-9_]*`` and digits ``[0-9]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.minicc.errors import CompileError

KEYWORDS = frozenset(
    [
        "int",
        "void",
        "extern",
        "static",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "switch",
        "case",
        "default",
    ]
)

_OPERATORS = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
]


@dataclass(slots=True)
class Token:
    """One lexical token: kind is 'ident', 'num', 'str', 'eof', a
    keyword, or an operator."""

    kind: str
    value: str | int
    line: int


_STRING_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"'}
_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
#: The longest well-formed prefix of a string literal.
_STRING_OPEN = r'"[^"\\\n]*(?:\\[nt0\\"][^"\\\n]*)*'
_STRING_PREFIX = re.compile(_STRING_OPEN)
_ESCAPE = re.compile(r"\\(.)")


def make_tokenizer(
    keywords: frozenset[str],
    operators: list[str],
    *,
    hex_numbers: bool = False,
    char_literals: bool = False,
) -> Callable[[str, str], list[Token]]:
    """Build a scanner for one language.

    ``hex_numbers`` adds ``0x``/``0X`` literals and ``char_literals``
    adds ``'c'`` literals (which scan as ``num`` tokens).  Operators
    match longest first.
    """
    forms = [
        ("nl", r"\n"),
        ("ws", r"[ \t\r]+"),
        ("comment", r"//[^\n]*"),
        ("block", r"/\*[\s\S]*?\*/"),
        ("open_block", r"/\*"),
        ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ]
    if hex_numbers:
        forms += [("hex", r"0[xX][0-9a-fA-F]+"), ("bad_hex", r"0[xX]")]
    forms += [("num", r"[0-9]+"), ("str", _STRING_OPEN + '"'), ("open_str", '"')]
    if char_literals:
        forms += [("char", r"'(?:\\[nt0\\']|[^\\])'"), ("open_char", "'")]
    ordered = sorted(operators, key=len, reverse=True)
    forms += [
        ("op", "|".join(re.escape(op) for op in ordered)),
        ("bad", r"[\s\S]"),
    ]
    finditer = re.compile(
        "|".join(f"(?P<{name}>{pattern})" for name, pattern in forms)
    ).finditer
    keywords = frozenset(keywords)

    def tokenize(source: str, filename: str = "<input>") -> list[Token]:
        """Scan source into tokens; raises CompileError on bad input."""
        tokens: list[Token] = []
        append = tokens.append
        line = 1
        for match in finditer(source):
            kind = match.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            text = match.group()
            if kind == "ident":
                append(Token(text if text in keywords else "ident", text, line))
            elif kind == "op":
                append(Token(text, text, line))
            elif kind == "nl":
                line += 1
            elif kind == "num":
                try:
                    value = int(text)
                except ValueError:  # more digits than int() converts
                    raise CompileError(
                        f"number literal too long ({len(text)} digits)",
                        filename,
                        line,
                    ) from None
                append(Token("num", value, line))
            elif kind == "block":
                line += text.count("\n")
            elif kind == "str":
                body = text[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(lambda m: _STRING_ESCAPES[m.group(1)], body)
                append(Token("str", body, line))
            elif kind == "hex":
                append(Token("num", int(text, 16), line))
            elif kind == "char":
                value = _CHAR_ESCAPES[text[2]] if text[1] == "\\" else ord(text[1])
                append(Token("num", value, line))
            else:
                raise _diagnose(kind, text, source, match.start(), filename, line)
        append(Token("eof", "", line))
        return tokens

    return tokenize


def _diagnose(
    kind: str, text: str, source: str, start: int, filename: str, line: int
) -> CompileError:
    """The error for a match of one of the scanner's failure forms."""
    if kind == "open_block":
        message = "unterminated comment"
    elif kind == "open_str":
        end = _STRING_PREFIX.match(source, start).end()
        message = (
            "bad escape in string literal"
            if source.startswith("\\", end)
            else "unterminated string literal"
        )
    elif kind == "open_char":
        message = (
            "bad escape in char literal"
            if source[start + 1 : start + 2] == "\\"
            and source[start + 2 : start + 3] not in _CHAR_ESCAPES
            else "unterminated char literal"
        )
    elif kind == "bad_hex":
        message = f"malformed hex literal {text!r}"
    else:
        message = f"unexpected character {text!r}"
    return CompileError(message, filename, line)


tokenize = make_tokenizer(KEYWORDS, _OPERATORS, hex_numbers=True, char_literals=True)
