"""Decaf lexer.

Built by :func:`repro.minicc.lexer.make_tokenizer` from Decaf's
keyword and operator tables.  Decaf adds the object-language keywords
(``class``, ``extends``, ``new``, ``this``, ``null``) and the ``.``
member operator, and drops MiniC's pointer/bit-twiddling operators and
its hex and char literals.
"""

from __future__ import annotations

from repro.minicc.lexer import Token, make_tokenizer

__all__ = ["KEYWORDS", "Token", "tokenize"]

KEYWORDS = frozenset(
    [
        "int",
        "void",
        "class",
        "extends",
        "extern",
        "static",
        "new",
        "this",
        "null",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
    ]
)

_OPERATORS = [
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "<",
    ">",
    "=",
    ";",
    ",",
    ".",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
]

tokenize = make_tokenizer(KEYWORDS, _OPERATORS)
