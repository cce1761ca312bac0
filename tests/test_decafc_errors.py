"""Decaf compiler diagnostics: every class of source error reports cleanly.

The OO mirror of ``test_minicc_errors.py``: parser shape errors, class
table errors (inheritance, layout, overriding), and lowering errors all
surface as :class:`CompileError` with a usable message and location.
"""

import pytest

from repro.decafc import CompileError, compile_module
from repro.decafc.lexer import Token, tokenize


def expect_error(source, match):
    with pytest.raises(CompileError, match=match):
        compile_module(source, "t.o")


# -- lexer -------------------------------------------------------------------

#: Two lines holding a multi-line block comment and a string literal,
#: so that every diagnostic below reports a line counted through both.
PREFIX = '/* a block\n   comment */ int f() { print_str("a \\"b\\""); }\n'


def lex_error(source):
    """``(message, line)`` of the diagnostic compiling ``source`` raises."""
    with pytest.raises(CompileError) as info:
        compile_module(source, "t.o")
    return info.value.message, info.value.line


def test_unterminated_comment():
    assert lex_error(PREFIX + "int x;\n/* never\nends") == ("unterminated comment", 4)


def test_unterminated_string():
    assert lex_error(PREFIX + '"abc') == ("unterminated string literal", 3)
    assert lex_error(PREFIX + '"ab\ncd"') == ("unterminated string literal", 3)


def test_bad_string_escape():
    assert lex_error(PREFIX + '"a\\qb"') == ("bad escape in string literal", 3)


def test_unexpected_character():
    assert lex_error(PREFIX + "int x;\n@") == ("unexpected character '@'", 4)


def test_char_literals_are_not_decaf():
    assert lex_error(PREFIX + "int x = 'a';") == ('unexpected character "\'"', 3)


def test_hex_literals_are_not_decaf():
    assert tokenize("0x10")[:2] == [Token("num", 0, 1), Token("ident", "x10", 1)]


def test_source_outside_literals_is_ascii():
    # str.isdigit/str.isalpha accept these; Decaf identifiers and
    # numbers do not.
    assert lex_error(PREFIX + "int x = \u00b2;") == ("unexpected character '\u00b2'", 3)
    assert lex_error(PREFIX + "int caf\u00e9;") == ("unexpected character '\u00e9'", 3)


# -- parser ------------------------------------------------------------------


def test_method_without_body():
    expect_error("class C { int m(int a); }", "needs a body")


def test_extern_class_method_with_body():
    expect_error(
        "extern class C { int m(int a) { return a; } }",
        "must be a prototype",
    )


def test_too_many_parameters():
    expect_error(
        "int f(int a, int b, int c, int d, int e, int g) { return 0; }",
        "at most 5 parameters",
    )


def test_too_many_arguments():
    expect_error(
        """
        int g(int a) { return a; }
        int main() { return g(1, 2, 3, 4, 5, 6); }
        """,
        "at most 5 arguments",
    )


def test_void_variable():
    expect_error("void x;", "cannot be 'void'")


def test_void_field():
    expect_error("class C { void f; }", "fields cannot be 'void'")


def test_unterminated_class_body():
    expect_error("class C { int f;", "unterminated class body")


# -- class table -------------------------------------------------------------


def test_duplicate_class_definition():
    expect_error(
        "class C { int f; } class C { int g; }",
        "duplicate definition of class",
    )


def test_conflicting_extern_shape():
    expect_error(
        """
        extern class C { int f; int m(int a); }
        class C { int f; int g; int m(int a) { return a; } }
        """,
        "conflicting declarations of class",
    )


def test_unknown_base_class():
    expect_error("class C extends Ghost { int f; }", "unknown base class")


def test_inheritance_cycle():
    expect_error(
        """
        extern class A extends B { }
        extern class B extends A { }
        """,
        "inheritance cycle",
    )


def test_duplicate_field():
    expect_error("class C { int f; int f; }", "duplicate field")


def test_field_shadows_inherited():
    expect_error(
        """
        class A { int f; }
        class B extends A { int f; }
        """,
        "shadows an inherited field",
    )


def test_duplicate_method():
    expect_error(
        """
        class C {
            int m(int a) { return a; }
            int m(int a) { return a; }
        }
        """,
        "duplicate method",
    )


def test_field_and_method_clash():
    expect_error(
        "class C { int m; int m(int a) { return a; } }",
        "both a field and a method",
    )


def test_override_changes_arity():
    expect_error(
        """
        class A { int m(int a) { return a; } }
        class B extends A { int m(int a, int b) { return a + b; } }
        """,
        "changes parameter count",
    )


def test_reserved_builtin_name():
    expect_error("int print(int a) { return a; }", "reserved builtin")


def test_class_function_namespace_clash():
    expect_error(
        "class C { int f; } int C(int a) { return a; }",
        "both class and function",
    )


# -- lowering ----------------------------------------------------------------


def test_undeclared_name():
    expect_error("int f() { return mystery; }", "undeclared name")


def test_call_to_undeclared_function():
    expect_error("int f() { return nowhere(1); }", "undeclared function")


def test_wrong_function_arity():
    expect_error(
        "int g(int a, int b) { return a + b; } int f() { return g(1); }",
        "takes 2 arguments",
    )


def test_unknown_method():
    expect_error(
        """
        class C { int m(int a) { return a; } }
        int f() { C o = new C(); return o.zap(1); }
        """,
        "has no method",
    )


def test_wrong_method_arity():
    expect_error(
        """
        class C { int m(int a) { return a; } }
        int f() { C o = new C(); return o.m(1, 2); }
        """,
        "takes 1 arguments",
    )


def test_unknown_field():
    expect_error(
        """
        class C { int f; }
        int g() { C o = new C(); return o.ghost; }
        """,
        "has no field",
    )


def test_method_call_on_plain_int():
    expect_error("int f(int x) { return x.m(1); }", "non-object expression")


def test_this_outside_method():
    expect_error("int f() { return this; }", "'this' outside a method")


def test_unknown_class_in_new():
    expect_error("int f() { return new Ghost(); }", "unknown class")


def test_break_outside_loop():
    expect_error("int f() { break; return 0; }", "break outside")


def test_continue_outside_loop():
    expect_error("int f() { continue; return 0; }", "continue outside")


def test_duplicate_local():
    expect_error("int f() { int x; int x; return 0; }", "duplicate local")


def test_assign_to_array():
    expect_error("int a[4]; int f() { a = 0; return 0; }", "array")


def test_builtin_arity():
    expect_error("int f() { print(); return 0; }", "builtin")
    expect_error("int f() { print(1, 2); return 0; }", "builtin")


def test_error_carries_location():
    with pytest.raises(CompileError) as info:
        compile_module("int f() {\n  return oops;\n}", "t.o")
    assert info.value.line == 2


def test_valid_hierarchy_compiles():
    obj = compile_module(
        """
        class A { int f; int m(int a) { return a + f; } }
        class B extends A { int g; int m(int a) { return a - g; } }
        int main() { A o = new B(); return o.m(1); }
        """,
        "t.o",
    )
    assert obj.find_symbol("A.m") is not None
    assert obj.find_symbol("B.m") is not None
    assert obj.find_symbol("B.$vtable") is not None
