"""End-to-end Decaf semantics: dispatch, inheritance, vtables under OM.

Every program runs on both machine backends (interpreter and JIT) and
the outputs are pinned to exact values, so a regression anywhere in
decafc, the linker, OM, or either backend shows up as a wrong number —
and a backend disagreement shows up as the two lists differing.
"""

import pytest

from repro.decafc import compile_module
from repro.linker import link
from repro.machine import run
from repro.om import OMLevel, OMOptions, om_link


@pytest.fixture()
def dcf(libmc, crt0):
    """Compile+link+run helper returning interp and JIT outputs."""

    def execute(source: str, *, om: bool = False, extra_sources=()):
        objects = [crt0, compile_module(source, "test.o")]
        for index, text in enumerate(extra_sources):
            objects.append(compile_module(text, f"extra{index}.o"))
        if om:
            options = OMOptions(schedule=True, remove_dead_procs=True)
            exe = om_link(
                objects, [libmc], level=OMLevel.FULL, options=options
            ).executable
        else:
            exe = link(objects, [libmc])
        # The JIT's first run of a program interprets its cold code; the
        # second runs it in translated regions.
        results = [
            [int(line) for line in run(exe, backend=backend).output.split()]
            for backend in ("interp", "jit", "jit")
        ]
        assert results[0] == results[1], "interp and JIT outputs diverged"
        assert results[0] == results[2], "interp and JIT outputs diverged"
        return results[0]

    return execute


def run_ints(dcf, body: str, prelude: str = "", **kwargs) -> list[int]:
    return dcf(prelude + "\nint main() {" + body + "\nreturn 0; }", **kwargs)


SHAPES = """
class Shape {
    int scale;
    int area(int w, int h) { return 0; }
    int describe() { return 1 + this.area(3, 4); }
}
class Rect extends Shape {
    int pad;
    int area(int w, int h) { return (w * h + pad) * scale; }
}
class Square extends Rect {
    int area(int w, int h) { return w * w * scale; }
    int tag() { return 77; }
}
"""


def test_override_resolution_through_base_reference(dcf):
    values = run_ints(
        dcf,
        """
        Shape s = new Shape();
        Shape r = new Rect();
        Shape q = new Square();
        s.scale = 1; r.scale = 2; q.scale = 3;
        print(s.area(3, 4));
        print(r.area(3, 4));
        print(q.area(3, 4));
        """,
        prelude=SHAPES,
    )
    # Same call site, three vtables: base, override, deeper override.
    assert values == [0, 24, 27]


def test_inherited_method_dispatches_on_dynamic_type(dcf):
    values = run_ints(
        dcf,
        """
        Shape s = new Shape();
        Shape r = new Rect();
        r.scale = 10;
        print(s.describe());
        print(r.describe());
        """,
        prelude=SHAPES,
    )
    # describe() is inherited code, but this.area(3,4) inside it still
    # dispatches through the receiver's vtable.
    assert values == [1, 121]


def test_inherited_fields_share_layout(dcf):
    values = run_ints(
        dcf,
        """
        Rect r = new Rect();
        Square q = new Square();
        r.scale = 5; r.pad = 2;
        q.scale = 7; q.pad = 9;
        print(r.scale); print(r.pad);
        print(q.scale); print(q.pad);
        print(q.tag());
        """,
        prelude=SHAPES,
    )
    assert values == [5, 2, 7, 9, 77]


def test_fields_zero_initialized_and_new_array(dcf):
    values = run_ints(
        dcf,
        """
        Rect r = new Rect();
        int a = new int[4];
        int i = 0;
        print(r.scale); print(r.pad);
        for (i = 0; i < 4; i = i + 1) { print(a[i]); a[i] = i * i; }
        for (i = 0; i < 4; i = i + 1) { print(a[i]); }
        """,
        prelude=SHAPES,
    )
    assert values == [0, 0, 0, 0, 0, 0, 0, 1, 4, 9]


def test_vtables_survive_om_full_with_gc(dcf):
    # remove_dead_procs must treat vtable entries as roots: every
    # method here is reached only through dispatch.
    values = run_ints(
        dcf,
        """
        Shape p = new Rect();
        p.scale = 2;
        print(p.area(5, 5));
        print(p.describe());
        """,
        prelude=SHAPES,
        om=True,
    )
    assert values == [50, 25]


def test_cross_module_hierarchy(dcf):
    # The subclass lives in another translation unit and sees the base
    # only through an extern shape import.
    base = """
    class Counter {
        int n;
        int bump(int by) { n = n + by; return n; }
    }
    """
    derived = """
    extern class Counter {
        int n;
        int bump(int by);
    }
    class Double extends Counter {
        int bump(int by) { n = n + by * 2; return n; }
    }
    int make_double() { return new Double(); }
    """
    values = run_ints(
        dcf,
        """
        Counter c = new Counter();
        Counter d = make_double();
        print(c.bump(3)); print(c.bump(3));
        print(d.bump(3)); print(d.bump(3));
        """,
        prelude=base + "\nextern int make_double();\n",
        extra_sources=[derived],
    )
    assert values == [3, 6, 6, 12]


def test_recursion_and_arithmetic_semantics(dcf):
    values = run_ints(
        dcf,
        """
        print(fact(6));
        print(-100 / 7);
        print(-100 % 7);
        print(3 < 4); print(4 < 3);
        """,
        prelude="int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }",
    )
    # Division semantics must match MiniC's exactly (same IR ops).
    assert values == [720, -14, -2, 1, 0]


def test_null_compares_equal_to_zero(dcf):
    values = run_ints(
        dcf,
        """
        Shape s = null;
        print(s == null);
        s = new Shape();
        print(s == null);
        print(s != null);
        """,
        prelude=SHAPES,
    )
    assert values == [1, 0, 1]
