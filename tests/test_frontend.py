"""The frontend dispatch seam: extension routing, grouping, CLI.

``repro.frontend`` is the one place that knows ``.mc`` means MiniC and
``.dcf`` means Decaf; everything downstream (oracle, serve workers,
benchsuite, toolchain CLI) routes through it.  These tests pin the
protocol: per-source dispatch in compile-each, per-language grouping in
compile-all, and cross-language linking of the results.
"""

import pytest

from repro.frontend import (
    DEFAULT_LANGUAGE,
    EXTENSIONS,
    LANGUAGES,
    compile_sources,
    frontend_for,
    language_for,
    object_name,
)
from repro.linker import link
from repro.machine import run

MINIC_SRC = "int shared_g = 5;\nint kern(int x) { return x * 2 + shared_g; }\n"
DECAF_SRC = """
extern int shared_g;
extern int kern(int x);
class Box {
    int v;
    int get() { return v + kern(shared_g); }
}
int main() {
    Box b = new Box();
    b.v = 100;
    print(b.get());
    return 0;
}
"""


def test_language_for_extensions():
    assert language_for("main.mc") == "minic"
    assert language_for("main.dcf") == "decaf"
    assert language_for("prog/main.dcf") == "decaf"
    assert language_for("README.txt") == DEFAULT_LANGUAGE
    assert language_for("README.txt", default="decaf") == "decaf"
    assert set(EXTENSIONS.values()) == set(LANGUAGES)


def test_object_name_replaces_extension():
    # Directory prefixes survive: the benchsuite names modules
    # "<program>/<file>.o" and provenance keys on that.
    assert object_name("main.mc") == "main.o"
    assert object_name("prog/main.dcf") == "prog/main.o"


def test_frontend_for_rejects_unknown_language():
    with pytest.raises(ValueError, match="unknown language"):
        frontend_for("fortran")


def test_compile_each_dispatches_per_source():
    objects = compile_sources(
        [("k.mc", MINIC_SRC), ("main.dcf", DECAF_SRC)], "each"
    )
    assert [obj.name for obj in objects] == ["k.o", "main.o"]
    decaf_obj = objects[1]
    assert decaf_obj.find_symbol("Box.get") is not None
    assert decaf_obj.find_symbol("Box.$vtable") is not None


def test_compile_all_single_language_is_one_unit():
    objects = compile_sources(
        [("a.mc", "int helper(int x) { return x + 1; }"),
         ("b.mc", "extern int helper(int x);"
                  "int main() { __putint(helper(41)); return 0; }")],
        "all",
    )
    assert [obj.name for obj in objects] == ["all.o"]


def test_compile_all_mixed_yields_one_unit_per_language():
    objects = compile_sources(
        [("k.mc", MINIC_SRC), ("main.dcf", DECAF_SRC)], "all"
    )
    assert sorted(obj.name for obj in objects) == ["all-decaf.o", "all-minic.o"]


def test_forced_language_overrides_extension():
    # language= compiles everything with one frontend regardless of
    # the filenames (the CLI's --lang).
    objects = compile_sources(
        [("weird.txt", "int main() { __putint(9); return 0; }")],
        "each",
        language="minic",
    )
    assert objects[0].find_symbol("main") is not None


@pytest.mark.parametrize("mode", ["each", "all"])
def test_mixed_language_program_links_and_runs(mode, crt0, libmc):
    objects = compile_sources(
        [("main.dcf", DECAF_SRC), ("k.mc", MINIC_SRC)], mode
    )
    exe = link([crt0] + objects, [libmc])
    # The JIT runs twice: a first run interprets cold code, the second
    # runs translated regions.
    out = [run(exe, backend=backend).output
           for backend in ("interp", "jit", "jit")]
    # Box.get() = 100 + kern(5) = 100 + 15
    assert out[0] == out[1] == out[2] == "115\n"


def test_compile_sources_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown mode"):
        compile_sources([("a.mc", "int main() { return 0; }")], "both")
    with pytest.raises(ValueError, match="unknown language"):
        compile_sources([("a.mc", "")], "each", language="cobol")
