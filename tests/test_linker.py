"""Standard linker tests: resolution, layout, GAT merging, relocation."""

import pytest

from repro.isa.ranges import GP_BIAS
from repro.linker import LinkError, link, make_crt0
from repro.linker.executable import DATA_BASE, TEXT_BASE
from repro.linker.layout import LayoutOptions, compute_layout
from repro.linker.resolve import resolve_inputs
from repro.machine import run
from repro.minicc import Options, compile_module
from repro.objfile.archive import Archive
from repro.objfile.sections import SectionKind

NOSCHED = Options(schedule=False)


def module(source, name="m.o"):
    return compile_module(source, name, NOSCHED)


def test_resolution_across_modules():
    a = module("extern int g; int f() { return g; }", "a.o")
    b = module("int g = 7;", "b.o")
    inputs = resolve_inputs([a, b])
    assert {m.name for m in inputs.modules} == {"a.o", "b.o"}
    assert "g" in inputs.globals


def test_unresolved_symbol_reported():
    a = module("extern int nowhere(int x); int f() { return nowhere(1); }", "a.o")
    with pytest.raises(LinkError, match="nowhere"):
        resolve_inputs([a])


def test_multiply_defined_rejected():
    a = module("int g = 1;", "a.o")
    b = module("int g = 2;", "b.o")
    with pytest.raises(LinkError, match="multiply defined"):
        resolve_inputs([a, b])


def test_archive_pulled_only_on_demand():
    used = module("int used() { return 1; }", "used.o")
    unused = module("int unused() { return 2; }", "unused.o")
    lib = Archive("lib", [used, unused])
    main = module("extern int used(); int f() { return used(); }", "main.o")
    inputs = resolve_inputs([main], [lib])
    names = {m.name for m in inputs.modules}
    assert "used.o" in names and "unused.o" not in names


def test_archive_transitive_pull():
    # a needs b, b needs c: library-to-library dependency chains.
    b = module("extern int c(); int b() { return c(); }", "b.o")
    c = module("int c() { return 3; }", "c.o")
    lib = Archive("lib", [b, c])
    main = module("extern int b(); int f() { return b(); }", "main.o")
    inputs = resolve_inputs([main], [lib])
    assert {m.name for m in inputs.modules} == {"main.o", "b.o", "c.o"}


def test_common_takes_max_size():
    a = module("int shared[4];", "a.o")
    b = module("int shared[16];", "b.o")
    inputs = resolve_inputs([a, b])
    assert inputs.commons["shared"][0] == 128


def test_definition_overrides_common():
    a = module("int shared[4];", "a.o")
    b = module("int shared[2] = {1, 2};", "b.o")
    inputs = resolve_inputs([a, b])
    assert "shared" not in inputs.commons
    assert "shared" in inputs.globals


def test_layout_segments_and_gat():
    a = module("int g; int f() { return g; }", "a.o")
    inputs = resolve_inputs([a])
    layout = compute_layout(inputs)
    assert layout.section_base(0, SectionKind.TEXT) == TEXT_BASE
    group = layout.groups[0]
    assert group.start == DATA_BASE
    assert group.gp == DATA_BASE + GP_BIAS
    assert group.size == 8  # one literal: g


def test_symbol_addr_of_unknown_name_is_a_link_error():
    a = module("int g; int f() { return g; }", "a.o")
    layout = compute_layout(resolve_inputs([a]))
    with pytest.raises(LinkError, match=r"'nosuch'.*a\.o"):
        layout.symbol_addr(0, "nosuch")


def test_gat_deduplicates_across_modules():
    a = module("extern int g; int f1() { return g; }", "a.o")
    b = module("extern int g; int f2() { return g + 1; }", "b.o")
    c = module("int g;", "c.o")
    inputs = resolve_inputs([a, b, c])
    layout = compute_layout(inputs)
    # One slot for g despite two referencing modules.
    keys = [k for k in layout.groups[0].slots if k[1] == "g"]
    assert len(keys) == 1


def test_local_statics_not_merged():
    a = module("static int t = 1; int fa() { return t; }", "a.o")
    b = module("static int t = 2; int fb() { return t; }", "b.o")
    inputs = resolve_inputs([a, b])
    layout = compute_layout(inputs)
    slots = [k for k in layout.groups[0].slots if k[0] == "l"]
    assert len(slots) == 2  # module-scoped, distinct GAT entries


def test_gat_capacity_splits_groups():
    modules = [
        module(f"int g{i}_a; int g{i}_b; int f{i}() {{ return g{i}_a + g{i}_b; }}", f"m{i}.o")
        for i in range(4)
    ]
    inputs = resolve_inputs(modules)
    layout = compute_layout(inputs, LayoutOptions(gat_capacity=3))
    assert len(layout.groups) >= 2
    assert len(set(layout.module_group)) >= 2
    # Every group's slots fit its capacity.
    for group in layout.groups:
        assert len(group.slots) <= 3


def test_sorted_commons_placed_after_gat_by_size():
    a = module(
        "int big[1000]; int tiny; int f() { return tiny + big[0]; }", "a.o"
    )
    inputs = resolve_inputs([a])
    layout = compute_layout(inputs, LayoutOptions(sort_commons=True))
    assert layout.common_addr["tiny"] < layout.common_addr["big"]
    gat_end = layout.groups[0].start + layout.groups[0].size
    assert layout.common_addr["tiny"] == gat_end


def test_executable_runs_with_multiple_gat_groups(libmc, crt0):
    """Multi-GAT linking: calling conventions must re-establish GP
    across groups; output must match the single-group link."""
    sources = [
        ("extern int leaf(int x); int helper(int x) { return leaf(x) + 1; }", "h.o"),
        ("int leaf(int x) { return x * 3; }", "l.o"),
        (
            "extern int helper(int x); int main() { __putint(helper(4)); return 0; }",
            "m.o",
        ),
    ]
    objs = [crt0] + [module(s, n) for s, n in sources]
    single = run(link(objs, [libmc]))
    multi = run(link(objs, [libmc], options=LayoutOptions(gat_capacity=2)))
    assert single.output == multi.output == "13\n"


def test_entry_symbol_required():
    a = module("int f() { return 0; }", "a.o")
    with pytest.raises(LinkError, match="__start"):
        link([a])


def test_branch_relocation_resolves_cross_module(libmc, crt0):
    # static call within module + cross-module call, exercising BRADDR.
    a = module(
        "static int two() { return 2; } extern int three();"
        "int main() { __putint(two() + three()); return 0; }",
        "a.o",
    )
    b = module("int three() { return 3; }", "b.o")
    result = run(link([crt0, a, b], [libmc]))
    assert result.output == "5\n"


def test_gpdisp_patched_for_moved_pair(libmc, crt0):
    """With scheduling on, the GP pair sits away from its base point;
    the GPDISP extra field must still produce a correct GP."""
    source = """
    int g = 11;
    extern int lib_id(int x);
    int main() {
        int a = lib_id(1);
        __putint(g + a);
        return 0;
    }
    """
    helper = compile_module("int lib_id(int x) { return x; }", "h.o", NOSCHED)
    scheduled = compile_module(source, "m.o", Options(schedule=True))
    result = run(link([crt0, scheduled, helper], [libmc]))
    assert result.output == "12\n"


def test_data_initializers_and_jump_table_relocs(libmc, crt0):
    source = """
    int table[3] = {10, 20, 30};
    int main() {
        int i;
        int s = 0;
        for (i = 0; i < 3; i++) {
            switch (i) {
                case 0: s += table[0]; break;
                case 1: s += table[1]; break;
                case 2: s += table[2]; break;
                case 3: s += 99; break;
                case 4: s += 99; break;
            }
        }
        __putint(s);
        return 0;
    }
    """
    result = run(link([crt0, module(source)], [libmc]))
    assert result.output == "60\n"
