"""OM transformation tests: each optimization of the paper's catalogue."""

import pytest

from repro.benchsuite import build_program
from repro.isa.encoding import decode_stream
from repro.isa.registers import Reg
from repro.linker import LinkError, link, make_crt0
from repro.linker.layout import LayoutOptions, compute_layout
from repro.linker.resolve import resolve_inputs
from repro.machine import run
from repro.minicc import Options, compile_module
from repro.minicc.mcode import MInstr
from repro.objfile.archive import Archive
from repro.objfile.sections import SectionKind
from repro.obs.trace import TraceLog
from repro.om import OMLevel, OMOptions, om_link
from repro.om.symbolic import layout_object, translate_module
from repro.om.transform import Program, Transformer, _ProcIndex

NOSCHED = Options(schedule=False)


def exe_instrs(executable):
    return decode_stream(executable.text_bytes())


def om(objs, lib, level, **opt_kwargs):
    return om_link(objs, [lib], level=level, options=OMOptions(**opt_kwargs))


def simple_program(crt0):
    main = compile_module(
        """
        int counter;
        int table[8];
        extern int helper(int x);
        int main() {
            int i;
            for (i = 0; i < 8; i++) { table[i] = helper(i); }
            counter = table[3];
            __putint(counter);
            return 0;
        }
        """,
        "main.o",
    )
    helper = compile_module("int g2; int helper(int x) { g2 = x; return x * 2; }", "h.o")
    return [crt0, main, helper]


def test_levels_preserve_output(libmc, crt0):
    objs = simple_program(crt0)
    expected = run(link(objs, [libmc])).output
    for level in (OMLevel.NONE, OMLevel.SIMPLE, OMLevel.FULL):
        result = om(objs, libmc, level)
        assert run(result.executable).output == expected, level
    sched = om(objs, libmc, OMLevel.FULL, schedule=True)
    assert run(sched.executable).output == expected


def test_simple_preserves_text_size(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.SIMPLE)
    assert result.stats.text_bytes_after == result.stats.text_bytes_before


def test_full_shrinks_text(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.FULL)
    assert result.stats.text_bytes_after < result.stats.text_bytes_before


def test_simple_nullifies_with_nops(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.SIMPLE)
    nops = sum(1 for i in exe_instrs(result.executable) if i.is_nop)
    assert nops > 0
    assert result.stats.after.nops == nops


def test_full_deletes_instead_of_nops(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.FULL)
    nops = sum(1 for i in exe_instrs(result.executable) if i.is_nop)
    assert nops == 0


def test_gp_resets_removed_single_gat(libmc, crt0):
    objs = simple_program(crt0)
    for level in (OMLevel.SIMPLE, OMLevel.FULL):
        result = om(objs, libmc, level)
        assert result.stats.after.gp_resets == 0, level
        assert result.stats.before.gp_resets > 0


def test_jsr_becomes_bsr(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.SIMPLE)
    instrs = exe_instrs(result.executable)
    assert not any(i.op.name == "jsr" for i in instrs)
    assert any(i.op.name == "bsr" for i in instrs)


def test_full_removes_pv_loads_simple_keeps_most(libmc, crt0):
    objs = simple_program(crt0)
    simple = om(objs, libmc, OMLevel.SIMPLE)
    full = om(objs, libmc, OMLevel.FULL)
    assert full.stats.after.pv_loads == 0
    assert simple.stats.after.pv_loads >= full.stats.after.pv_loads


def test_full_gat_reduction(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.FULL)
    assert result.stats.gat_bytes_after < result.stats.gat_bytes_before
    assert result.executable.gat_size == result.stats.gat_bytes_after


def test_indirect_calls_keep_pv(libmc, crt0):
    main = compile_module(
        """
        int add1(int x) { return x + 1; }
        int add2(int x) { return x + 2; }
        int main() {
            int *f = &add1;
            int s = f(10);
            f = &add2;
            __putint(s + f(20));
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main]
    base = run(link(objs, [libmc])).output
    result = om(objs, libmc, OMLevel.FULL)
    assert run(result.executable).output == base == "33\n"
    # Indirect calls survive as jsr and count as needing PV.
    instrs = exe_instrs(result.executable)
    assert any(i.op.name == "jsr" for i in instrs)
    assert result.stats.after.pv_loads > 0


def test_full_removes_entry_gp_setup_when_all_sites_skip(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.FULL)
    assert result.counters.entry_setups_removed > 0


def test_entry_point_keeps_gp_setup(libmc, crt0):
    objs = simple_program(crt0)
    result = om(objs, libmc, OMLevel.FULL)
    exe = result.executable
    instrs = exe_instrs(exe)
    start = (exe.entry - exe.segments[0].vaddr) >> 2
    assert instrs[start].op.name == "ldah" and instrs[start].ra == Reg.GP


def test_address_taken_proc_keeps_entry_setup(libmc, crt0):
    main = compile_module(
        """
        int gvar;
        int touch(int x) { gvar = gvar + x; return gvar; }
        int main() {
            int *f = &touch;
            __putint(touch(1) + f(2));
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main]
    result = om(objs, libmc, OMLevel.FULL)
    assert run(result.executable).output == "4\n"
    # touch uses GP and is address-taken: setup must survive.
    exe = result.executable
    proc = exe.proc_named("touch")
    start = (proc.addr - exe.segments[0].vaddr) >> 2
    instrs = exe_instrs(exe)
    assert instrs[start].op.name == "ldah" and instrs[start].ra == Reg.GP


def test_multi_gat_resets_kept_across_groups(libmc, crt0):
    """With a forced tiny GAT capacity, calls across GAT groups must
    keep their GP-resets; behaviour must be preserved."""
    mods = [
        compile_module(
            f"int g{i}a; int g{i}b; int f{i}(int x) "
            f"{{ g{i}a = x; g{i}b = x + {i}; return g{i}a + g{i}b; }}",
            f"m{i}.o",
        )
        for i in range(4)
    ]
    main = compile_module(
        """
        extern int f0(int x); extern int f1(int x);
        extern int f2(int x); extern int f3(int x);
        int main() {
            __putint(f0(1) + f1(2) + f2(3) + f3(4));
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main] + mods
    base = run(link(objs, [libmc])).output
    result = om_link(
        objs,
        [libmc],
        level=OMLevel.FULL,
        options=OMOptions(gat_capacity=4),
    )
    assert len(result.executable.gp_values) > 1
    assert run(result.executable).output == base
    assert result.stats.after.gp_resets > 0  # cross-group calls keep them


def test_sorted_commons_ablation(libmc, crt0):
    """Disabling small-data sorting must reduce nullification."""
    main = compile_module(
        """
        int huge[9000];
        int tiny;
        int main() {
            int i;
            tiny = 0;
            for (i = 0; i < 50; i++) { tiny += i; huge[i] = tiny; }
            __putint(tiny + huge[49]);
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main]
    base = run(link(objs, [libmc])).output
    sorted_run = om_link(objs, [libmc], level=OMLevel.SIMPLE)
    unsorted_run = om_link(
        objs, [libmc], level=OMLevel.SIMPLE, options=OMOptions(sort_commons=False)
    )
    assert run(sorted_run.executable).output == base
    assert run(unsorted_run.executable).output == base
    assert (
        sorted_run.stats.loads_nullified >= unsorted_run.stats.loads_nullified
    )


def test_convert_escaped_ablation_empties_gat(libmc, crt0):
    main = compile_module(
        """
        int h(int x) { return x; }
        int main() {
            int *p = &h;
            __putint(p(41) + 1);
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main]
    default = om(objs, libmc, OMLevel.FULL)
    aggressive = om(objs, libmc, OMLevel.FULL, convert_escaped=True)
    assert run(default.executable).output == "42\n"
    assert run(aggressive.executable).output == "42\n"
    assert aggressive.stats.gat_bytes_after <= default.stats.gat_bytes_after


def test_scheduling_aligns_backward_branch_targets(libmc, crt0):
    main = compile_module(
        """
        int a[64];
        int main() {
            int i;
            int s = 0;
            for (i = 0; i < 64; i++) { s += a[i] + i; }
            __putint(s);
            return 0;
        }
        """,
        "main.o",
    )
    objs = [crt0, main]
    result = om(objs, libmc, OMLevel.FULL, schedule=True)
    assert run(result.executable).output == "2016\n"
    no_align = om(
        objs, libmc, OMLevel.FULL, schedule=True, align_loop_targets=False
    )
    assert run(no_align.executable).output == "2016\n"


# -- address lookups: only a symbol without an address drops an optimization ----


def _addr_raising(exc):
    def addr(self, module_index, symbol, addend=0):
        raise exc(f"no address for symbol {symbol!r}")

    return addr


def test_an_address_lookup_fault_fails_the_link(libmc, crt0, monkeypatch):
    monkeypatch.setattr(Program, "addr", _addr_raising(KeyError))
    with pytest.raises(KeyError):
        om(simple_program(crt0), libmc, OMLevel.FULL)


def test_a_symbol_without_an_address_only_drops_its_optimizations(
    libmc, crt0, monkeypatch
):
    objs = simple_program(crt0)
    expected = run(link(objs, [libmc])).output
    monkeypatch.setattr(Program, "addr", _addr_raising(LinkError))
    result = om(objs, libmc, OMLevel.FULL)
    counters = result.counters
    assert counters.loads_converted == counters.loads_nullified == 0
    assert counters.jsr_to_bsr == 0
    assert run(result.executable).output == expected


def test_provenance_pcs_let_only_link_errors_through(libmc, crt0, monkeypatch):
    modules = [
        translate_module(obj)
        for obj in resolve_inputs(simple_program(crt0), [libmc]).modules
    ]
    layout = compute_layout(
        resolve_inputs([layout_object(module) for module in modules], []),
        LayoutOptions(),
    )
    transformer = Transformer(
        Program.build(modules, layout), full=True, trace=TraceLog()
    )
    proc = modules[1].procs[0]
    item = next(item for item in proc.items if isinstance(item, MInstr))
    assert transformer._item_pc(1, proc, item) == layout.symbol_addr(1, proc.name)
    monkeypatch.setattr(Program, "addr", _addr_raising(LinkError))
    assert transformer._item_pc(1, proc, item) is None
    monkeypatch.setattr(Program, "addr", _addr_raising(KeyError))
    with pytest.raises(KeyError):
        transformer._item_pc(1, proc, item)


@pytest.mark.parametrize("full", [True, False], ids=["full", "simple"])
def test_proc_index_answers_as_a_rescan_after_the_calls_pass(libmc, full):
    """The calls pass deletes or nullifies PV loads and GP resets and
    unlinks uses; the index it shares with the address-load pass must
    then answer as a fresh scan of each procedure does."""
    objects = [make_crt0()] + build_program("li", "each")
    modules = [
        translate_module(obj) for obj in resolve_inputs(objects, [libmc]).modules
    ]
    layout = compute_layout(
        resolve_inputs([layout_object(module) for module in modules], []),
        LayoutOptions(),
    )
    transformer = Transformer(Program.build(modules, layout), full=full)
    transformer.run_passes(calls=False, address_loads=False, entry_setups=False)
    indexed = [
        (module_index, proc, _ProcIndex(proc))
        for module_index, module in enumerate(modules)
        for proc in module.procs
    ]
    for module_index, proc, index in indexed:
        transformer._optimize_calls(module_index, proc, index)
    counters = transformer.counters
    assert counters.pv_loads_removed and counters.gp_resets_removed
    for _, proc, index in indexed:
        fresh = _ProcIndex(proc)
        assert index.literals == fresh.literals
        assert {uid: uses for uid, uses in index.uses.items() if uses} == fresh.uses
        assert {
            base: pairs for base, pairs in index.pairs.items() if pairs
        } == fresh.pairs
