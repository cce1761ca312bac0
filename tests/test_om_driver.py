"""OM driver option and invariant tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.encoding import decode_stream
from repro.linker import link
from repro.linker.executable import dump_executable
from repro.machine import run
from repro.minicc import compile_module
from repro.om import OMLevel, OMOptions, om_link


def simple_objs(crt0, libmc):
    return [
        crt0,
        compile_module(
            """
            int g;
            extern int imin(int a, int b);
            int main() {
                g = imin(7, 3) + imin(9, 8);
                __putint(g);
                return 0;
            }
            """,
            "m.o",
        ),
    ]


def test_default_options():
    options = OMOptions()
    assert options.schedule is False
    assert options.rounds == 3
    assert options.sort_commons is True
    assert options.convert_escaped is False
    assert options.remove_dead_procs is False
    assert options.entry == "__start"


def test_executable_branches_resolve_to_instruction_boundaries(libmc, crt0):
    objs = simple_objs(crt0, libmc)
    result = om_link(objs, [libmc], level=OMLevel.FULL)
    exe = result.executable
    instrs = decode_stream(exe.text_bytes())
    nwords = len(instrs)
    base = exe.segments[0].vaddr
    for index, instr in enumerate(instrs):
        if instr.is_branch:
            target = index + 1 + instr.disp
            assert 0 <= target < nwords, f"branch at {base + 4 * index:#x}"


def test_om_rounds_bounded(libmc, crt0):
    """Nothing here sits on a displacement boundary, so round 0 decides
    everything: one round and eight give the same bytes."""
    objs = simple_objs(crt0, libmc)
    one = om_link(objs, [libmc], level=OMLevel.FULL, options=OMOptions(rounds=1))
    many = om_link(objs, [libmc], level=OMLevel.FULL, options=OMOptions(rounds=8))
    assert dump_executable(one.executable) == dump_executable(many.executable)
    assert run(one.executable).output == run(many.executable).output


def test_gat_never_contains_unreferenced_entries(libmc, crt0):
    """Every GAT slot in OM-full output corresponds to a surviving
    literal relocation (GAT reduction is exact)."""
    objs = simple_objs(crt0, libmc)
    result = om_link(objs, [libmc], level=OMLevel.FULL)
    remaining_literals = result.stats.after.addr_loads
    assert result.stats.gat_bytes_after <= 8 * max(remaining_literals, 0) + 0


def test_custom_entry_symbol(libmc, crt0):
    start2 = compile_module(
        """
        int begin2() { __putint(77); __halt(); return 0; }
        """,
        "alt.o",
    )
    result = om_link(
        [start2], [libmc], level=OMLevel.FULL, options=OMOptions(entry="begin2")
    )
    assert run(result.executable).output == "77\n"


def test_simple_and_full_idempotent_behaviour(libmc, crt0):
    objs = simple_objs(crt0, libmc)
    baseline = run(link(objs, [libmc])).output
    for _ in range(2):
        for level in (OMLevel.SIMPLE, OMLevel.FULL):
            assert (
                run(om_link(objs, [libmc], level=level).executable).output
                == baseline
            )


@settings(max_examples=8, deadline=None)
@given(
    schedule=st.booleans(),
    sort_commons=st.booleans(),
    convert_escaped=st.booleans(),
    gc=st.booleans(),
)
def test_option_matrix_preserves_behaviour(
    schedule, sort_commons, convert_escaped, gc, libmc, crt0
):
    objs = simple_objs(crt0, libmc)
    expected = run(link(objs, [libmc])).output
    result = om_link(
        objs,
        [libmc],
        level=OMLevel.FULL,
        options=OMOptions(
            schedule=schedule,
            sort_commons=sort_commons,
            convert_escaped=convert_escaped,
            remove_dead_procs=gc,
        ),
    )
    assert run(result.executable).output == expected
