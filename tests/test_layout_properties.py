"""Property-based tests of the linker's layout invariants."""

from hypothesis import given, settings, strategies as st

from repro.isa.ranges import GP_BIAS
from repro.linker.layout import LayoutOptions, compute_layout
from repro.linker.resolve import resolve_inputs
from repro.minicc import Options, compile_module

NOSCHED = Options(schedule=False)


def synth_module(index: int, nglobals: int, array_words: int, static: bool):
    decls = []
    uses = []
    for g in range(nglobals):
        prefix = "static int" if static else "int"
        if array_words > 1:
            decls.append(f"{prefix} g{index}_{g}[{array_words}];")
            uses.append(f"s += g{index}_{g}[0];")
        else:
            decls.append(f"{prefix} g{index}_{g};")
            uses.append(f"s += g{index}_{g};")
    source = "\n".join(decls) + f"""
    int f{index}() {{
        int s = 0;
        {' '.join(uses)}
        return s;
    }}
    """
    return compile_module(source, f"m{index}.o", NOSCHED)


@st.composite
def module_sets(draw):
    count = draw(st.integers(1, 5))
    modules = []
    for index in range(count):
        modules.append(
            synth_module(
                index,
                nglobals=draw(st.integers(1, 4)),
                array_words=draw(st.sampled_from([1, 1, 8, 64])),
                static=draw(st.booleans()),
            )
        )
    return modules


@settings(max_examples=25, deadline=None)
@given(modules=module_sets(), sort_commons=st.booleans(), capacity=st.integers(2, 32))
def test_layout_invariants(modules, sort_commons, capacity):
    inputs = resolve_inputs(modules)
    try:
        layout = compute_layout(
            inputs, LayoutOptions(sort_commons=sort_commons, gat_capacity=capacity)
        )
    except Exception as exc:
        # Only the documented overflow failure is acceptable.
        assert "GAT capacity" in str(exc)
        return

    # 1. Group sizes respect capacity; GPs carry the conventional bias.
    for group in layout.groups:
        assert len(group.slots) <= capacity
        assert group.gp == group.start + GP_BIAS

    # 2. Every module's literals resolve to slots within the 16-bit
    #    window of that module's GP.
    from repro.objfile.relocations import RelocType

    for index, module in enumerate(inputs.modules):
        gp = layout.gp_for_module(index)
        for reloc in module.relocations:
            if reloc.type is RelocType.LITERAL:
                slot = layout.gat_slot_addr(index, reloc.symbol, reloc.addend)
                assert -32768 <= slot - gp <= 32767

    # 3. GAT slots are unique addresses, 8-aligned, densely packed.
    all_slots = [addr for g in layout.groups for addr in g.slots.values()]
    assert len(set(all_slots)) == len(all_slots)
    assert all(addr % 8 == 0 for addr in all_slots)

    # 4. COMMON allocations do not overlap each other or the GAT.
    spans = [
        (addr, addr + inputs.commons[name][0])
        for name, addr in layout.common_addr.items()
    ]
    for group in layout.groups:
        spans.append((group.start, group.start + group.size))
    spans.sort()
    for (a_start, a_end), (b_start, __) in zip(spans, spans[1:]):
        assert a_end <= b_start

    # 5. Text is below data; section bases are properly aligned.
    assert layout.text_end <= layout.options.data_base
    from repro.objfile.sections import SectionKind

    for (index, kind), base in layout.module_base.items():
        if kind is SectionKind.TEXT:
            assert base % 16 == 0


@settings(max_examples=10, deadline=None)
@given(modules=module_sets())
def test_sorted_commons_are_monotone_by_size(modules):
    inputs = resolve_inputs(modules)
    layout = compute_layout(inputs, LayoutOptions(sort_commons=True))
    ordered = sorted(layout.common_addr.items(), key=lambda kv: kv[1])
    sizes = [inputs.commons[name][0] for name, __ in ordered]
    assert sizes == sorted(sizes)
