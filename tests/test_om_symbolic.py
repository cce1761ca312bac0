"""OM symbolic translation round-trip tests.

Translating object code to symbolic form and reassembling it unchanged
must produce a program with identical behaviour — the paper's "key
idea" depends on this round trip being lossless.
"""

import pytest

from repro.benchsuite import build_program
from repro.benchsuite.suite import DECAF_PROGRAMS, PROGRAMS
from repro.isa.encoding import EncodingError, decode_stream
from repro.linker import link, make_crt0
from repro.linker.layout import LayoutOptions, compute_layout
from repro.linker.resolve import resolve_inputs
from repro.machine import run
from repro.minicc import Options, compile_module
from repro.objfile.archive import Archive
from repro.objfile.relocations import RelocType
from repro.objfile.sections import SectionKind
from repro.objfile.serialize import dump_archive, load_archive
from repro.om import OMLevel, OMOptions, om_link
from repro.om.symbolic import (
    TranslationError,
    layout_object,
    reassemble_module,
    translate_module,
)
from repro.om.transform import Program, Transformer

SOURCE = """
int g;
int table[6];
extern int helper(int x);
static int local_fn(int x) { return x - 1; }
int pick(int x) {
    switch (x) {
        case 0: return 10; case 1: return 11; case 2: return 12;
        case 3: return 13; case 4: return 14;
    }
    return -1;
}
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 5; i++) {
        table[i] = pick(i) + helper(i) + local_fn(i);
        s += table[i];
    }
    g = s;
    __putint(g);
    return 0;
}
"""

HELPER = "int helper(int x) { return x * 2; }"


def build_objs(crt0):
    return [
        crt0,
        compile_module(SOURCE, "main.o"),
        compile_module(HELPER, "helper.o", Options(schedule=False)),
    ]


def test_translate_recovers_procedures(crt0):
    obj = compile_module(SOURCE, "main.o")
    sym = translate_module(obj)
    names = [p.name for p in sym.procs]
    assert names == [p.name for p in obj.procedures()]
    assert {"local_fn", "pick", "main"} <= set(names)


def test_translate_identifies_gp_pairs(crt0):
    obj = compile_module(SOURCE, "main.o")
    sym = translate_module(obj)
    main = sym.proc_named("main")
    entry_pairs = [
        i for i in main.instructions() if i.gpdisp_base == "main"
    ]
    assert len(entry_pairs) == 1
    reset_pairs = [
        i
        for i in main.instructions()
        if i.gpdisp_base is not None and i.gpdisp_base != "main"
    ]
    assert len(reset_pairs) >= 1  # after the helper call


def test_translate_links_jump_table(crt0):
    obj = compile_module(SOURCE, "main.o")
    sym = translate_module(obj)
    pick = sym.proc_named("pick")
    jmptabs = [i for i in pick.instructions() if i.jmptab is not None]
    assert len(jmptabs) == 1
    labeled_refs = [r for r in sym.data_refs if r.label is not None]
    assert len(labeled_refs) == 5  # five case targets


def test_reassembly_identity_same_bytes():
    obj = compile_module(SOURCE, "main.o")
    back = reassemble_module(translate_module(obj))
    assert bytes(back.section(SectionKind.TEXT).data) == bytes(
        obj.section(SectionKind.TEXT).data
    )
    original = {(r.type, r.offset, r.symbol, r.addend, r.extra) for r in obj.relocations}
    rebuilt = {(r.type, r.offset, r.symbol, r.addend, r.extra) for r in back.relocations}
    assert original == rebuilt


def test_om_none_executable_matches_standard_link(libmc, crt0):
    objs = build_objs(crt0)
    base = run(link(objs, [libmc]))
    om = om_link(objs, [libmc], level=OMLevel.NONE)
    result = run(om.executable)
    assert result.output == base.output
    assert result.cycles == base.cycles  # byte-identical code paths


def test_roundtrip_of_every_stdlib_module(libmc):
    for member in libmc.members:
        back = reassemble_module(translate_module(member))
        assert bytes(back.section(SectionKind.TEXT).data) == bytes(
            member.section(SectionKind.TEXT).data
        ), member.name


def test_translation_rejects_corrupt_text():
    obj = compile_module("int f() { return 1; }", "t.o")
    text = obj.section(SectionKind.TEXT)
    text.data[0:4] = (0x07 << 26).to_bytes(4, "little")  # unassigned opcode
    with pytest.raises(EncodingError, match="unknown instruction word 0x1c000000"):
        translate_module(obj)


# -- translation's rejections: one relocation of a compiled module edited --------

CALLER = """
int g;
extern int h(int x);
int f(int x) { g = x; return h(x) + g; }
"""


def _text_reloc(obj, rtype, pred=lambda reloc: True):
    return next(
        reloc
        for reloc in obj.relocations
        if reloc.type is rtype and reloc.section is SectionKind.TEXT and pred(reloc)
    )


def _rejects(obj, message):
    with pytest.raises(TranslationError, match=message):
        translate_module(obj)


def test_translation_rejects_a_text_relocation_type_it_cannot_translate():
    obj = compile_module(CALLER, "caller.o")
    _text_reloc(obj, RelocType.LITERAL).type = RelocType.REFQUAD
    _rejects(obj, "cannot translate relocation refquad")


def test_translation_rejects_a_misaligned_label_target():
    obj = compile_module(CALLER, "caller.o")
    _text_reloc(obj, RelocType.GPDISP).extra = 2
    _rejects(obj, "misaligned label target 0x2")


def test_translation_rejects_a_lituse_whose_load_comes_later():
    obj = compile_module(CALLER, "caller.o")
    lituse = _text_reloc(obj, RelocType.LITUSE)
    lituse.addend = lituse.offset + 4
    _rejects(obj, f"lituse at {lituse.offset:#x} references missing load")


def test_translation_rejects_a_gpdisp_lda_before_its_ldah():
    obj = compile_module(CALLER, "caller.o")
    gpdisp = _text_reloc(obj, RelocType.GPDISP, lambda reloc: reloc.offset >= 4)
    gpdisp.addend = -4
    _rejects(obj, f"gpdisp lda at {gpdisp.offset - 4:#x} precedes its ldah")


# -- the placement contract -------------------------------------------------------


def _linked_modules(program, mode, libmc):
    objects = [make_crt0()] + build_program(program, mode)
    return [translate_module(obj) for obj in resolve_inputs(objects, [libmc]).modules]


def _layout_view(layout):
    return (
        layout.module_base,
        [(group.start, group.gp, group.slots) for group in layout.groups],
        layout.module_group,
        layout.common_addr,
    )


def _assert_layout_objects_match(modules):
    encoded = [reassemble_module(module) for module in modules]
    placed = [layout_object(module) for module in modules]
    for enc, lay in zip(encoded, placed):
        assert [
            (kind, section.size, section.alignment)
            for kind, section in enc.sections.items()
        ] == [
            (kind, section.size, section.alignment)
            for kind, section in lay.sections.items()
        ], enc.name
        assert enc.symbols == lay.symbols, enc.name
        assert [
            reloc for reloc in enc.relocations if reloc.type is RelocType.LITERAL
        ] == lay.relocations, enc.name
    for options in (LayoutOptions(), LayoutOptions(sort_commons=True)):
        assert _layout_view(
            compute_layout(resolve_inputs(encoded, []), options)
        ) == _layout_view(compute_layout(resolve_inputs(placed, []), options))


@pytest.mark.parametrize("program", PROGRAMS + DECAF_PROGRAMS)
def test_layout_object_lays_out_like_the_encoded_module(program, libmc):
    for mode in ("each", "all"):
        modules = _linked_modules(program, mode, libmc)
        _assert_layout_objects_match(modules)
        # One om-full round moves, converts and deletes; the two views
        # must still agree on everything layout reads.
        layout = compute_layout(
            resolve_inputs([layout_object(m) for m in modules], []),
            LayoutOptions(sort_commons=True),
        )
        transformer = Transformer(Program.build(modules, layout), full=True)
        transformer.run()
        assert transformer.changed
        _assert_layout_objects_match(modules)


def test_uncached_om_links_encode_each_module_once(monkeypatch, libmc):
    """A link whose first round converges places each module twice,
    for round 0's layout and for the certificate's (a partitioned link
    lays round 0 out from its input objects, so once), and lays out
    twice: round 0, whose layout also gives the standard linker's
    before-figures, and the certificate.  The finish encodes each
    module once, at the certificate's placement, in that same
    layout."""
    import repro.om.driver
    import repro.om.symbolic
    import repro.om.transform
    import repro.wpo.driver
    import repro.wpo.members

    encoded: list[str] = []
    calls = {"place": 0, "layout": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    def encoding(module, placement=None):
        assert placement is not None
        encoded.append(module.name)
        return reassemble_module(module, placement)

    # Only the finish encodes.
    monkeypatch.setattr(repro.om.driver, "reassemble_module", encoding)
    placing = counting("place", repro.om.symbolic.place_module)
    for owner in (repro.om.symbolic, repro.om.transform, repro.wpo.members):
        monkeypatch.setattr(owner, "place_module", placing)
    for owner in (
        repro.om.driver, repro.om.transform, repro.wpo.driver, repro.wpo.members
    ):
        monkeypatch.setattr(owner, "compute_layout", counting("layout", compute_layout))

    blob = dump_archive([make_crt0()] + build_program("li", "each"))
    linked = [
        obj.name for obj in resolve_inputs(load_archive(blob), [libmc]).modules
    ]
    for options in (OMOptions(), OMOptions(partitions=4)):
        encoded.clear()
        calls.update(place=0, layout=0)
        lib = Archive(libmc.name, load_archive(dump_archive(libmc.members)))
        result = om_link(
            load_archive(blob), [lib], level=OMLevel.FULL, options=options
        )
        assert sorted(encoded) == sorted(linked)
        # The partitioned driver lays round 0 out from the input
        # objects, which places nothing.
        places = len(linked) if options.partitions else 2 * len(linked)
        assert calls == {"place": places, "layout": 2}
        if options.partitions:
            assert result.wpo.rounds == 1