"""Translation between object code and OM's symbolic form.

``translate_module`` decodes a module's text into per-procedure lists of
:class:`MInstr`/:class:`MLabel` items.  Branch displacements become
label references, GPDISP pairs and literal loads/uses are re-linked by
item uid from the relocation records, and jump-table entries in data
become label references into text.  After transformation,
``place_module`` recomputes every instruction offset and procedure
size, and ``reassemble_module`` emits a fresh object module at those
offsets, with branch displacements and jump-table entries recomputed —
which is precisely why OM can delete and reorder instructions freely.
A transformation round only needs the layout of the result, which
``layout_object`` builds from the same placement without encoding.
``encode_module`` gives a module a compact value form, nested tuples
of primitives with no uids, which the WPO shard cache hashes and
stores; ``decode_module`` rebuilds a module from it.
"""

from __future__ import annotations

import hashlib
import marshal
from collections.abc import Collection
from dataclasses import dataclass, field, replace
from operator import attrgetter

from repro.isa.encoding import decode_stream, encode_stream
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Format
from repro.minicc.mcode import MInstr, MItem, MLabel, next_uid
from repro.objfile.objfile import ObjectFile
from repro.objfile.relocations import LituseKind, Relocation, RelocType
from repro.objfile.sections import Section, SectionKind
from repro.objfile.symbols import Binding, ProcInfo, Symbol, SymbolKind


class TranslationError(Exception):
    """Object code OM cannot translate (should not happen for toolchain
    output; indicates corruption or an unsupported construct)."""


@dataclass
class SymbolicProc:
    name: str
    items: list[MItem] = field(default_factory=list)
    exported: bool = True
    uses_gp: bool = True
    frame_size: int = 0
    #: Labels that must be visible to other modules (OM's cross-module
    #: bsr retargets past callee GP setup).
    export_labels: set[str] = field(default_factory=set)

    def instructions(self) -> list[MInstr]:
        return [item for item in self.items if isinstance(item, MInstr)]


@dataclass
class DataRef:
    """A 64-bit relocated datum in a data section.

    When ``label`` is set the datum points into text and its value is
    recomputed after code motion (jump tables, stored code addresses).
    """

    section: SectionKind
    offset: int
    symbol: str
    addend: int = 0
    label: str | None = None
    proc: str | None = None  # containing procedure of the label


@dataclass
class SymbolicModule:
    name: str
    procs: list[SymbolicProc] = field(default_factory=list)
    data_sections: dict[SectionKind, Section] = field(default_factory=dict)
    data_refs: list[DataRef] = field(default_factory=list)
    other_symbols: list[Symbol] = field(default_factory=list)

    def proc_named(self, name: str) -> SymbolicProc | None:
        for proc in self.procs:
            if proc.name == name:
                return proc
        return None

    def all_items(self):
        for proc in self.procs:
            yield from proc.items


# -- translation ---------------------------------------------------------------


#: Which of ``translate_module``'s by-offset tables each translatable
#: text relocation type goes to: LITERAL, LITUSE, GPDISP, BRADDR, HINT,
#: JMPTAB, and the three GPREL kinds (one table) that OM itself emits.
_TEXT_TABLE = {
    RelocType.LITERAL: 0,
    RelocType.LITUSE: 1,
    RelocType.GPDISP: 2,
    RelocType.BRADDR: 3,
    RelocType.HINT: 4,
    RelocType.JMPTAB: 5,
    RelocType.GPREL16: 6,
    RelocType.GPRELHIGH: 6,
    RelocType.GPRELLOW: 6,
}

_BRANCH = Format.BRANCH


def translate_module(obj: ObjectFile) -> SymbolicModule:
    """Recover the symbolic form of one object module."""
    out = SymbolicModule(obj.name)
    text_section = obj.sections.get(SectionKind.TEXT)
    text = bytes(text_section.data) if text_section else b""
    instrs = decode_stream(text)
    nwords = len(instrs)

    procs = obj.procedures()
    defined = {s.name: s for s in obj.symbols if s.is_defined}

    def proc_at(offset: int) -> Symbol:
        for sym in procs:
            if sym.offset <= offset < sym.offset + sym.size:
                return sym
        raise TranslationError(f"{obj.name}: no procedure covers text+{offset:#x}")

    # Index relocations by type and offset.
    tables: tuple[dict[int, Relocation], ...] = ({}, {}, {}, {}, {}, {}, {})
    literal_at, lituse_at, gpdisp_at, braddr_at, hint_at, jmptab_at, gprel_at = tables
    for reloc in obj.relocations:
        if reloc.section is not SectionKind.TEXT:
            continue
        table = _TEXT_TABLE.get(reloc.type)
        if table is None:
            raise TranslationError(
                f"{obj.name}: cannot translate relocation {reloc.type.value}"
            )
        tables[table][reloc.offset] = reloc

    # ---- decide which offsets need labels --------------------------------
    target_offsets: set[int] = set()
    marker_offsets: set[int] = set()
    lda_to_ldah: dict[int, int] = {}

    for offset, reloc in gpdisp_at.items():
        marker_offsets.add(reloc.extra)
        lda_to_ldah[offset + reloc.addend] = offset

    # Words translation annotates: those a relocation names, the lda of
    # each GPDISP pair, and branches (whose targets become labels).
    annotated = set(lda_to_ldah)
    for table in tables:
        annotated.update(table)
    for index, instr in enumerate(instrs):
        if instr.op.format is _BRANCH:
            offset = 4 * index
            annotated.add(offset)
            if offset not in braddr_at:
                target_offsets.add(offset + 4 + 4 * instr.disp)
    for offset, reloc in braddr_at.items():
        target = defined.get(reloc.symbol)
        if target is not None and reloc.addend:
            target_offsets.add(target.offset + reloc.addend)

    # Jump tables and other text-pointing data.
    data_kinds = (SectionKind.DATA, SectionKind.SDATA)
    for reloc in obj.relocations:
        if reloc.type is not RelocType.REFQUAD or reloc.section not in data_kinds:
            continue
        target = defined.get(reloc.symbol)
        if target is not None and target.kind is SymbolKind.PROC and reloc.addend:
            target_offsets.add(target.offset + reloc.addend)

    label_offsets = target_offsets | marker_offsets
    for offset in label_offsets:
        if offset % 4 or offset > 4 * nwords:
            raise TranslationError(f"{obj.name}: misaligned label target {offset:#x}")

    def label_name(offset: int) -> str:
        sym = proc_at(offset) if offset < 4 * nwords else procs[-1]
        if offset == sym.offset:
            return sym.name
        return f"{sym.name}$L{offset - sym.offset:x}"

    # ---- build items ------------------------------------------------------
    item_at: dict[int, MInstr] = {}
    proc_entry_offsets = {sym.offset for sym in procs}

    def annotate(item: MInstr, offset: int) -> None:
        reloc = literal_at.get(offset)
        if reloc is not None:
            item.literal = (reloc.symbol, reloc.addend)
            item.lit_escaped = bool(reloc.extra)
        reloc = lituse_at.get(offset)
        if reloc is not None:
            load_item = item_at.get(reloc.addend)
            if load_item is None:
                raise TranslationError(f"lituse at {offset:#x} references missing load")
            item.lituse = (load_item.uid, LituseKind(reloc.extra))
        reloc = gpdisp_at.get(offset)
        if reloc is not None:
            item.gpdisp_base = label_name(reloc.extra)
        ldah_offset = lda_to_ldah.get(offset)
        if ldah_offset is not None:
            ldah_item = item_at.get(ldah_offset)
            if ldah_item is None:
                raise TranslationError(f"gpdisp lda at {offset:#x} precedes its ldah")
            item.gpdisp_pair = ldah_item.uid
        reloc = braddr_at.get(offset)
        if reloc is not None:
            target = defined.get(reloc.symbol)
            if target is not None and reloc.addend:
                item.branch = (label_name(target.offset + reloc.addend), 0)
            else:
                item.branch = (reloc.symbol, reloc.addend)
        elif item.instr.op.format is _BRANCH:
            item.branch = (label_name(offset + 4 + 4 * item.instr.disp), 0)
        reloc = hint_at.get(offset)
        if reloc is not None:
            item.hint = reloc.symbol
        reloc = jmptab_at.get(offset)
        if reloc is not None:
            item.jmptab = (reloc.symbol, reloc.addend)
        reloc = gprel_at.get(offset)
        if reloc is not None:
            item.gprel = (
                _GPREL_KINDS[reloc.type], reloc.symbol, reloc.addend, reloc.extra
            )

    for sym in procs:
        proc = SymbolicProc(
            sym.name,
            exported=sym.binding is Binding.GLOBAL,
            uses_gp=sym.proc.uses_gp if sym.proc else True,
            frame_size=sym.proc.frame_size if sym.proc else 0,
        )
        items = proc.items
        items.append(MLabel(sym.name, is_target=True))
        for index in range(sym.offset // 4, (sym.offset + sym.size) // 4):
            offset = 4 * index
            if offset in label_offsets:
                if offset != sym.offset and offset in target_offsets:
                    items.append(MLabel(label_name(offset), is_target=True))
                if (
                    offset in marker_offsets
                    and offset not in target_offsets
                    and offset not in proc_entry_offsets
                ):
                    items.append(MLabel(label_name(offset), is_target=False))
            item = MInstr(instrs[index])
            item_at[offset] = item
            if offset in annotated:
                annotate(item, offset)
            items.append(item)
        out.procs.append(proc)

    # ---- data sections ----------------------------------------------------
    for kind, section in obj.sections.items():
        if kind is not SectionKind.TEXT:
            out.data_sections[kind] = replace(section, data=bytearray(section.data))

    for reloc in obj.relocations:
        if reloc.type is not RelocType.REFQUAD:
            continue
        target = defined.get(reloc.symbol)
        ref = DataRef(reloc.section, reloc.offset, reloc.symbol, reloc.addend)
        if target is not None and target.kind is SymbolKind.PROC and reloc.addend:
            ref.label = label_name(target.offset + reloc.addend)
            ref.proc = target.name
            ref.addend = 0
        out.data_refs.append(ref)

    out.other_symbols = [
        sym for sym in obj.symbols if sym.kind is not SymbolKind.PROC
    ]
    return out


_GPREL_KINDS = {
    RelocType.GPREL16: "gprel16",
    RelocType.GPRELHIGH: "gprelhigh",
    RelocType.GPRELLOW: "gprellow",
}
_GPREL_TYPES = {kind: rtype for rtype, kind in _GPREL_KINDS.items()}


# -- placement -----------------------------------------------------------------


@dataclass
class Placement:
    """Where one module's text lands, in bytes from the module's start."""

    label_offset: dict[str, int]
    uid_offset: dict[int, int]
    #: Procedure name -> (start, size).
    proc_bounds: dict[str, tuple[int, int]]
    text_size: int


def place_module(
    module: SymbolicModule, deleted: Collection[int] = frozenset()
) -> Placement:
    """Assign text offsets: four bytes per instruction, aligned labels
    padded with nops.

    The one model of OM's text addresses: reassembly encodes at these
    offsets, every transformation round lays out from them, and the
    relaxation fixpoint models its tentative deletions with them
    (instructions whose uid is in ``deleted`` take no space).
    """
    label_offset: dict[str, int] = {}
    uid_offset: dict[int, int] = {}
    proc_bounds: dict[str, tuple[int, int]] = {}
    cursor = 0
    for proc in module.procs:
        start = cursor
        for item in proc.items:
            if isinstance(item, MLabel):
                if item.align:
                    while cursor % item.align:
                        cursor += 4
                if item.name in label_offset:
                    raise TranslationError(f"duplicate label {item.name}")
                label_offset[item.name] = cursor
            elif item.uid not in deleted:
                uid_offset[item.uid] = cursor
                cursor += 4
        proc_bounds[proc.name] = (start, cursor - start)
    return Placement(label_offset, uid_offset, proc_bounds, cursor)


def _symbol_table(
    module: SymbolicModule, placement: Placement, referenced: set[str]
) -> list[Symbol]:
    """Procedure and exported-label symbols at their placed offsets,
    the module's data/common symbols, and an UNDEF for every name the
    transformed code still references but does not define."""
    symbols: list[Symbol] = []
    for proc in module.procs:
        start, size = placement.proc_bounds[proc.name]
        symbols.append(
            Symbol(
                proc.name,
                SymbolKind.PROC,
                Binding.GLOBAL if proc.exported else Binding.LOCAL,
                SectionKind.TEXT,
                start,
                size,
                proc=ProcInfo(uses_gp=proc.uses_gp, frame_size=proc.frame_size),
            )
        )
        for label in sorted(proc.export_labels):
            symbols.append(
                Symbol(
                    label,
                    SymbolKind.OBJECT,
                    Binding.GLOBAL,
                    SectionKind.TEXT,
                    placement.label_offset[label],
                )
            )
    symbols.extend(
        sym for sym in module.other_symbols if sym.kind is not SymbolKind.UNDEF
    )
    known = {s.name for s in symbols}
    for name in sorted(referenced - known):
        symbols.append(Symbol(name, SymbolKind.UNDEF))
    return symbols


def _literal_reloc(item: MInstr, offset: int) -> Relocation:
    symbol, addend = item.literal
    return Relocation(
        RelocType.LITERAL,
        SectionKind.TEXT,
        offset,
        symbol,
        addend,
        int(item.lit_escaped),
    )


# -- reassembly ----------------------------------------------------------------


def reassemble_module(
    module: SymbolicModule, placement: Placement | None = None
) -> ObjectFile:
    """Emit a fresh, validated object module from symbolic form, at
    ``placement`` when the caller already placed the module as it is."""
    obj = ObjectFile(module.name)
    placement = placement or place_module(module)
    label_offset = placement.label_offset
    uid_offset = placement.uid_offset
    code = [
        item
        for proc in module.procs
        for item in proc.items
        if isinstance(item, MInstr)
    ]

    # Alignment padding stays a nop; every instruction lands at its
    # placed offset, and relocations come out in text order.
    instrs = [Instruction.nop()] * (placement.text_size // 4)
    relocs: list[Relocation] = []
    referenced: set[str] = set()
    gpdisp_lda_of = {  # ldah uid -> lda offset
        item.gpdisp_pair: uid_offset[item.uid]
        for item in code
        if item.gpdisp_pair is not None
    }

    for item in code:
        instr = item.instr
        offset = uid_offset[item.uid]
        if item.branch is not None:
            # Procedure entries stay symbolic (BRADDR) so the final link
            # resolves them — identical to what the compiler emitted;
            # internal labels resolve here.
            name, addend = item.branch
            if name in label_offset and name not in placement.proc_bounds:
                target = label_offset[name] + addend
                instr = instr.replace(disp=(target - (offset + 4)) // 4)
            else:
                relocs.append(
                    Relocation(RelocType.BRADDR, SectionKind.TEXT, offset, name, addend)
                )
                referenced.add(name)
                instr = instr.replace(disp=0)
        if item.literal is not None:
            relocs.append(_literal_reloc(item, offset))
            referenced.add(item.literal[0])
        if item.lituse is not None:
            load_uid, kind = item.lituse
            if load_uid not in uid_offset:
                raise TranslationError("lituse references a deleted literal load")
            relocs.append(
                Relocation(
                    RelocType.LITUSE,
                    SectionKind.TEXT,
                    offset,
                    None,
                    uid_offset[load_uid],
                    int(kind),
                )
            )
        if item.gpdisp_base is not None:
            lda_offset = gpdisp_lda_of.get(item.uid)
            if lda_offset is None:
                raise TranslationError("gpdisp ldah lost its paired lda")
            relocs.append(
                Relocation(
                    RelocType.GPDISP,
                    SectionKind.TEXT,
                    offset,
                    None,
                    lda_offset - offset,
                    label_offset[item.gpdisp_base],
                )
            )
        if item.hint is not None:
            relocs.append(
                Relocation(RelocType.HINT, SectionKind.TEXT, offset, item.hint)
            )
            referenced.add(item.hint)
        if item.jmptab is not None:
            symbol, count = item.jmptab
            relocs.append(
                Relocation(RelocType.JMPTAB, SectionKind.TEXT, offset, symbol, count)
            )
            referenced.add(symbol)
        if item.gprel is not None:
            kind, symbol, addend, group = item.gprel
            relocs.append(
                Relocation(
                    _GPREL_TYPES[kind], SectionKind.TEXT, offset, symbol, addend, group
                )
            )
            referenced.add(symbol)
        instrs[offset // 4] = instr

    text = Section(SectionKind.TEXT, alignment=16)
    text.data = bytearray(encode_stream(instrs))
    obj.sections[SectionKind.TEXT] = text

    for kind, section in module.data_sections.items():
        obj.sections[kind] = replace(section, data=bytearray(section.data))

    for ref in module.data_refs:
        addend = ref.addend
        symbol = ref.symbol
        if ref.label is not None:
            start, __ = placement.proc_bounds[ref.proc]
            addend = label_offset[ref.label] - start
            symbol = ref.proc
        relocs.append(
            Relocation(RelocType.REFQUAD, ref.section, ref.offset, symbol, addend)
        )
        referenced.add(symbol)

    # The transformer allocates gprel high/low group ids from item uids,
    # which are process-unique but not stable across runs.  Renumber them
    # densely in first-appearance (text-offset) order so the emitted
    # object is a pure function of the module's symbolic content.  Only
    # GPRELHIGH/GPRELLOW use ``extra`` as a pairing group; other types
    # use it for offsets and must not be touched.
    group_ids: dict[int, int] = {}
    for reloc in relocs:
        if reloc.type in (RelocType.GPRELHIGH, RelocType.GPRELLOW):
            if reloc.extra not in group_ids:
                group_ids[reloc.extra] = len(group_ids) + 1
            reloc.extra = group_ids[reloc.extra]

    obj.symbols = _symbol_table(module, placement, referenced)
    obj.relocations = relocs
    obj.validate()
    return obj


def layout_object(
    module: SymbolicModule, placement: Placement | None = None
) -> ObjectFile:
    """What ``reassemble_module`` would emit, as far as symbol
    resolution and layout read it.

    The same sections with the same sizes and alignments (text
    zero-filled), the same symbol table, and the ``LITERAL`` relocations
    in text order; no instruction is encoded and no other relocation is
    built.  Transformation rounds lay out from these objects.  They are
    never linked, so they are not validated and share the module's data
    sections.  ``placement``, when given, is the module's current
    placement, which the finish can then encode at.
    """
    obj = ObjectFile(module.name)
    placement = placement or place_module(module)
    label_offset = placement.label_offset
    uid_offset = placement.uid_offset
    relocs: list[Relocation] = []
    referenced: set[str] = set()
    for proc in module.procs:
        for item in proc.items:
            if isinstance(item, MLabel):
                continue
            if item.branch is not None:
                name = item.branch[0]
                if name not in label_offset or name in placement.proc_bounds:
                    referenced.add(name)
            if item.literal is not None:
                relocs.append(_literal_reloc(item, uid_offset[item.uid]))
                referenced.add(item.literal[0])
            if item.hint is not None:
                referenced.add(item.hint)
            if item.jmptab is not None:
                referenced.add(item.jmptab[0])
            if item.gprel is not None:
                referenced.add(item.gprel[1])
    for ref in module.data_refs:
        referenced.add(ref.proc if ref.label is not None else ref.symbol)

    text = Section(SectionKind.TEXT, alignment=16)
    text.data = bytearray(placement.text_size)
    obj.sections[SectionKind.TEXT] = text
    obj.sections.update(module.data_sections)
    obj.symbols = _symbol_table(module, placement, referenced)
    obj.relocations = relocs
    return obj


# -- the value form ------------------------------------------------------------

#: The annotation fields an instruction's value lists after its op
#: name, registers, ``disp`` and ``lit`` (positions 6 to 14).
_NOTES = attrgetter(
    "literal", "lit_escaped", "lituse", "gpdisp_base", "gpdisp_pair",
    "branch", "hint", "jmptab", "gprel",
)
_NO_NOTES = (None, False, None, None, None, None, None, None, None)
_SECTION_KINDS = {kind.value: kind for kind in SectionKind}
_SYMBOL_KINDS = {kind.value: kind for kind in SymbolKind}
_BINDINGS = {binding.value: binding for binding in Binding}
_LITUSE_KINDS = {kind.value: kind for kind in LituseKind}


def encode_module(module: SymbolicModule) -> tuple:
    """The module as nested tuples of primitives, free of uids.

    A label is ``(name, is_target, align)``.  An instruction is its op
    name, ``ra``, ``rb``, ``rc``, ``disp`` and ``lit``, followed by its
    annotation fields when it has any.  Where an annotation names an
    instruction by uid, the value names it by its index among the
    module's items: ``lituse``'s load, ``gpdisp_pair``'s ldah, and the
    group of a ``gprelhigh``/``gprellow`` pair (the index of the
    group's first item).  A uid that names no item of the module
    becomes -1.  A procedure adds ``exported``, ``uses_gp``,
    ``frame_size`` and its sorted export labels; data sections, data
    references and the other symbols follow as tuples.

    Two modules with equal values transform and reassemble alike, so
    :func:`module_digest` of the value keys a shard's transform, and
    :func:`decode_module` rebuilds the module from it.
    """
    index: dict[int, int] = {}  # uid -> item index
    annotated: list[tuple[list, int, int]] = []  # (items, slot, item index)
    procs = []
    position = 0
    for proc in module.procs:
        items = []
        for item in proc.items:
            if item.__class__ is MLabel:
                items.append((item.name, item.is_target, item.align))
            else:
                index[item.uid] = position
                instr = item.instr
                # Registers may be ``Reg`` members; the value holds ints.
                head = (
                    instr.op.name, int(instr.ra), int(instr.rb), int(instr.rc),
                    instr.disp, instr.lit,
                )
                notes = _NOTES(item)
                if notes == _NO_NOTES:
                    items.append(head)
                else:
                    annotated.append((items, len(items), position))
                    items.append(head + notes)
            position += 1
        procs.append((proc, items))

    # References resolve once every index is known.  Reassembly pairs
    # gprel halves by group alone, so groups map by their value.
    groups: dict[int, int] = {}
    for items, slot, position in annotated:
        value = items[slot]
        lituse, pair, gprel = value[8], value[10], value[14]
        if lituse is None and pair is None and gprel is None:
            continue
        if lituse is not None:
            lituse = (index.get(lituse[0], -1), int(lituse[1]))
        if pair is not None:
            pair = index.get(pair, -1)
        if gprel is not None and gprel[0] != "gprel16":
            gprel = gprel[:3] + (groups.setdefault(gprel[3], position),)
        items[slot] = value[:8] + (lituse, value[9], pair) + value[11:14] + (gprel,)

    return (
        module.name,
        tuple(
            (
                proc.name, proc.exported, proc.uses_gp, proc.frame_size,
                tuple(sorted(proc.export_labels)), tuple(items),
            )
            for proc, items in procs
        ),
        tuple(
            (key.value, section.kind.value, bytes(section.data),
             section.bss_size, section.alignment)
            for key, section in module.data_sections.items()
        ),
        tuple(
            (ref.section.value, ref.offset, ref.symbol, ref.addend, ref.label,
             ref.proc)
            for ref in module.data_refs
        ),
        tuple(
            (
                sym.name, sym.kind.value, sym.binding.value,
                None if sym.section is None else sym.section.value,
                sym.offset, sym.size, sym.alignment,
                None if sym.proc is None
                else (sym.proc.uses_gp, sym.proc.frame_size, sym.proc.gat_group),
            )
            for sym in module.other_symbols
        ),
    )


def decode_module(value: tuple) -> SymbolicModule:
    """Rebuild a module from :func:`encode_module`'s value.

    Instructions get fresh uids in item order; an index of -1 becomes
    a fresh uid that no item has.
    """
    name, procs, sections, data_refs, symbols = value
    module = SymbolicModule(name)
    at: list[MItem] = []  # by item index
    annotated: list[tuple[MInstr, tuple]] = []
    for pname, exported, uses_gp, frame_size, labels, encoded in procs:
        proc = SymbolicProc(
            pname, exported=exported, uses_gp=uses_gp, frame_size=frame_size,
            export_labels=set(labels),
        )
        items = proc.items
        for item_value in encoded:
            if len(item_value) == 3:
                item = MLabel(*item_value)
            else:
                item = MInstr(Instruction(OPS[item_value[0]], *item_value[1:6]))
                if len(item_value) > 6:
                    (
                        item.literal, item.lit_escaped, __,
                        item.gpdisp_base, __, item.branch, item.hint,
                        item.jmptab, item.gprel,
                    ) = item_value[6:]
                    annotated.append((item, item_value))
            items.append(item)
            at.append(item)
        module.procs.append(proc)

    def uid_at(position: int) -> int:
        return next_uid() if position == -1 else at[position].uid

    for item, item_value in annotated:
        lituse, pair, gprel = item_value[8], item_value[10], item_value[14]
        if lituse is not None:
            item.lituse = (uid_at(lituse[0]), _LITUSE_KINDS[lituse[1]])
        if pair is not None:
            item.gpdisp_pair = uid_at(pair)
        if gprel is not None and gprel[0] != "gprel16":
            item.gprel = gprel[:3] + (uid_at(gprel[3]),)

    for key, kind, data, bss_size, alignment in sections:
        module.data_sections[_SECTION_KINDS[key]] = Section(
            _SECTION_KINDS[kind], bytearray(data), bss_size, alignment
        )
    module.data_refs = [
        DataRef(_SECTION_KINDS[section], offset, symbol, addend, label, proc)
        for section, offset, symbol, addend, label, proc in data_refs
    ]
    module.other_symbols = [
        Symbol(
            sym_name, _SYMBOL_KINDS[kind], _BINDINGS[binding],
            None if section is None else _SECTION_KINDS[section],
            offset, size, alignment,
            None if proc is None else ProcInfo(*proc),
        )
        for sym_name, kind, binding, section, offset, size, alignment, proc
        in symbols
    ]
    return module


def module_digest(value: tuple) -> str:
    """SHA-256 of an :func:`encode_module` value, the same in every
    process: ``marshal`` format 2 writes neither back-references nor
    interning flags, so its bytes depend on the value alone."""
    return hashlib.sha256(marshal.dumps(value, 2)).hexdigest()
