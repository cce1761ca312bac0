"""Relocation: turn laid-out modules into a final executable image."""

from __future__ import annotations

from repro.isa.ranges import BRANCH_DISP, JUMP_HINT, MEM_DISP, shared_high, split_hi_lo
from repro.linker.executable import Executable, ProcEntry, Segment
from repro.linker.layout import Layout
from repro.linker.resolve import LinkError, ResolvedInputs
from repro.objfile.relocations import RelocType
from repro.objfile.sections import SectionKind


def build_executable(
    inputs: ResolvedInputs, layout: Layout, entry: str = "__start"
) -> Executable:
    """Copy sections into place, fill the GAT, and apply relocations."""
    text_base = layout.options.text_base
    data_base = layout.options.data_base
    text = bytearray(layout.text_end - text_base)
    data = bytearray(layout.data_end - data_base)

    for index, module in enumerate(inputs.modules):
        for kind in (SectionKind.TEXT, SectionKind.SDATA, SectionKind.DATA):
            section = module.sections.get(kind)
            if section is None or not section.size:
                continue
            base = layout.section_base(index, kind)
            image, image_base = (text, text_base) if kind is SectionKind.TEXT else (data, data_base)
            start = base - image_base
            image[start : start + section.size] = section.data

    _fill_gat(inputs, layout, data, data_base)

    for index, module in enumerate(inputs.modules):
        _apply_module_relocs(inputs, layout, index, text, data)

    zero_start = layout.data_end
    zeroed = []
    if layout.bss_end > zero_start:
        zeroed.append((zero_start, layout.bss_end - zero_start))

    symbols = layout.global_symbols()
    if entry not in symbols:
        raise LinkError(f"entry symbol {entry!r} not defined")

    procs = []
    for index, module in enumerate(inputs.modules):
        base = layout.section_base(index, SectionKind.TEXT)
        for sym in module.procedures():
            procs.append(
                ProcEntry(
                    sym.name,
                    base + sym.offset,
                    sym.size,
                    gp_group=layout.module_group[index],
                    uses_gp=sym.proc.uses_gp if sym.proc else True,
                )
            )
    procs.sort(key=lambda p: p.addr)

    gat_size = sum(group.size for group in layout.groups)
    return Executable(
        entry=symbols[entry],
        gp_values=[group.gp for group in layout.groups],
        segments=[Segment(text_base, bytes(text)), Segment(data_base, bytes(data))],
        zeroed=zeroed,
        symbols=symbols,
        procs=procs,
        gat_base=data_base,
        gat_size=gat_size,
        text_size=len(text),
    )


def _literal_value(layout: Layout, key: tuple) -> int:
    if key[0] == "g":
        __, name, addend = key
        entry = layout.inputs.globals.get(name)
        if entry is not None:
            index, sym = entry
            return layout.section_base(index, sym.section) + sym.offset + addend
        if name in layout.common_addr:
            return layout.common_addr[name] + addend
        raise LinkError(f"literal references undefined symbol {name!r}")
    __, module_index, name, addend = key
    return layout.symbol_addr(module_index, name) + addend


def _fill_gat(
    inputs: ResolvedInputs, layout: Layout, data: bytearray, data_base: int
) -> None:
    for group in layout.groups:
        for key, slot_addr in group.slots.items():
            value = _literal_value(layout, key)
            offset = slot_addr - data_base
            data[offset : offset + 8] = (value % (1 << 64)).to_bytes(8, "little")


def _read_word(image: bytearray, offset: int) -> int:
    return int.from_bytes(image[offset : offset + 4], "little")


def _write_word(image: bytearray, offset: int, word: int) -> None:
    image[offset : offset + 4] = (word & 0xFFFFFFFF).to_bytes(4, "little")


_DISP_LO, _DISP_HI, _DISP_MASK = MEM_DISP.lo, MEM_DISP.hi, MEM_DISP.mask
_DISP_BITS = MEM_DISP.bits
_BRANCH_LO, _BRANCH_HI, _BRANCH_MASK = BRANCH_DISP.lo, BRANCH_DISP.hi, BRANCH_DISP.mask
_HINT_MASK = JUMP_HINT.mask


def _patch_disp16(image: bytearray, offset: int, disp: int, what: str) -> None:
    if not _DISP_LO <= disp <= _DISP_HI:
        raise LinkError(f"{what}: displacement {disp} exceeds {_DISP_BITS} bits")
    word = _read_word(image, offset)
    _write_word(image, offset, (word & ~_DISP_MASK) | (disp & _DISP_MASK))


def _apply_module_relocs(
    inputs: ResolvedInputs,
    layout: Layout,
    index: int,
    text: bytearray,
    data: bytearray,
) -> None:
    module = inputs.modules[index]
    text_base = layout.options.text_base
    data_base = layout.options.data_base
    module_text = layout.section_base(index, SectionKind.TEXT)
    gp = layout.gp_for_module(index)

    # OM-produced split GP-relative references: per group, pick one
    # ``hi`` covering every low displacement, then patch highs and lows.
    gprel_groups: dict[int, list] = {}
    for reloc in module.relocations:
        if reloc.type in (RelocType.GPRELHIGH, RelocType.GPRELLOW):
            gprel_groups.setdefault(reloc.extra, []).append(reloc)
    for group_id, relocs in gprel_groups.items():
        lows = [r for r in relocs if r.type is RelocType.GPRELLOW]
        highs = [r for r in relocs if r.type is RelocType.GPRELHIGH]
        if not highs:
            raise LinkError(f"{module.name}: gprel group {group_id} has no high part")
        disps = [
            layout.symbol_addr(index, r.symbol) + r.addend - gp for r in lows
        ]
        if not disps:
            disps = [layout.symbol_addr(index, highs[0].symbol) + highs[0].addend - gp]
        try:
            hi = shared_high(disps)
        except ValueError:
            raise LinkError(
                f"{module.name}: gprel group {group_id} spans more than 64KB"
            ) from None
        for reloc in highs:
            _patch_disp16(text, module_text - text_base + reloc.offset, hi,
                          f"{module.name} gprelhigh")
        for reloc, disp in zip(lows, disps):
            _patch_disp16(text, module_text - text_base + reloc.offset,
                          disp - (hi << _DISP_BITS), f"{module.name} gprellow")

    for reloc in module.relocations:
        if reloc.type in (
            RelocType.LITUSE,
            RelocType.JMPTAB,
            RelocType.GPRELHIGH,
            RelocType.GPRELLOW,
        ):
            continue  # hints, or already handled above
        if reloc.type is RelocType.REFQUAD:
            value = layout.symbol_addr(index, reloc.symbol) + reloc.addend
            base = layout.section_base(index, reloc.section)
            offset = base - data_base + reloc.offset
            data[offset : offset + 8] = (value % (1 << 64)).to_bytes(8, "little")
            continue

        # The rest are text relocations.
        offset = module_text - text_base + reloc.offset
        vaddr = module_text + reloc.offset
        if reloc.type is RelocType.LITERAL:
            slot = layout.gat_slot_addr(index, reloc.symbol, reloc.addend)
            _patch_disp16(image=text, offset=offset, disp=slot - gp,
                          what=f"{module.name} literal {reloc.symbol}")
        elif reloc.type is RelocType.GPREL16:
            target = layout.symbol_addr(index, reloc.symbol) + reloc.addend
            _patch_disp16(text, offset, target - gp,
                          what=f"{module.name} gprel16 {reloc.symbol}")
        elif reloc.type is RelocType.GPDISP:
            base_vaddr = module_text + reloc.extra
            hi, lo = split_hi_lo(gp - base_vaddr)
            _patch_disp16(text, offset, hi, f"{module.name} gpdisp hi")
            _patch_disp16(text, offset + reloc.addend, lo, f"{module.name} gpdisp lo")
        elif reloc.type is RelocType.BRADDR:
            target = layout.symbol_addr(index, reloc.symbol) + reloc.addend
            disp = (target - (vaddr + 4)) >> 2
            if not _BRANCH_LO <= disp <= _BRANCH_HI:
                raise LinkError(
                    f"{module.name}: branch to {reloc.symbol} out of range"
                )
            word = _read_word(text, offset)
            _write_word(text, offset, (word & ~_BRANCH_MASK) | (disp & _BRANCH_MASK))
        elif reloc.type is RelocType.HINT:
            target = layout.symbol_addr(index, reloc.symbol)
            word = _read_word(text, offset)
            hint = (target >> 2) & _HINT_MASK
            _write_word(text, offset, (word & ~_HINT_MASK) | hint)
        else:  # pragma: no cover
            raise LinkError(f"unknown relocation type {reloc.type}")
