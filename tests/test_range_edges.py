"""Every range-table entry, through every consumer, on its exact edges.

Each case puts one value at ``lo - 1``, ``lo``, ``hi`` or ``hi + 1`` of
an entry of :mod:`repro.isa.ranges` and asks one consumer whether it
takes it: the encoder, the linker's relocation patching, the GP-window
queries and the linker's window cost, the one-shot ``bsr`` check and
the relaxation fixpoint.  The edges are stated here, not read from the
table, so a bound moved by one (in the table or in a consumer) fails a
case; accepted values are also decoded, which reads the widths off the
table.
"""

import pytest

from repro.isa import Instruction, decode, encode
from repro.isa.encoding import EncodingError
from repro.isa.ranges import (
    BRANCH_DISP,
    DEFAULT_GAT_CAPACITY,
    GP_BIAS,
    GP_WINDOW,
    JUMP_HINT,
    MEM_DISP,
    OPERATE_LIT,
    PAL_FUNC,
    bsr_reaches,
    gp_reaches,
    gp_rebases,
)
from repro.isa.registers import Reg
from repro.layout.callgraph import CallSite
from repro.layout.relax import RelaxCandidate, relax_call_sites
from repro.linker.executable import TEXT_BASE
from repro.linker.layout import LayoutOptions, _window_cost
from repro.linker.relocate import _apply_module_relocs
from repro.linker.resolve import LinkError, ResolvedInputs
from repro.minicc.mcode import MInstr
from repro.objfile.objfile import ObjectFile
from repro.objfile.relocations import Relocation, RelocType
from repro.objfile.sections import SectionKind
from repro.om.symbolic import SymbolicModule, SymbolicProc

#: A narrow ``bsr_range_words`` keeps the relaxation programs small; the
#: arithmetic is the full field's.
R = 64

#: The one-shot check works in bytes, at the full reach, 64 KB short.
ONE_SHOT = 4 * (1 << 20) - (1 << 16) - 1

#: Each entry's edges, lowest and highest value taken.
EDGES = {
    "memory displacement": (-32768, 32767),
    "branch displacement": (-(1 << 20), (1 << 20) - 1),
    "jump hint": (0, (1 << 14) - 1),
    "operate literal": (0, 255),
    "PAL function": (0, (1 << 26) - 1),
    "GP window": (-32752, 32767),
    "bsr reach": (-R, R - 1),
    "bsr one-shot": (-ONE_SHOT, ONE_SHOT),
}


def test_table_entries():
    fields = (MEM_DISP, BRANCH_DISP, JUMP_HINT, OPERATE_LIT, PAL_FUNC, GP_WINDOW)
    assert {field.name: (field.lo, field.hi) for field in fields} == {
        name: EDGES[name] for name in EDGES if not name.startswith("bsr")
    }
    assert [(f.bits, f.signed, f.scale) for f in fields] == [
        (16, True, 1), (21, True, 4), (14, False, 4),
        (8, False, 1), (26, False, 1), (16, True, 1),
    ]
    assert GP_BIAS == 32752
    assert DEFAULT_GAT_CAPACITY == 8190


# -- the encoder -----------------------------------------------------------------


def _encodes(instr: Instruction) -> bool:
    try:
        word = encode(instr)
    except EncodingError:
        return False
    assert decode(word) == instr
    return True


def _encode_memory(value):
    return _encodes(Instruction.mem("ldq", Reg.T0, Reg.GP, value))


def _encode_branch(value):
    return _encodes(Instruction.branch("br", Reg.ZERO, value))


def _encode_hint(value):
    return _encodes(Instruction.jump("jsr", Reg.RA, Reg.PV, value))


def _encode_literal(value):
    return _encodes(Instruction.opr("addq", Reg.T0, value, Reg.T1, lit=True))


def _encode_pal(value):
    return _encodes(Instruction.pal(value))


# -- relocation patching ---------------------------------------------------------


class _Placed:
    """What relocation reads of a layout: the text at ``TEXT_BASE``, one
    GP, and one address for every symbol and GAT slot."""

    options = LayoutOptions()

    def __init__(self, gp: int, addr: int):
        self.gp = gp
        self.addr = addr

    def section_base(self, index, kind):
        return TEXT_BASE

    def gp_for_module(self, index):
        return self.gp

    def symbol_addr(self, index, name):
        return self.addr

    def gat_slot_addr(self, index, name, addend):
        return self.addr


def _relocate(reloc: Relocation, instrs: list[Instruction], *, gp: int,
              addr: int) -> list[Instruction] | None:
    """The instructions after ``reloc`` is applied, or ``None`` when the
    linker rejects it."""
    obj = ObjectFile("m.o")
    obj.section(SectionKind.TEXT).data = bytearray(
        b"".join(encode(instr).to_bytes(4, "little") for instr in instrs)
    )
    obj.relocations.append(reloc)
    text = bytearray(obj.sections[SectionKind.TEXT].data)
    try:
        _apply_module_relocs(
            ResolvedInputs([obj]), _Placed(gp, addr), 0, text, bytearray()
        )
    except LinkError:
        return None
    return [
        decode(int.from_bytes(text[i:i + 4], "little"))
        for i in range(0, len(text), 4)
    ]


def _gp_relative(rtype: RelocType, op: str):
    def accepts(value):
        gp = 1 << 32
        out = _relocate(
            Relocation(rtype, SectionKind.TEXT, 0, "s"),
            [Instruction.mem(op, Reg.T0, Reg.GP, 0)], gp=gp, addr=gp + value,
        )
        assert out is None or out[0].disp == value
        return out is not None
    return accepts


def _gpdisp(value):
    """The pair's high half at ``value`` (its low half 0)."""
    out = _relocate(
        Relocation(RelocType.GPDISP, SectionKind.TEXT, 0, addend=4),
        [Instruction.mem("ldah", Reg.GP, Reg.PV, 0),
         Instruction.mem("lda", Reg.GP, Reg.GP, 0)],
        gp=TEXT_BASE + (value << 16), addr=0,
    )
    assert out is None or [instr.disp for instr in out] == [value, 0]
    return out is not None


def _braddr(value):
    out = _relocate(
        Relocation(RelocType.BRADDR, SectionKind.TEXT, 0, "s"),
        [Instruction.branch("bsr", Reg.RA, 0)],
        gp=0, addr=TEXT_BASE + 4 + 4 * value,
    )
    assert out is None or out[0].disp == value
    return out is not None


# -- the GP window ----------------------------------------------------------------


def _window_cost_free(value):
    return _window_cost([("s", (8, 1))], value, 0, {"s": 1.0}) == 0.0


# -- the bsr reach ----------------------------------------------------------------


def _proc(name, words):
    return SymbolicProc(name, items=[MInstr(Instruction.nop()) for __ in range(words)],
                        exported=True)


def _relax(value):
    """One call site whose modelled word displacement is ``value``: its
    PV load stays, so nothing moves between waves."""
    callee = _proc("X", 1)
    caller = _proc("P", 2)
    load, jsr = caller.items
    if value >= 0:  # P[load, jsr] F[value] X
        procs = [caller, _proc("F", value), callee]
    else:  # X F[-value - 3] P[load, jsr]
        procs = [callee, _proc("F", -value - 3), caller]
    site = CallSite(0, caller, jsr, load, 0, callee)
    result = relax_call_sites(
        [SymbolicModule("m", procs=procs)],
        [RelaxCandidate(site, False, 0)],
        text_base=0,
        range_words=R,
    )
    return result.decisions[jsr.uid]


def _one_shot(value):
    return bsr_reaches(TEXT_BASE, TEXT_BASE + value, 1 << 20)


CONSUMERS = {
    ("memory displacement", "encode"): _encode_memory,
    ("memory displacement", "literal"): _gp_relative(RelocType.LITERAL, "ldq"),
    ("memory displacement", "gprel16"): _gp_relative(RelocType.GPREL16, "lda"),
    ("memory displacement", "gpdisp"): _gpdisp,
    ("branch displacement", "encode"): _encode_branch,
    ("branch displacement", "braddr"): _braddr,
    ("jump hint", "encode"): _encode_hint,
    ("operate literal", "encode"): _encode_literal,
    ("PAL function", "encode"): _encode_pal,
    ("GP window", "gp_reaches"): gp_reaches,
    ("GP window", "gp_rebases"): lambda value: gp_rebases(value, [0]),
    ("GP window", "window cost"): _window_cost_free,
    ("bsr reach", "relax"): _relax,
    ("bsr one-shot", "bsr_reaches"): _one_shot,
}


@pytest.mark.parametrize("where", ["lo-1", "lo", "hi", "hi+1"])
@pytest.mark.parametrize(
    "entry, consumer", list(CONSUMERS), ids=[" ".join(key) for key in CONSUMERS]
)
def test_edge(entry, consumer, where):
    lo, hi = EDGES[entry]
    value = {"lo-1": lo - 1, "lo": lo, "hi": hi, "hi+1": hi + 1}[where]
    assert CONSUMERS[(entry, consumer)](value) is (where in ("lo", "hi"))
