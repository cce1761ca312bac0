"""Instruction catalogue for the Alpha AXP subset.

Instruction formats (Alpha Architecture Reference Manual, ch. 3):

* ``MEMORY``      — opcode[31:26] ra[25:21] rb[20:16] disp[15:0]
* ``MEMORY_JUMP`` — opcode 0x1A, ra[25:21] rb[20:16] func[15:14] hint[13:0]
* ``BRANCH``      — opcode[31:26] ra[25:21] disp[20:0] (signed *word* disp)
* ``OPERATE``     — opcode[31:26] ra[25:21] rb[20:16]/lit[20:13]+1[12]
                    func[11:5] rc[4:0]
* ``PAL``         — opcode 0x00, func[25:0]

Major opcodes and function codes follow the real architecture where the
subset overlaps it (LDA=0x08, LDQ=0x29, BIS=0x11.20, BSR=0x34, ...), so
encodings in tests and examples look like genuine Alpha code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Format(enum.Enum):
    """The five instruction encodings of the subset."""

    MEMORY = "memory"
    MEMORY_JUMP = "memory_jump"
    BRANCH = "branch"
    OPERATE = "operate"
    PAL = "pal"


class PalFunc(enum.IntEnum):
    """CALL_PAL function codes used by the simulated OS interface."""

    HALT = 0x0000
    PUTCHAR = 0x0081  # write low byte of a0 to the console
    PUTINT = 0x0082  # write a0 as a signed decimal, plus newline
    GETTICKS = 0x0083  # v0 := cycles executed so far


@dataclass(frozen=True)
class Op:
    """One instruction definition.

    ``func`` is the function code for OPERATE and MEMORY_JUMP formats and
    ``None`` otherwise.  ``is_load``/``is_store`` classify true memory
    operations (LDA/LDAH are address arithmetic, not loads).
    """

    name: str
    format: Format
    opcode: int
    func: int | None = None
    is_load: bool = False
    is_store: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name})"

    def __reduce__(self):
        # Unpickle to the catalogue's own instance, so that ops from a
        # pickled program still compare by identity.
        return (_op_named, (self.name,))


def _op_named(name: str) -> Op:
    return OPS[name]


def _mem(name: str, opcode: int, *, load: bool = False, store: bool = False) -> Op:
    return Op(name, Format.MEMORY, opcode, is_load=load, is_store=store)


def _br(name: str, opcode: int) -> Op:
    return Op(name, Format.BRANCH, opcode)


def _opr(name: str, opcode: int, func: int) -> Op:
    return Op(name, Format.OPERATE, opcode, func)


def _jmp(name: str, func: int) -> Op:
    return Op(name, Format.MEMORY_JUMP, 0x1A, func)


#: All instructions in the subset, by name.
OPS: dict[str, Op] = {
    op.name: op
    for op in [
        # --- PALcode ---------------------------------------------------
        Op("call_pal", Format.PAL, 0x00),
        # --- memory format ----------------------------------------------
        _mem("lda", 0x08),
        _mem("ldah", 0x09),  # disp is shifted left 16
        _mem("ldbu", 0x0A, load=True),
        _mem("ldq_u", 0x0B, load=True),
        _mem("stb", 0x0E, store=True),
        _mem("ldl", 0x28, load=True),  # sign-extending 32-bit load
        _mem("ldq", 0x29, load=True),
        _mem("stl", 0x2C, store=True),
        _mem("stq", 0x2D, store=True),
        # --- memory-format jumps ----------------------------------------
        _jmp("jmp", 0),
        _jmp("jsr", 1),
        _jmp("ret", 2),
        _jmp("jsr_coroutine", 3),
        # --- branch format ----------------------------------------------
        _br("br", 0x30),
        _br("bsr", 0x34),
        _br("blbc", 0x38),
        _br("beq", 0x39),
        _br("blt", 0x3A),
        _br("ble", 0x3B),
        _br("blbs", 0x3C),
        _br("bne", 0x3D),
        _br("bge", 0x3E),
        _br("bgt", 0x3F),
        # --- operate: integer arithmetic (opcode 0x10) -------------------
        _opr("addl", 0x10, 0x00),
        _opr("s4addq", 0x10, 0x22),
        _opr("s8addq", 0x10, 0x32),
        _opr("addq", 0x10, 0x20),
        _opr("subl", 0x10, 0x09),
        _opr("subq", 0x10, 0x29),
        _opr("cmpeq", 0x10, 0x2D),
        _opr("cmplt", 0x10, 0x4D),
        _opr("cmple", 0x10, 0x6D),
        _opr("cmpult", 0x10, 0x1D),
        _opr("cmpule", 0x10, 0x3D),
        # --- operate: logical / conditional move (opcode 0x11) -----------
        _opr("and", 0x11, 0x00),
        _opr("bic", 0x11, 0x08),
        _opr("bis", 0x11, 0x20),
        _opr("ornot", 0x11, 0x28),
        _opr("xor", 0x11, 0x40),
        _opr("eqv", 0x11, 0x48),
        _opr("cmoveq", 0x11, 0x24),
        _opr("cmovne", 0x11, 0x26),
        _opr("cmovlt", 0x11, 0x44),
        _opr("cmovge", 0x11, 0x46),
        _opr("cmovle", 0x11, 0x64),
        _opr("cmovgt", 0x11, 0x66),
        # --- operate: shifts (opcode 0x12) --------------------------------
        _opr("sll", 0x12, 0x39),
        _opr("srl", 0x12, 0x34),
        _opr("sra", 0x12, 0x3C),
        # --- operate: multiply (opcode 0x13) ------------------------------
        _opr("mull", 0x13, 0x00),
        _opr("mulq", 0x13, 0x20),
        _opr("umulh", 0x13, 0x30),
    ]
}

#: Branch instructions that test a register (everything but br/bsr).
CONDITIONAL_BRANCHES = frozenset(
    ["blbc", "beq", "blt", "ble", "blbs", "bne", "bge", "bgt"]
)

#: Canonical integer no-op: ``bis zero, zero, zero``.
NOP = OPS["bis"]

#: The "universal NOP" used in load slots: ``ldq_u zero, 0(zero)``.
UNOP = OPS["ldq_u"]
