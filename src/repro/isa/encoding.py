"""Exact binary encoding and decoding of the 32-bit instruction word.

Encoding follows the Alpha AXP layouts; :func:`decode` is the exact
inverse of :func:`encode` for every instruction in the subset (this is
property-tested).  Unknown opcodes raise :class:`EncodingError` so that
corrupted object files fail loudly rather than silently mis-execute.
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Format, Op
from repro.isa.ranges import (
    BRANCH_DISP, JUMP_HINT, MEM_DISP, OPERATE_LIT, PAL_FUNC, Field,
)


class EncodingError(ValueError):
    """Raised for malformed instructions or undecodable words."""


# The decoder reads the field widths from these, not from the range
# table the encoder checks against, so a wrong table entry shows up
# as an encode/decode divergence.
_MASK16 = 0xFFFF
_MASK21 = 0x1FFFFF

# Decode lookup tables built once from the catalogue: the op of every
# major opcode that names one instruction, and by ``opcode << 7 | func``
# the ops of the two majors that select by function code.
_BY_OPCODE: list[Op | None] = [None] * 64
_BY_OPCODE_FUNC: dict[int, Op] = {}
for _op in OPS.values():
    if _op.format in (Format.OPERATE, Format.MEMORY_JUMP):
        _BY_OPCODE_FUNC[_op.opcode << 7 | _op.func] = _op
    else:
        _BY_OPCODE[_op.opcode] = _op

_MEMORY = Format.MEMORY
_MEMORY_JUMP = Format.MEMORY_JUMP
_BRANCH = Format.BRANCH
_OPERATE = Format.OPERATE
_PAL = Format.PAL
_JUMP_OPCODE = 0x1A


_DISP_LO, _DISP_HI, _DISP_MASK = MEM_DISP.lo, MEM_DISP.hi, MEM_DISP.mask
_BRANCH_LO, _BRANCH_HI, _BRANCH_MASK = BRANCH_DISP.lo, BRANCH_DISP.hi, BRANCH_DISP.mask
_HINT_LO, _HINT_HI = JUMP_HINT.lo, JUMP_HINT.hi
_LIT_LO, _LIT_HI = OPERATE_LIT.lo, OPERATE_LIT.hi
_PAL_LO, _PAL_HI = PAL_FUNC.lo, PAL_FUNC.hi


def _range_error(value: int, field: Field, what: str) -> EncodingError:
    return EncodingError(
        f"{what} {value} out of {field.bits}-bit range [{field.lo}, {field.hi}]"
    )


def encode(instr: Instruction) -> int:
    """Encode ``instr`` into its 32-bit word."""
    op = instr.op
    word = op.opcode << 26
    fmt = op.format
    if fmt is _MEMORY:
        disp = instr.disp
        if not _DISP_LO <= disp <= _DISP_HI:
            raise _range_error(disp, MEM_DISP, f"{op.name} displacement")
        return word | (instr.ra << 21) | (instr.rb << 16) | (disp & _DISP_MASK)
    if fmt is _OPERATE:
        word |= (instr.ra << 21) | (op.func << 5) | instr.rc
        lit = instr.lit
        if lit is not None:
            if not _LIT_LO <= lit <= _LIT_HI:
                raise _range_error(lit, OPERATE_LIT, f"{op.name} literal")
            return word | (lit << 13) | (1 << 12)
        return word | (instr.rb << 16)
    if fmt is _BRANCH:
        disp = instr.disp
        if not _BRANCH_LO <= disp <= _BRANCH_HI:
            raise _range_error(disp, BRANCH_DISP, f"{op.name} displacement")
        return word | (instr.ra << 21) | (disp & _BRANCH_MASK)
    if fmt is _MEMORY_JUMP:
        disp = instr.disp
        if not _HINT_LO <= disp <= _HINT_HI:
            raise _range_error(disp, JUMP_HINT, f"{op.name} hint")
        return word | (instr.ra << 21) | (instr.rb << 16) | (op.func << 14) | disp
    if fmt is _PAL:
        disp = instr.disp
        if not _PAL_LO <= disp <= _PAL_HI:
            raise _range_error(disp, PAL_FUNC, "PAL function")
        return word | disp
    raise EncodingError(f"unencodable format {fmt}")  # pragma: no cover


def decode(word: int) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`EncodingError` for words outside the subset.
    Displacements are sign-extended as ``(field ^ sign) - sign``.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError(f"not a 32-bit word: {word:#x}")
    opcode = word >> 26
    op = _BY_OPCODE[opcode]
    if op is not None:
        fmt = op.format
        if fmt is _MEMORY:
            return Instruction(
                op, (word >> 21) & 31, (word >> 16) & 31, 31,
                ((word & _MASK16) ^ 0x8000) - 0x8000,
            )
        if fmt is _BRANCH:
            return Instruction(
                op, (word >> 21) & 31, 31, 31,
                ((word & _MASK21) ^ 0x100000) - 0x100000,
            )
        if fmt is _PAL:
            return Instruction(op, 31, 31, 31, word & 0x3FFFFFF)
        raise EncodingError(f"bad table entry for opcode {opcode:#x}")  # pragma: no cover

    if opcode == _JUMP_OPCODE:  # memory-format jumps
        func = (word >> 14) & 3
        op = _BY_OPCODE_FUNC.get(opcode << 7 | func)
        if op is None:  # pragma: no cover - all four funcs defined
            raise EncodingError(f"unknown jump func {func}")
        return Instruction(op, (word >> 21) & 31, (word >> 16) & 31, 31, word & 0x3FFF)

    # Operate format.
    op = _BY_OPCODE_FUNC.get(opcode << 7 | (word >> 5) & 0x7F)
    if op is None:
        raise EncodingError(f"unknown instruction word {word:#010x}")
    if word & 0x1000:
        return Instruction(op, (word >> 21) & 31, 31, word & 31, 0, (word >> 13) & 0xFF)
    if (word >> 13) & 7:
        raise EncodingError(f"SBZ bits set in operate word {word:#010x}")
    return Instruction(op, (word >> 21) & 31, (word >> 16) & 31, word & 31)


def encode_stream(instructions: list[Instruction]) -> bytes:
    """Encode a sequence of instructions to little-endian bytes."""
    return struct.pack(f"<{len(instructions)}I", *map(encode, instructions))


def decode_stream(data: bytes) -> list[Instruction]:
    """Decode little-endian instruction bytes; length must be a multiple of 4."""
    if len(data) % 4:
        raise EncodingError(f"instruction stream length {len(data)} not word-aligned")
    return [decode(word) for word in struct.unpack(f"<{len(data) // 4}I", data)]
