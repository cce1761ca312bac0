"""The concrete machine instruction value type.

An :class:`Instruction` is fully numeric — every operand is a register
number or an immediate — and can be encoded to its 32-bit word.  The
assembler (:mod:`repro.isa.asm`) and OM's symbolic form wrap this type
with symbolic operands; by the time an ``Instruction`` exists, all
symbols have been resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import CONDITIONAL_BRANCHES, OPS, Format, Op
from repro.isa.registers import Reg
from repro.isa.timing import OP_FACTS


@dataclass(slots=True)
class Instruction:
    """One 32-bit instruction.

    Field use by format:

    * MEMORY:       ``ra``, ``rb``, ``disp`` (16-bit signed)
    * MEMORY_JUMP:  ``ra``, ``rb``, ``disp`` = 14-bit hint
    * BRANCH:       ``ra``, ``disp`` (21-bit signed word displacement)
    * OPERATE:      ``ra``, ``rb`` or ``lit`` (8-bit unsigned), ``rc``
    * PAL:          ``disp`` = 26-bit function code
    """

    op: Op
    ra: int = 31
    rb: int = 31
    rc: int = 31
    disp: int = 0
    lit: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def mem(cls, name: str, ra: int, rb: int, disp: int) -> Instruction:
        """Memory-format instruction ``name ra, disp(rb)``."""
        op = OPS[name]
        assert op.format is Format.MEMORY, name
        return cls(op, ra=ra, rb=rb, disp=disp)

    @classmethod
    def opr(cls, name: str, ra: int, rb_or_lit: int, rc: int, *, lit: bool = False) -> Instruction:
        """Operate-format instruction ``name ra, rb_or_lit, rc``."""
        op = OPS[name]
        assert op.format is Format.OPERATE, name
        if lit:
            return cls(op, ra=ra, rc=rc, lit=rb_or_lit)
        return cls(op, ra=ra, rb=rb_or_lit, rc=rc)

    @classmethod
    def branch(cls, name: str, ra: int, disp: int) -> Instruction:
        """Branch-format instruction; ``disp`` in instruction words."""
        op = OPS[name]
        assert op.format is Format.BRANCH, name
        return cls(op, ra=ra, disp=disp)

    @classmethod
    def jump(cls, name: str, ra: int, rb: int, hint: int = 0) -> Instruction:
        """Memory-format jump ``name ra, (rb), hint``."""
        op = OPS[name]
        assert op.format is Format.MEMORY_JUMP, name
        return cls(op, ra=ra, rb=rb, disp=hint)

    @classmethod
    def pal(cls, func: int) -> Instruction:
        """``call_pal func``."""
        return cls(OPS["call_pal"], disp=func)

    @classmethod
    def nop(cls) -> Instruction:
        """The canonical integer no-op ``bis zero, zero, zero``."""
        return cls.opr("bis", Reg.ZERO, Reg.ZERO, Reg.ZERO)

    def replace(self, **changes) -> Instruction:
        """Return a copy with fields replaced (an unknown field raises
        ``TypeError``, as in the constructor)."""
        get = changes.pop
        return Instruction(
            get("op", self.op),
            get("ra", self.ra),
            get("rb", self.rb),
            get("rc", self.rc),
            get("disp", self.disp),
            get("lit", self.lit),
            **changes,
        )

    # -- classification -------------------------------------------------

    @property
    def is_nop(self) -> bool:
        """True for the canonical no-op and any op writing only ZERO."""
        op = self.op
        if op.format is Format.OPERATE:
            return self.rc == Reg.ZERO
        if op is OPS["ldq_u"]:
            return self.ra == Reg.ZERO
        if op.name in ("lda", "ldah"):
            return self.ra == Reg.ZERO
        return False

    @property
    def is_branch(self) -> bool:
        return self.op.format is Format.BRANCH

    @property
    def is_cond_branch(self) -> bool:
        return self.op.name in CONDITIONAL_BRANCHES

    @property
    def is_jump(self) -> bool:
        return self.op.format is Format.MEMORY_JUMP

    @property
    def is_call(self) -> bool:
        """True for the call forms: ``jsr`` and ``bsr``."""
        return self.op.name in ("jsr", "bsr")

    @property
    def is_control(self) -> bool:
        """True if this instruction can change the PC: branches, jumps
        and PAL calls, the ops of the control issue pipe."""
        return OP_FACTS[self.op.name].pipe == "B"

    # -- register dependences (for scheduling and analysis) --------------

    def defs(self) -> tuple[int, ...]:
        """Registers written (ZERO filtered out)."""
        return self._registers(OP_FACTS[self.op.name].writes)

    def uses(self) -> tuple[int, ...]:
        """Registers read (ZERO filtered out)."""
        facts = OP_FACTS[self.op.name]
        return self._registers(facts.reads if self.lit is None else facts.reads_lit)

    def _registers(self, operands: tuple[str | int, ...]) -> tuple[int, ...]:
        regs = (
            getattr(self, operand) if operand.__class__ is str else operand
            for operand in operands
        )
        return tuple(reg for reg in regs if reg != Reg.ZERO)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        from repro.isa.disasm import format_instruction

        return format_instruction(self)
