"""Shared timing model of the simulated dual-issue AXP implementation.

Modeled on the DECstation 3000/400's 21064-class pipeline used in the
paper's dynamic measurements:

* in-order dual issue: one integer-operate instruction may pair with one
  memory or control instruction per cycle (two integer ops, two memory
  ops, or two control ops never pair);
* loads have a 3-cycle latency (2 stall cycles on immediate use);
* integer multiply is long-latency;
* taken branches cost one bubble.

Both pipeline schedulers (compile-time and OM's link-time rescheduler)
and the performance simulator import this table, mirroring the paper's
note that OM's scheduler is "very similar to the scheduler used by the
assembler".  :data:`OP_FACTS` holds each op's dependence facts once:
the registers it reads and writes, its result latency and its issue
pipe.  ``Instruction.uses()``/``defs()`` and the list scheduler read it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.isa.opcodes import CONDITIONAL_BRANCHES, OPS, Format, Op
from repro.isa.registers import Reg

if TYPE_CHECKING:
    from repro.isa.instruction import Instruction

#: Result latency in cycles by producer kind.
LOAD_LATENCY = 3
MUL_LATENCY = 12
DEFAULT_LATENCY = 1

#: Extra cycles for a taken branch (fetch bubble).
TAKEN_BRANCH_PENALTY = 1

#: Cache geometry: split 8KB direct-mapped I and D caches, 32-byte lines.
ICACHE_BYTES = 8192
DCACHE_BYTES = 8192
CACHE_LINE = 32
CACHE_MISS_PENALTY = 10


class OpFacts(NamedTuple):
    """What the schedulers and the timing model know about one op.

    ``reads``/``writes`` name each register operand in order: an
    instruction field (``"ra"``, ``"rb"``, ``"rc"``) or, for CALL_PAL's
    implicit operands, a fixed register number.  ``reads_lit`` replaces
    ``reads`` when an operate literal stands in for ``rb``.
    """

    is_load: bool
    is_store: bool
    latency: int  # cycles until the result may be consumed unstalled
    pipe: str  # issue pipe: 'M' memory, 'B' control, 'I' integer operate
    reads: tuple[str | int, ...]
    reads_lit: tuple[str | int, ...]
    writes: tuple[str | int, ...]


def _facts(op: Op) -> OpFacts:
    fmt = op.format
    pipe = "B"  # branches, jumps, PAL
    if fmt is Format.OPERATE:
        pipe = "I"
        cmov = ("rc",) if op.name.startswith("cmov") else ()
        reads, reads_lit = ("ra", "rb", *cmov), ("ra", *cmov)
        writes: tuple[str | int, ...] = ("rc",)
    elif fmt is Format.MEMORY:
        pipe = "M"
        reads = ("rb", "ra") if op.is_store else ("rb",)
        writes = () if op.is_store else ("ra",)
    elif fmt is Format.MEMORY_JUMP:
        reads, writes = ("rb",), ("ra",)
    elif fmt is Format.BRANCH:
        conditional = op.name in CONDITIONAL_BRANCHES
        reads = ("ra",) if conditional else ()
        writes = () if conditional else ("ra",)
    else:  # PAL: the OS interface takes a0 and answers in v0
        reads, writes = (Reg.A0.value,), (Reg.V0.value,)
    if fmt is not Format.OPERATE:
        reads_lit = reads
    if op.is_load:
        latency = LOAD_LATENCY
    elif op.name in ("mulq", "mull", "umulh"):
        latency = MUL_LATENCY
    else:
        latency = DEFAULT_LATENCY
    return OpFacts(op.is_load, op.is_store, latency, pipe, reads, reads_lit, writes)


#: Every op's facts, by op name.
OP_FACTS: dict[str, OpFacts] = {name: _facts(op) for name, op in OPS.items()}


def result_latency(instr: Instruction) -> int:
    """Cycles until ``instr``'s result may be consumed without stalling."""
    return OP_FACTS[instr.op.name].latency


def issue_class(instr: Instruction) -> str:
    """Issue pipe class: 'M' memory, 'B' control, 'I' integer operate."""
    return OP_FACTS[instr.op.name].pipe


def can_dual_issue(first: Instruction, second: Instruction) -> bool:
    """Whether two independent instructions may share an issue cycle."""
    return issue_class(first) != issue_class(second)
