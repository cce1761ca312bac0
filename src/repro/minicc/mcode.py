"""Machine code with symbolic annotations — the scheduler's substrate.

The code generator produces, per procedure, a list of :class:`MLabel`
and :class:`MInstr` items.  Relocation requests reference other items by
unique id (not list index) so the pipeline scheduler can reorder items
freely; the driver maps ids to assembler item indices at emission time.

Label semantics matter for scheduling:

* ``is_target`` labels are control-flow join points — basic block
  boundaries that instructions may not cross;
* marker labels (``is_target=False``) only *name a point* (procedure
  entry, call return points used as GPDISP bases); instructions may be
  scheduled past them, which is exactly how compile-time scheduling ends
  up moving GP-setup code away from its logical position (the effect the
  paper's OM-full undoes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.isa.asm import Assembler
from repro.isa.instruction import Instruction
from repro.objfile.relocations import LituseKind

_uid_counter = itertools.count(1)


def next_uid() -> int:
    return next(_uid_counter)


# Items compare by identity (``eq=False``).  OM locates them with
# ``list.index``/``list.remove``, and value equality would compare every
# field, nested Instruction included, at each step of the scan.
# Identity finds the same item: every instruction carries a unique uid,
# and nothing copies items.


@dataclass(eq=False)
class MLabel:
    name: str
    is_target: bool = True
    align: int = 0  # quadword-align this label's address when nonzero


@dataclass(eq=False)
class MInstr:
    """One instruction plus relocation requests (see Assembler.emit)."""

    instr: Instruction
    uid: int = field(default_factory=_uid_counter.__next__)
    literal: tuple[str, int] | None = None
    lit_escaped: bool = False  # literal value escapes beyond load/store bases
    lituse: tuple[int, LituseKind] | None = None  # (uid of literal load, kind)
    gpdisp_base: str | None = None
    gpdisp_pair: int | None = None  # uid of the paired ldah
    branch: tuple[str, int] | None = None
    hint: str | None = None
    jmptab: tuple[str, int] | None = None
    # OM-produced GP-relative reference: (kind, symbol, addend, group)
    # where kind is "gprel16", "gprelhigh", or "gprellow".
    gprel: tuple[str, str, int, int] | None = None


MItem = MLabel | MInstr


@dataclass
class MProc:
    """One generated procedure, ready for scheduling and assembly."""

    name: str
    items: list[MItem] = field(default_factory=list)
    exported: bool = True
    uses_gp: bool = True
    frame_size: int = 0


def emit_proc(asm: Assembler, proc: MProc) -> None:
    """Feed a procedure into the assembler, resolving uid references."""
    asm.begin_proc(
        proc.name,
        exported=proc.exported,
        uses_gp=proc.uses_gp,
        frame_size=proc.frame_size,
    )
    uid_to_index: dict[int, int] = {}
    for item in proc.items:
        if isinstance(item, MLabel):
            if item.name != proc.name:  # entry label emitted by begin_proc
                asm.label(item.name)
            continue
        kwargs: dict = {}
        if item.literal is not None:
            kwargs["literal"] = item.literal
            kwargs["lit_escaped"] = item.lit_escaped
        if item.lituse is not None:
            load_uid, kind = item.lituse
            kwargs["lituse"] = (uid_to_index[load_uid], kind)
        if item.gpdisp_base is not None:
            kwargs["gpdisp_base"] = item.gpdisp_base
        if item.gpdisp_pair is not None:
            kwargs["gpdisp_pair"] = uid_to_index[item.gpdisp_pair]
        if item.branch is not None:
            kwargs["branch"] = item.branch
        if item.hint is not None:
            kwargs["hint"] = item.hint
        if item.jmptab is not None:
            kwargs["jmptab"] = item.jmptab
        if item.gprel is not None:
            kwargs["gprel"] = item.gprel
        uid_to_index[item.uid] = asm.emit(item.instr, **kwargs)
    asm.end_proc()
