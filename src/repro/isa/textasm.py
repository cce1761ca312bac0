"""Text assembler: OSF-flavoured Alpha assembly to object modules.

A thin front end over :class:`repro.isa.asm.Assembler` for hand-written
tests, examples, and runtime stubs.  Supported syntax::

        .ent    f               # procedure (add ", static" for local)
f:      ldah    $gp, 0($pv)     !gpdisp:f
        lda     $gp, 0($gp)     !gpdisp_pair
        ldq     $t0, counter($gp) !literal
        ldq     $v0, 0($t0)     !lituse_base
        ldq     $pv, g($gp)     !literal
        jsr     $ra, ($pv)      !lituse_jsr !hint:g
ret1:   ldah    $gp, 0($ra)     !gpdisp:ret1
        lda     $gp, 0($gp)     !gpdisp_pair
        ret     $zero, ($ra)
        .end    f

        .data
v:      .quad   42
tab:    .quad   f               # relocated address
        .space  16
        .comm   big, 800, 8

Annotation rules: ``!literal`` marks an address load (the displacement
field is the symbol name in the operand); ``!lituse_base``/``!lituse_jsr``
link to the most recent literal load whose destination register the
instruction uses; ``!gpdisp:<label>`` marks the high half of a GP pair
with its base point; ``!gpdisp_pair`` marks the matching ``lda``.
"""

from __future__ import annotations

import re

from repro.isa.asm import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Format, PalFunc
from repro.isa.ranges import OPERATE_LIT
from repro.isa.registers import Reg
from repro.objfile.objfile import ObjectFile
from repro.objfile.relocations import LituseKind
from repro.objfile.sections import SectionKind


class AsmSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_REG_NAMES = {r.name.lower(): int(r) for r in Reg}
_REG_NAMES.update({f"r{i}": i for i in range(32)})
_PAL_NAMES = {f.name.lower(): int(f) for f in PalFunc}

_LABEL_RE = re.compile(r"^([A-Za-z_$][\w$]*):\s*(.*)$")
_SYMBOL_RE = re.compile(r"^([A-Za-z_$][\w$]*)([+-]\d+)?$")


def _parse_reg(token: str, line: int) -> int:
    name = token.strip().lstrip("$")
    if name not in _REG_NAMES:
        raise AsmSyntaxError(f"unknown register {token!r}", line)
    return _REG_NAMES[name]


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AsmSyntaxError(f"expected integer, got {token!r}", line) from None


class TextAssembler:
    """Assembles one source text into an :class:`ObjectFile`."""

    def __init__(self, module_name: str):
        self.asm = Assembler(module_name)
        self.section = SectionKind.TEXT
        self.in_proc: str | None = None
        self.last_literal_for_reg: dict[int, int] = {}
        self.pending_gpdisp: int | None = None
        self.line = 0

    def error(self, message: str) -> AsmSyntaxError:
        return AsmSyntaxError(message, self.line)

    # -- main loop ----------------------------------------------------------

    def assemble(self, source: str) -> ObjectFile:
        for self.line, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            match = _LABEL_RE.match(text)
            if match:
                label, text = match.groups()
                if self.section is not SectionKind.TEXT:
                    self.asm.data_symbol(label, self.section, exported=False)
                elif label != self.in_proc:
                    # The entry label was already defined by .ent.
                    self.asm.label(label)
                text = text.strip()
                if not text:
                    continue
            if text.startswith("."):
                self._directive(text)
            else:
                self._instruction(text)
        if self.in_proc is not None:
            raise self.error(f"procedure {self.in_proc!r} not closed with .end")
        return self.asm.finish()

    # -- directives -----------------------------------------------------------

    def _directive(self, text: str) -> None:
        parts = text.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        args = [a.strip() for a in rest.split(",")] if rest else []

        if name == ".text":
            self.section = SectionKind.TEXT
        elif name in (".data", ".sdata"):
            self.section = (
                SectionKind.DATA if name == ".data" else SectionKind.SDATA
            )
        elif name == ".ent":
            if self.in_proc is not None:
                raise self.error(f"nested .ent inside {self.in_proc!r}")
            if not args:
                raise self.error(".ent needs a name")
            exported = not (len(args) > 1 and args[1] == "static")
            self.asm.begin_proc(args[0], exported=exported)
            self.in_proc = args[0]
        elif name == ".end":
            if self.in_proc is None:
                raise self.error(".end without .ent")
            self.asm.end_proc()
            self.in_proc = None
            self.last_literal_for_reg.clear()
        elif name == ".quad":
            if not args:
                raise self.error(".quad needs a value")
            for arg in args:
                try:
                    self.asm.data_quad(self.section, _parse_int(arg, self.line))
                except AsmSyntaxError:
                    match = _SYMBOL_RE.match(arg)
                    if not match:
                        raise self.error(f"bad .quad operand {arg!r}")
                    symbol, addend = match.groups()
                    self.asm.data_quad(
                        self.section, 0, symbol, int(addend or 0)
                    )
        elif name == ".space":
            self.asm.data_bytes(self.section, bytes(_parse_int(args[0], self.line)))
        elif name == ".comm":
            if len(args) < 2:
                raise self.error(".comm needs name, size")
            align = _parse_int(args[2], self.line) if len(args) > 2 else 8
            self.asm.common(args[0], _parse_int(args[1], self.line), align)
        elif name == ".extern":
            self.asm.extern(args[0])
        else:
            raise self.error(f"unknown directive {name}")

    # -- instructions ------------------------------------------------------------

    def _instruction(self, text: str) -> None:
        if self.in_proc is None:
            raise self.error("instruction outside .ent/.end")
        text, annotations = self._split_annotations(text)
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [o.strip() for o in operand_text.split(",")] if operand_text else []

        if mnemonic == "nop":
            self.asm.emit(Instruction.nop())
            return
        if mnemonic == "call_pal":
            func = _PAL_NAMES.get(operands[0].lower()) if operands else None
            if func is None:
                func = _parse_int(operands[0], self.line)
            self.asm.emit(Instruction.pal(func))
            return

        op = OPS.get(mnemonic)
        if op is None:
            raise self.error(f"unknown instruction {mnemonic!r}")
        if op.format is Format.MEMORY:
            self._memory(op, operands, annotations)
        elif op.format is Format.MEMORY_JUMP:
            self._jump(op, operands, annotations)
        elif op.format is Format.BRANCH:
            self._branch(op, operands, annotations)
        elif op.format is Format.OPERATE:
            self._operate(op, operands)
        else:
            raise self.error(f"cannot assemble format {op.format}")

    @staticmethod
    def _split_annotations(text: str) -> tuple[str, list[str]]:
        parts = text.split("!")
        return parts[0].strip(), [p.strip() for p in parts[1:]]

    def _mem_operand(self, token: str) -> tuple[str, int]:
        match = re.match(r"^(.*)\(([^)]+)\)$", token.strip())
        if not match:
            raise self.error(f"expected disp(reg), got {token!r}")
        disp, base = match.groups()
        return disp.strip(), _parse_reg(base, self.line)

    def _memory(self, op, operands, annotations) -> None:
        if len(operands) != 2:
            raise self.error(f"{op.name} needs 2 operands")
        ra = _parse_reg(operands[0], self.line)
        disp_text, rb = self._mem_operand(operands[1])
        kwargs = {}
        literal_sym = None
        for note in annotations:
            if note.startswith("literal"):
                literal_sym = disp_text
            elif note.startswith("gpdisp:"):
                kwargs["gpdisp_base"] = note.split(":", 1)[1]
            elif note == "gpdisp_pair":
                if self.pending_gpdisp is None:
                    raise self.error("gpdisp_pair without a pending gpdisp")
                kwargs["gpdisp_pair"] = self.pending_gpdisp
                self.pending_gpdisp = None
            elif note in ("lituse_base", "lituse_jsr"):
                kwargs["lituse"] = self._lituse(note, rb)
            else:
                raise self.error(f"unknown annotation !{note}")
        if literal_sym is not None:
            match = _SYMBOL_RE.match(literal_sym)
            if not match:
                raise self.error(f"bad literal symbol {literal_sym!r}")
            symbol, addend = match.groups()
            kwargs["literal"] = (symbol, int(addend or 0))
            disp = 0
        else:
            disp = _parse_int(disp_text or "0", self.line)
        index = self.asm.emit(Instruction.mem(op.name, ra, rb, disp), **kwargs)
        if "gpdisp_base" in kwargs:
            self.pending_gpdisp = index
        if "literal" in kwargs:
            self.last_literal_for_reg[ra] = index

    def _lituse(self, note: str, reg: int) -> tuple[int, LituseKind]:
        load = self.last_literal_for_reg.get(reg)
        if load is None:
            raise self.error(f"!{note}: no preceding literal load into r{reg}")
        kind = LituseKind.JSR if note.endswith("jsr") else LituseKind.BASE
        return (load, kind)

    def _jump(self, op, operands, annotations) -> None:
        if len(operands) != 2:
            raise self.error(f"{op.name} needs 2 operands")
        ra = _parse_reg(operands[0], self.line)
        target = operands[1].strip()
        if not (target.startswith("(") and target.endswith(")")):
            raise self.error(f"expected (reg), got {target!r}")
        rb = _parse_reg(target[1:-1], self.line)
        kwargs = {}
        for note in annotations:
            if note == "lituse_jsr":
                kwargs["lituse"] = self._lituse(note, rb)
            elif note.startswith("hint:"):
                kwargs["hint"] = note.split(":", 1)[1]
            elif note.startswith("jmptab:"):
                symbol, count = note.split(":", 1)[1].rsplit(",", 1)
                kwargs["jmptab"] = (symbol, int(count))
            else:
                raise self.error(f"unknown annotation !{note}")
        self.asm.emit(Instruction.jump(op.name, ra, rb), **kwargs)

    def _branch(self, op, operands, annotations) -> None:
        if len(operands) != 2:
            raise self.error(f"{op.name} needs 2 operands")
        ra = _parse_reg(operands[0], self.line)
        target = operands[1].strip()
        match = _SYMBOL_RE.match(target)
        if not match:
            raise self.error(f"bad branch target {target!r}")
        symbol, addend = match.groups()
        self.asm.emit(
            Instruction.branch(op.name, ra, 0), branch=(symbol, int(addend or 0))
        )

    def _operate(self, op, operands) -> None:
        if len(operands) != 3:
            raise self.error(f"{op.name} needs 3 operands")
        ra = _parse_reg(operands[0], self.line)
        rc = _parse_reg(operands[2], self.line)
        second = operands[1].strip()
        if second.lstrip("$").lower() in _REG_NAMES:
            self.asm.emit(
                Instruction.opr(op.name, ra, _parse_reg(second, self.line), rc)
            )
        else:
            value = _parse_int(second, self.line)
            if not OPERATE_LIT.holds(value):
                raise self.error(f"operate literal {value} out of range")
            self.asm.emit(Instruction.opr(op.name, ra, value, rc, lit=True))


def assemble_text(source: str, module_name: str = "asm.o") -> ObjectFile:
    """Assemble a text module into an object file."""
    return TextAssembler(module_name).assemble(source)
