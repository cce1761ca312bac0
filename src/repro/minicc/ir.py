"""Three-address intermediate representation.

The IR is a flat, per-function instruction list over virtual registers
(plain ints).  Named locals are *not* virtual registers: they are
entities accessed via ``LoadLocal``/``StoreLocal`` so the code generator
can decide their placement (callee-saved register or stack slot).

Invariant relied on by the code generator's temporary allocator: every
virtual register's live range is the linear interval from its first
definition to its last use, and no virtual register is live around a
loop back edge.  ``irgen`` produces IR with this shape, and the
optimizer preserves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Binary operators understood by the IR.
BIN_OPS = frozenset(
    [
        "add",
        "sub",
        "mul",
        "div",
        "rem",
        "and",
        "or",
        "xor",
        "sll",
        "srl",
        "sra",
        "s8add",  # a*8 + b, for array indexing
        "cmpeq",
        "cmpne",
        "cmplt",
        "cmple",
        "cmpult",
        "cmpule",
    ]
)

UN_OPS = frozenset(["neg", "not", "lognot"])

#: Builtins lowered to CALL_PAL instructions.
PAL_BUILTINS = {"__putint": "putint", "__putchar": "putchar", "__getticks": "getticks", "__halt": "halt"}


@dataclass(slots=True)
class Instr:
    line: int = 0


@dataclass(slots=True)
class Const(Instr):
    dst: int = 0
    value: int = 0


@dataclass(slots=True)
class Mov(Instr):
    dst: int = 0
    src: int = 0


@dataclass(slots=True)
class AddrGlobal(Instr):
    """dst := address of ``symbol + addend`` (variable or function)."""

    dst: int = 0
    symbol: str = ""
    addend: int = 0


@dataclass(slots=True)
class AddrLocal(Instr):
    """dst := address of a stack local (marks it address-taken)."""

    dst: int = 0
    local: int = 0


@dataclass(slots=True)
class LoadLocal(Instr):
    dst: int = 0
    local: int = 0


@dataclass(slots=True)
class StoreLocal(Instr):
    local: int = 0
    src: int = 0


@dataclass(slots=True)
class Load(Instr):
    """dst := mem[base + offset] (64-bit)."""

    dst: int = 0
    base: int = 0
    offset: int = 0


@dataclass(slots=True)
class Store(Instr):
    """mem[base + offset] := src."""

    src: int = 0
    base: int = 0
    offset: int = 0


@dataclass(slots=True)
class Un(Instr):
    op: str = ""
    dst: int = 0
    src: int = 0


@dataclass(slots=True)
class Bin(Instr):
    op: str = ""
    dst: int = 0
    a: int = 0
    b: int = 0


@dataclass(slots=True)
class BinImm(Instr):
    """Binary operation with a small immediate (operate-literal form)."""

    op: str = ""
    dst: int = 0
    a: int = 0
    imm: int = 0


@dataclass(slots=True)
class Call(Instr):
    """Direct call; ``dst`` is None for calls in void context."""

    dst: int | None = None
    callee: str = ""
    args: list[int] = field(default_factory=list)


@dataclass(slots=True)
class CallPtr(Instr):
    """Indirect call through a function pointer value."""

    dst: int | None = None
    func: int = 0
    args: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Pal(Instr):
    """OS builtin: putint/putchar/getticks/halt."""

    kind: str = ""
    dst: int | None = None
    arg: int | None = None


@dataclass(slots=True)
class Label(Instr):
    name: str = ""


@dataclass(slots=True)
class Jump(Instr):
    target: str = ""


@dataclass(slots=True)
class CJump(Instr):
    """Branch to ``if_true`` when cond != 0, else to ``if_false``.

    The code generator exploits fallthrough when the next label matches.
    """

    cond: int = 0
    if_true: str = ""
    if_false: str = ""


@dataclass(slots=True)
class JumpTable(Instr):
    """Computed jump: ``index`` is already normalized and bounds-checked
    to [0, len(labels))."""

    index: int = 0
    labels: list[str] = field(default_factory=list)


@dataclass(slots=True)
class Ret(Instr):
    src: int | None = None


@dataclass(slots=True)
class IRLocal:
    """A named local variable or stack array."""

    name: str
    size: int = 8  # bytes
    is_array: bool = False
    addr_taken: bool = False
    weight: float = 0.0  # use count, loop-depth weighted


@dataclass
class IRFunc:
    name: str
    params: list[str] = field(default_factory=list)
    locals: list[IRLocal] = field(default_factory=list)
    body: list[Instr] = field(default_factory=list)
    exported: bool = True
    next_vreg: int = 0
    next_label: int = 0

    def new_vreg(self) -> int:
        self.next_vreg += 1
        return self.next_vreg - 1

    def new_label(self, hint: str = "L") -> str:
        self.next_label += 1
        return f"{self.name}${hint}{self.next_label}"


@dataclass
class IRGlobal:
    """A module-level variable after semantic analysis.

    ``init`` entries are quadword values; a ``str`` entry names a symbol
    whose address fills that slot (emitted as a REFQUAD relocation —
    how vtables carry method addresses through the linker and OM).
    """

    name: str
    size: int = 8
    is_array: bool = False
    init: list[int | str] | None = None
    exported: bool = True


@dataclass
class IRModule:
    name: str
    globals: list[IRGlobal] = field(default_factory=list)
    functions: list[IRFunc] = field(default_factory=list)
    #: Declared byte sizes of every known data symbol (including
    #: externs) — used by the optimistic small-data mode (-G analog).
    global_sizes: dict[str, int] = field(default_factory=dict)


def _no_regs(instr) -> tuple[int, ...]:
    return ()


def _dst(instr) -> tuple[int, ...]:
    return (instr.dst,)


def _optional_dst(instr) -> tuple[int, ...]:
    return () if instr.dst is None else (instr.dst,)


def _src(instr) -> tuple[int, ...]:
    return (instr.src,)


def _optional_src(instr) -> tuple[int, ...]:
    return () if instr.src is None else (instr.src,)


#: Per IR type, the virtual registers an instruction defines.
_DEFS = {
    Const: _dst,
    Mov: _dst,
    AddrGlobal: _dst,
    AddrLocal: _dst,
    LoadLocal: _dst,
    StoreLocal: _no_regs,
    Load: _dst,
    Store: _no_regs,
    Un: _dst,
    Bin: _dst,
    BinImm: _dst,
    Call: _optional_dst,
    CallPtr: _optional_dst,
    Pal: _optional_dst,
    Label: _no_regs,
    Jump: _no_regs,
    CJump: _no_regs,
    JumpTable: _no_regs,
    Ret: _no_regs,
}

#: Per IR type, the virtual registers an instruction uses, in operand order.
_USES = {
    Const: _no_regs,
    Mov: _src,
    AddrGlobal: _no_regs,
    AddrLocal: _no_regs,
    LoadLocal: _no_regs,
    StoreLocal: _src,
    Load: lambda instr: (instr.base,),
    Store: lambda instr: (instr.src, instr.base),
    Un: _src,
    Bin: lambda instr: (instr.a, instr.b),
    BinImm: lambda instr: (instr.a,),
    Call: lambda instr: tuple(instr.args),
    CallPtr: lambda instr: (instr.func, *instr.args),
    Pal: lambda instr: () if instr.arg is None else (instr.arg,),
    Label: _no_regs,
    Jump: _no_regs,
    CJump: lambda instr: (instr.cond,),
    JumpTable: lambda instr: (instr.index,),
    Ret: _optional_src,
}


def defs_of(instr: Instr) -> tuple[int, ...]:
    """Virtual registers defined by ``instr``."""
    return _DEFS[type(instr)](instr)


def uses_of(instr: Instr) -> tuple[int, ...]:
    """Virtual registers used by ``instr``."""
    return _USES[type(instr)](instr)


def format_function(func: IRFunc) -> str:
    """Human-readable IR dump, for tests and debugging."""
    lines = [f"func {func.name}({', '.join(func.params)}):"]
    for instr in func.body:
        if isinstance(instr, Label):
            lines.append(f"{instr.name}:")
        else:
            lines.append(f"    {instr}")
    return "\n".join(lines)
