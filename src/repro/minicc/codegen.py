"""Code generation: IR to annotated machine code (the conservative model).

This back end emits exactly the address-calculation idioms the paper
describes for 64-bit targets:

* global variable and procedure addresses come from *address loads*
  ``ldq rX, slot(gp)`` marked with ``R_LITERAL``, and every instruction
  consuming the loaded address is marked with ``R_LITUSE``;
* procedures that need the GAT establish GP on entry from PV
  (``ldah gp/lda gp`` pair, ``R_GPDISP``) and re-establish it from RA
  after every call returns;
* direct calls load PV from the GAT and use the general ``jsr`` —
  except *local calls* (callee defined in this unit and either the unit
  is compiled in compile-all mode or the callee is ``static``), which
  use ``bsr`` past the callee's GP setup with no PV load and no GP
  reset.  This models the compile-time interprocedural optimization the
  paper's compile-all versions receive.

Register conventions: expression temporaries live in t0..t10 (t11 and
AT are reserved scratch), register-allocated locals in s0..s5, arguments
in a0..a5, results in v0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import PalFunc
from repro.isa.registers import Reg
from repro.minicc import ir
from repro.minicc.errors import CompileError
from repro.minicc.mcode import MInstr, MLabel, MProc
from repro.objfile.relocations import LituseKind

#: Registers usable for expression temporaries.
_T_POOL = (
    Reg.T0, Reg.T1, Reg.T2, Reg.T3, Reg.T4, Reg.T5,
    Reg.T6, Reg.T7, Reg.T8, Reg.T9, Reg.T10,
)
_SCRATCH1 = Reg.AT
_SCRATCH2 = Reg.T11
_S_POOL = (Reg.S0, Reg.S1, Reg.S2, Reg.S3, Reg.S4, Reg.S5)
_ARG_REGS = (Reg.A0, Reg.A1, Reg.A2, Reg.A3, Reg.A4, Reg.A5)

_BIN_TO_OP = {
    "add": "addq",
    "s8add": "s8addq",
    "sub": "subq",
    "mul": "mulq",
    "and": "and",
    "or": "bis",
    "xor": "xor",
    "sll": "sll",
    "srl": "srl",
    "sra": "sra",
    "cmpeq": "cmpeq",
    "cmplt": "cmplt",
    "cmple": "cmple",
    "cmpult": "cmpult",
    "cmpule": "cmpule",
}

_PAL_FUNC = {
    "halt": PalFunc.HALT,
    "putchar": PalFunc.PUTCHAR,
    "putint": PalFunc.PUTINT,
    "getticks": PalFunc.GETTICKS,
}

#: Library routines implementing integer division (the Alpha has no
#: divide instruction; division is a library call, as on the real AXP).
DIV_CALLS = {"div": "__divq", "rem": "__remq"}


@dataclass
class UnitInfo:
    """Whole-translation-unit facts the per-procedure codegen needs."""

    mode: str  # "each" or "all"
    funcs: dict[str, ir.IRFunc] = field(default_factory=dict)
    uses_gp: dict[str, bool] = field(default_factory=dict)
    postgp_targets: set[str] = field(default_factory=set)
    #: Optimistic small-data mode (-G analog): variables no larger than
    #: this are addressed GP-relative directly, gambling that the final
    #: layout keeps them within reach; the linker refuses to link when
    #: the gamble fails.  0 disables.
    small_data_threshold: int = 0
    global_sizes: dict[str, int] = field(default_factory=dict)

    def is_local_call(self, callee: str) -> bool:
        func = self.funcs.get(callee)
        if func is None:
            return False
        return self.mode == "all" or not func.exported

    def is_small_data(self, symbol: str) -> bool:
        if not self.small_data_threshold or symbol in self.funcs:
            return False
        size = self.global_sizes.get(symbol, 0)
        return 0 < size <= self.small_data_threshold


def analyze_unit(
    module: ir.IRModule, mode: str, small_data_threshold: int = 0
) -> UnitInfo:
    """Pre-scan the unit: GP usage per function and local-call targets."""
    info = UnitInfo(
        mode,
        {f.name: f for f in module.functions},
        small_data_threshold=small_data_threshold,
        global_sizes=dict(module.global_sizes),
    )
    for func in module.functions:
        info.uses_gp[func.name] = _function_uses_gp(func)
    for func in module.functions:
        for instr in func.body:
            kind = type(instr)
            callee = None
            if kind is ir.Call:
                callee = instr.callee
            elif kind is ir.Bin and instr.op in DIV_CALLS:
                callee = DIV_CALLS[instr.op]
            if callee and info.is_local_call(callee) and info.uses_gp.get(callee):
                info.postgp_targets.add(callee)
    return info


def _function_uses_gp(func: ir.IRFunc) -> bool:
    """A function needs GP iff it performs any GAT access."""
    for instr in func.body:
        kind = type(instr)
        if kind is ir.AddrGlobal or kind is ir.JumpTable or kind is ir.Call:
            return True
        if kind is ir.Bin and instr.op in DIV_CALLS:
            return True
    return False


@dataclass
class _JumpTableData:
    """A pending jump table to materialize in .data."""

    symbol: str
    proc: str
    labels: list[str]


class ProcCodegen:
    """Generates one procedure's :class:`MProc`."""

    def __init__(self, func: ir.IRFunc, unit: UnitInfo):
        self.func = func
        self.unit = unit
        self.items: list[MInstr | MLabel] = []
        self.jump_tables: list[_JumpTableData] = []
        self._ret_counter = 0
        self._jt_counter = 0

        self.uses_gp = unit.uses_gp[func.name]
        self.makes_calls = any(_is_call(instr) for instr in func.body)
        # PAL builtins read a0, so a0-resident parameter homes are unsafe.
        self.has_pal = any(type(instr) is ir.Pal for instr in func.body)

        # Virtual register bookkeeping.
        self.vreg_loc: dict[int, tuple[str, int]] = {}  # vreg -> ("reg", r) | ("spill", off)
        self.free_tregs: list[int] = list(reversed(_T_POOL))
        self.last_use: dict[int, int] = {}
        self.alias_ok: set[int] = set()  # indices of alias-safe LoadLocals
        self.spill_slot: dict[int, int] = {}  # vreg -> frame offset
        self.n_spill_slots = 0
        self.lit_load_of: dict[int, int] = {}  # vreg -> uid of its literal load
        self.lit_sym_of: dict[int, tuple[str, int]] = {}  # vreg -> (symbol, addend)
        # Literal loads whose value escapes into arithmetic or calls;
        # OM may convert but not nullify these (their uses cannot all be
        # rebased onto GP).
        self.escaped_uids: set[int] = set()

        self._assign_locals()

    # -- local variable placement ----------------------------------------------

    def _assign_locals(self) -> None:
        """Decide register vs. stack placement and lay out the frame."""
        func = self.func
        candidates = [
            (index, local)
            for index, local in enumerate(func.locals)
            if not local.is_array and not local.addr_taken
        ]
        candidates.sort(key=lambda pair: -pair[1].weight)
        self.local_reg: dict[int, int] = {}
        if not self.makes_calls and not self.has_pal:
            # Leaf procedure: parameters stay in their argument registers
            # (no move, no save), leaving the s-registers for hot locals.
            for index in range(len(func.params)):
                self.local_reg[index] = int(_ARG_REGS[index])
            candidates = [c for c in candidates if c[0] >= len(func.params)]
        spool = list(_S_POOL)
        for index, local in candidates:
            if index in self.local_reg:
                continue
            if not spool:
                break
            if local.weight <= 0 and index >= len(func.params):
                break
            self.local_reg[index] = int(spool.pop(0))
        self.sregs_used = sorted(
            reg for reg in set(self.local_reg.values()) if reg in _S_POOL
        )

        offset = 0
        self.ra_offset = None
        if self.makes_calls:
            self.ra_offset = offset
            offset += 8
        self.sreg_save_offset = {}
        for sreg in self.sregs_used:
            self.sreg_save_offset[sreg] = offset
            offset += 8
        self.local_offset: dict[int, int] = {}
        for index, local in enumerate(func.locals):
            if index in self.local_reg:
                continue
            self.local_offset[index] = offset
            offset += (local.size + 7) & ~7
        self.fixed_frame = offset

    @property
    def frame_size(self) -> int:
        total = self.fixed_frame + 8 * self.n_spill_slots
        return (total + 15) & ~15

    # -- emission helpers ---------------------------------------------------------

    def emit(self, instr: Instruction, **kwargs) -> MInstr:
        item = MInstr(instr, **kwargs)
        self.items.append(item)
        return item

    def emit_label(self, name: str, is_target: bool = True) -> None:
        self.items.append(MLabel(name, is_target))

    def _new_ret_label(self) -> str:
        self._ret_counter += 1
        return f"{self.func.name}$ret{self._ret_counter}"

    def error(self, message: str, line: int = 0) -> CompileError:
        return CompileError(message, self.func.name, line)

    # -- virtual register allocation ------------------------------------------------

    def _compute_liveness(self) -> None:
        body = self.func.body
        uses_of, defs_of = ir.uses_of, ir.defs_of
        last_use = self.last_use
        def_count: dict[int, int] = {}
        for index, instr in enumerate(body):
            for reg in uses_of(instr):
                last_use[reg] = index
            for reg in defs_of(instr):
                def_count[reg] = def_count.get(reg, 0) + 1
        # Multi-definition vregs (ternary merges) must never be spilled:
        # an eviction on one control-flow arm would leave the other arm's
        # value behind.  Keep them pinned in their register.
        self.pinned = {vreg for vreg, count in def_count.items() if count > 1}
        # Alias-safe LoadLocal detection: all uses happen before anything
        # that could change the underlying s-register or control flow.
        # Walking backward, ``barrier`` is the nearest later call or label
        # and ``next_store`` the nearest later store to each local.
        end = len(body)
        barrier = end
        next_store: dict[int, int] = {}
        for index in range(end - 1, -1, -1):
            instr = body[index]
            kind = type(instr)
            if kind is ir.LoadLocal:
                if instr.local in self.local_reg:
                    last = last_use.get(instr.dst, index)
                    if barrier > last and next_store.get(instr.local, end) > last:
                        self.alias_ok.add(index)
            elif kind is ir.StoreLocal:
                next_store[instr.local] = index
            elif kind is ir.Label or _is_call(instr):
                barrier = index

    def _alloc_treg(self, vreg: int) -> int:
        existing = self.vreg_loc.get(vreg)
        if existing is not None and existing[0] == "reg":
            return existing[1]
        if not self.free_tregs:
            self._evict_one()
        reg = self.free_tregs.pop()
        self.vreg_loc[vreg] = ("reg", reg)
        return reg

    def _evict_one(self) -> None:
        """Spill the in-register vreg with the farthest next use."""
        victim = None
        farthest = -1
        for vreg, (kind, reg) in self.vreg_loc.items():
            if kind != "reg" or reg not in _T_POOL or vreg in self.pinned:
                continue
            distance = self.last_use.get(vreg, 0)
            if distance > farthest:
                victim, farthest = vreg, distance
        if victim is None:  # pragma: no cover - pool exhaustion without temps
            raise self.error("temporary register pool exhausted")
        reg = self.vreg_loc[victim][1]
        slot = self._spill_slot_for(victim)
        self.emit(Instruction.mem("stq", reg, Reg.SP, slot))
        self.vreg_loc[victim] = ("spill", slot)
        self.free_tregs.append(reg)

    def _spill_slot_for(self, vreg: int) -> int:
        slot = self.spill_slot.get(vreg)
        if slot is None:
            slot = self.fixed_frame + 8 * self.n_spill_slots
            self.n_spill_slots += 1
            self.spill_slot[vreg] = slot
        return slot

    def _reg_of(self, vreg: int, index: int, scratch: int = _SCRATCH1) -> int:
        """Register currently holding ``vreg``, reloading spills."""
        loc = self.vreg_loc.get(vreg)
        if loc is None:
            raise self.error(f"use of undefined temporary v{vreg} at {index}")
        kind, value = loc
        if kind == "reg":
            return value
        self.emit(Instruction.mem("ldq", scratch, Reg.SP, value))
        return int(scratch)

    def _release(self, vreg: int, index: int) -> None:
        """Free ``vreg``'s register if this was its last use."""
        if self.last_use.get(vreg, -1) > index:
            return
        loc = self.vreg_loc.pop(vreg, None)
        if loc is not None and loc[0] == "reg" and loc[1] in _T_POOL:
            self.free_tregs.append(loc[1])
        self.lit_load_of.pop(vreg, None)
        self.lit_sym_of.pop(vreg, None)

    def _use_regs(self, vregs: list[int], index: int) -> list[int]:
        """Fetch operand registers (distinct scratch for two spills)."""
        scratches = [_SCRATCH1, _SCRATCH2]
        regs = []
        for vreg in vregs:
            loc = self.vreg_loc.get(vreg)
            if loc is not None and loc[0] == "spill":
                regs.append(self._reg_of(vreg, index, scratches.pop(0)))
            else:
                regs.append(self._reg_of(vreg, index))
        for vreg in vregs:
            self._release(vreg, index)
        return regs

    def _lituse_for(self, base_vreg: int) -> dict:
        """LITUSE annotation if ``base_vreg`` came from an address load."""
        uid = self.lit_load_of.get(base_vreg)
        if uid is None:
            return {}
        return {"lituse": (uid, LituseKind.BASE)}

    # -- prologue / epilogue --------------------------------------------------------

    def _emit_prologue(self) -> None:
        func = self.func
        if self.uses_gp:
            ldah = self.emit(
                Instruction.mem("ldah", Reg.GP, Reg.PV, 0), gpdisp_base=func.name
            )
            self.emit(
                Instruction.mem("lda", Reg.GP, Reg.GP, 0), gpdisp_pair=ldah.uid
            )
        if func.name in self.unit.postgp_targets:
            self.emit_label(f"{func.name}$postgp", is_target=True)
        self._sp_adjust = None
        if self.fixed_frame or self.makes_calls:
            self._sp_adjust = self.emit(Instruction.mem("lda", Reg.SP, Reg.SP, 0))
        if self.ra_offset is not None:
            self.emit(Instruction.mem("stq", Reg.RA, Reg.SP, self.ra_offset))
        for sreg in self.sregs_used:
            self.emit(Instruction.mem("stq", sreg, Reg.SP, self.sreg_save_offset[sreg]))
        for pindex in range(len(func.params)):
            areg = _ARG_REGS[pindex]
            home_reg = self.local_reg.get(pindex)
            if home_reg is not None:
                if home_reg != int(areg):
                    self.emit(Instruction.opr("bis", areg, areg, home_reg))
            else:
                self.emit(
                    Instruction.mem("stq", areg, Reg.SP, self.local_offset[pindex])
                )

    def _emit_epilogue(self) -> None:
        self.emit_label(f"{self.func.name}$exit", is_target=True)
        if self.ra_offset is not None:
            self.emit(Instruction.mem("ldq", Reg.RA, Reg.SP, self.ra_offset))
        for sreg in self.sregs_used:
            self.emit(Instruction.mem("ldq", sreg, Reg.SP, self.sreg_save_offset[sreg]))
        if self._sp_adjust is not None:
            # Patched with the frame size once spilling has settled it.
            self._sp_restore = self.emit(Instruction.mem("lda", Reg.SP, Reg.SP, 0))
        self.emit(Instruction.jump("ret", Reg.ZERO, Reg.RA, 1))

    def _patch_frame(self) -> None:
        if self._sp_adjust is None:
            return
        frame = self.frame_size
        self._sp_adjust.instr.disp = -frame
        self._sp_restore.instr.disp = frame

    # -- main loop --------------------------------------------------------------------

    def generate(self) -> MProc:
        self._compute_liveness()
        self.emit_label(self.func.name, is_target=False)
        self._emit_prologue()
        generators = self._GENERATORS
        for index, instr in enumerate(self.func.body):
            if self.lit_load_of:
                self._track_escapes(instr)
            generator = generators.get(type(instr))
            if generator is None:  # pragma: no cover
                raise self.error(f"unhandled IR {type(instr).__name__}", instr.line)
            generator(self, instr, index)
        self._emit_epilogue()
        self._patch_frame()
        if self.escaped_uids:
            for item in self.items:
                if item.__class__ is MInstr and item.uid in self.escaped_uids:
                    item.lit_escaped = True
        proc = MProc(
            self.func.name,
            self.items,
            exported=self.func.exported,
            uses_gp=self.uses_gp,
            frame_size=self.frame_size,
        )
        return proc

    def _track_escapes(self, instr: ir.Instr) -> None:
        """Record address loads whose value is consumed by anything other
        than the base register of a load/store."""
        kind = type(instr)
        base = instr.base if kind is ir.Load or kind is ir.Store else None
        for vreg in ir.uses_of(instr):
            if vreg != base:
                uid = self.lit_load_of.get(vreg)
                if uid is not None:
                    self.escaped_uids.add(uid)

    # -- individual constructs -----------------------------------------------------

    def _gen_const(self, instr: ir.Const, index: int) -> None:
        dst = self._alloc_treg(instr.dst)
        self._materialize(dst, instr.value)

    def _gen_mov(self, instr: ir.Mov, index: int) -> None:
        (src,) = self._use_regs([instr.src], index)
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.opr("bis", src, src, dst))

    def _gen_addr_global(self, instr: ir.AddrGlobal, index: int) -> None:
        dst = self._alloc_treg(instr.dst)
        if self.unit.is_small_data(instr.symbol):
            # Optimistic small-data mode: compute the address directly
            # off GP, assuming the final layout keeps the symbol within
            # a 16-bit displacement.
            self.emit(
                Instruction.mem("lda", dst, Reg.GP, 0),
                gprel=("gprel16", instr.symbol, instr.addend, 0),
            )
        else:
            item = self.emit(
                Instruction.mem("ldq", dst, Reg.GP, 0),
                literal=(instr.symbol, instr.addend),
            )
            self.lit_load_of[instr.dst] = item.uid
            self.lit_sym_of[instr.dst] = (instr.symbol, instr.addend)

    def _gen_addr_local(self, instr: ir.AddrLocal, index: int) -> None:
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.mem("lda", dst, Reg.SP, self.local_offset[instr.local]))

    def _gen_load(self, instr: ir.Load, index: int) -> None:
        lituse = self._lituse_for(instr.base)
        (base,) = self._use_regs([instr.base], index)
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.mem("ldq", dst, base, instr.offset), **lituse)

    def _gen_store(self, instr: ir.Store, index: int) -> None:
        lituse = self._lituse_for(instr.base)
        src, base = self._use_regs([instr.src, instr.base], index)
        self.emit(Instruction.mem("stq", src, base, instr.offset), **lituse)

    def _gen_bin_imm(self, instr: ir.BinImm, index: int) -> None:
        (a,) = self._use_regs([instr.a], index)
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.opr(_BIN_TO_OP[instr.op], a, instr.imm, dst, lit=True))

    def _gen_label(self, instr: ir.Label, index: int) -> None:
        self.emit_label(instr.name, is_target=True)

    def _gen_jump(self, instr: ir.Jump, index: int) -> None:
        self.emit(Instruction.branch("br", Reg.ZERO, 0), branch=(instr.target, 0))

    def _gen_ret(self, instr: ir.Ret, index: int) -> None:
        if instr.src is not None:
            (src,) = self._use_regs([instr.src], index)
            self.emit(Instruction.opr("bis", src, src, Reg.V0))
        if index != len(self.func.body) - 1:  # the last instruction falls to exit
            self.emit(
                Instruction.branch("br", Reg.ZERO, 0),
                branch=(f"{self.func.name}$exit", 0),
            )

    def _materialize(self, dst: int, value: int) -> None:
        """Build an arbitrary 64-bit constant in ``dst``.

        Constants are assembled 16 bits at a time: ``value`` splits into
        a sign-adjusted low half and an upper part with the low 16 bits
        clear, so ``upper<<16 + lo == value`` exactly; the upper part
        recurses (at most three levels for a 64-bit value).
        """
        if -32768 <= value <= 32767:
            self.emit(Instruction.mem("lda", dst, Reg.ZERO, value))
            return
        low = ((value & 0xFFFF) ^ 0x8000) - 0x8000
        upper = (value - low) >> 16
        if -32768 <= upper <= 32767:
            self.emit(Instruction.mem("ldah", dst, Reg.ZERO, upper))
            if low:
                self.emit(Instruction.mem("lda", dst, dst, low))
            return
        self._materialize(dst, upper)
        self.emit(Instruction.opr("sll", dst, 16, dst, lit=True))
        if low:
            self.emit(Instruction.mem("lda", dst, dst, low))

    def _gen_load_local(self, instr: ir.LoadLocal, index: int) -> None:
        sreg = self.local_reg.get(instr.local)
        if sreg is not None:
            if index in self.alias_ok:
                self.vreg_loc[instr.dst] = ("reg", sreg)
                return
            dst = self._alloc_treg(instr.dst)
            self.emit(Instruction.opr("bis", sreg, sreg, dst))
            return
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.mem("ldq", dst, Reg.SP, self.local_offset[instr.local]))

    def _gen_store_local(self, instr: ir.StoreLocal, index: int) -> None:
        (src,) = self._use_regs([instr.src], index)
        sreg = self.local_reg.get(instr.local)
        if sreg is not None:
            self.emit(Instruction.opr("bis", src, src, sreg))
        else:
            self.emit(
                Instruction.mem("stq", src, Reg.SP, self.local_offset[instr.local])
            )

    def _gen_un(self, instr: ir.Un, index: int) -> None:
        (src,) = self._use_regs([instr.src], index)
        dst = self._alloc_treg(instr.dst)
        if instr.op == "neg":
            self.emit(Instruction.opr("subq", Reg.ZERO, src, dst))
        elif instr.op == "not":
            self.emit(Instruction.opr("ornot", Reg.ZERO, src, dst))
        else:  # lognot
            self.emit(Instruction.opr("cmpeq", src, 0, dst, lit=True))

    def _gen_bin(self, instr: ir.Bin, index: int) -> None:
        if instr.op in DIV_CALLS:
            self._gen_call(DIV_CALLS[instr.op], [instr.a, instr.b], instr.dst, index)
            return
        a, b = self._use_regs([instr.a, instr.b], index)
        dst = self._alloc_treg(instr.dst)
        self.emit(Instruction.opr(_BIN_TO_OP[instr.op], a, b, dst))

    def _gen_cjump(self, instr: ir.CJump, index: int) -> None:
        (cond,) = self._use_regs([instr.cond], index)
        self.emit(
            Instruction.branch("bne", cond, 0), branch=(instr.if_true, 0)
        )
        if not self._label_is_next(instr.if_false, index):
            self.emit(
                Instruction.branch("br", Reg.ZERO, 0), branch=(instr.if_false, 0)
            )

    def _label_is_next(self, label: str, index: int) -> bool:
        """Whether ``label`` is among the labels right after ``index``."""
        body = self.func.body
        for position in range(index + 1, len(body)):
            probe = body[position]
            if type(probe) is not ir.Label:
                return False
            if probe.name == label:
                return True
        return False

    def _gen_jump_table(self, instr: ir.JumpTable, index: int) -> None:
        self._jt_counter += 1
        table_symbol = f"{self.func.name}$jt{self._jt_counter}"
        self.jump_tables.append(
            _JumpTableData(table_symbol, self.func.name, list(instr.labels))
        )
        (idx,) = self._use_regs([instr.index], index)
        load = self.emit(
            Instruction.mem("ldq", _SCRATCH1, Reg.GP, 0), literal=(table_symbol, 0)
        )
        self.escaped_uids.add(load.uid)  # consumed by s8addq, not rebasable
        self.emit(
            Instruction.opr("s8addq", idx, _SCRATCH1, _SCRATCH1),
            lituse=(load.uid, LituseKind.BASE),
        )
        self.emit(Instruction.mem("ldq", _SCRATCH1, _SCRATCH1, 0))
        self.emit(
            Instruction.jump("jmp", Reg.ZERO, _SCRATCH1),
            jmptab=(table_symbol, len(instr.labels)),
        )

    # -- calls ------------------------------------------------------------------------

    def _live_across(self, index: int) -> list[int]:
        """Vregs in t-registers that must survive position ``index``."""
        return [
            vreg
            for vreg, (kind, reg) in self.vreg_loc.items()
            if kind == "reg" and reg in _T_POOL and self.last_use.get(vreg, -1) > index
        ]

    def _save_live_temps(self, index: int) -> list[tuple[int, int, int]]:
        # Note for link-time analysis: these saves/restores may move a
        # literal-loaded address through a spill slot.  That is safe for
        # OM's nullification: every *addressing* use of the value is
        # lituse-marked and gets rebased onto GP, leaving the spill
        # round-trip to shuffle a dead register.
        saved = []
        for vreg in self._live_across(index):
            reg = self.vreg_loc[vreg][1]
            slot = self._spill_slot_for(vreg)
            self.emit(Instruction.mem("stq", reg, Reg.SP, slot))
            saved.append((vreg, reg, slot))
        return saved

    def _restore_live_temps(self, saved: list[tuple[int, int, int]]) -> None:
        for __, reg, slot in saved:
            self.emit(Instruction.mem("ldq", reg, Reg.SP, slot))

    def _move_args(self, args: list[int], index: int) -> None:
        for pos, vreg in enumerate(args):
            loc = self.vreg_loc.get(vreg)
            if loc is None:
                raise self.error(f"call argument v{vreg} undefined")
            kind, value = loc
            target = _ARG_REGS[pos]
            if kind == "spill":
                self.emit(Instruction.mem("ldq", target, Reg.SP, value))
            elif value != int(target):
                self.emit(Instruction.opr("bis", value, value, target))
        for vreg in args:
            self._release(vreg, index)

    def _gen_call_instr(self, instr: ir.Call, index: int) -> None:
        self._gen_call(instr.callee, instr.args, instr.dst, index)

    def _gen_call(
        self, callee: str, args: list[int], dst: int | None, index: int
    ) -> None:
        local = self.unit.is_local_call(callee)
        saved = self._save_live_temps(index)
        self._move_args(args, index)
        if local:
            target = (
                f"{callee}$postgp" if self.unit.uses_gp.get(callee) else callee
            )
            self.emit(Instruction.branch("bsr", Reg.RA, 0), branch=(target, 0))
        else:
            load = self.emit(
                Instruction.mem("ldq", Reg.PV, Reg.GP, 0), literal=(callee, 0)
            )
            self.emit(
                Instruction.jump("jsr", Reg.RA, Reg.PV),
                lituse=(load.uid, LituseKind.JSR),
                hint=callee,
            )
            self._emit_gp_reset()
        self._finish_call(dst, saved)

    def _gen_call_ptr(self, instr: ir.CallPtr, index: int) -> None:
        saved = self._save_live_temps(index)
        func_loc = self.vreg_loc.get(instr.func)
        if func_loc is None:
            raise self.error(f"indirect call target v{instr.func} undefined")
        kind, value = func_loc
        if kind == "spill":
            self.emit(Instruction.mem("ldq", Reg.PV, Reg.SP, value))
        else:
            self.emit(Instruction.opr("bis", value, value, Reg.PV))
        self._release(instr.func, index)
        self._move_args(instr.args, index)
        self.emit(Instruction.jump("jsr", Reg.RA, Reg.PV))
        if self.uses_gp:
            self._emit_gp_reset()
        self._finish_call(instr.dst, saved)

    def _emit_gp_reset(self) -> None:
        label = self._new_ret_label()
        self.emit_label(label, is_target=False)
        ldah = self.emit(
            Instruction.mem("ldah", Reg.GP, Reg.RA, 0), gpdisp_base=label
        )
        self.emit(Instruction.mem("lda", Reg.GP, Reg.GP, 0), gpdisp_pair=ldah.uid)

    def _finish_call(self, dst: int | None, saved: list[tuple[int, int, int]]) -> None:
        self._restore_live_temps(saved)
        if dst is not None:
            reg = self._alloc_treg(dst)
            self.emit(Instruction.opr("bis", Reg.V0, Reg.V0, reg))

    def _gen_pal(self, instr: ir.Pal, index: int) -> None:
        if instr.arg is not None:
            (src,) = self._use_regs([instr.arg], index)
            if src != Reg.A0:
                self.emit(Instruction.opr("bis", src, src, Reg.A0))
        self.emit(Instruction.pal(int(_PAL_FUNC[instr.kind])))
        if instr.dst is not None:
            reg = self._alloc_treg(instr.dst)
            self.emit(Instruction.opr("bis", Reg.V0, Reg.V0, reg))

    #: Per IR type, the method that generates its code.
    _GENERATORS = {
        ir.Const: _gen_const,
        ir.Mov: _gen_mov,
        ir.AddrGlobal: _gen_addr_global,
        ir.AddrLocal: _gen_addr_local,
        ir.LoadLocal: _gen_load_local,
        ir.StoreLocal: _gen_store_local,
        ir.Load: _gen_load,
        ir.Store: _gen_store,
        ir.Un: _gen_un,
        ir.Bin: _gen_bin,
        ir.BinImm: _gen_bin_imm,
        ir.Call: _gen_call_instr,
        ir.CallPtr: _gen_call_ptr,
        ir.Pal: _gen_pal,
        ir.Label: _gen_label,
        ir.Jump: _gen_jump,
        ir.CJump: _gen_cjump,
        ir.JumpTable: _gen_jump_table,
        ir.Ret: _gen_ret,
    }


def _is_call(instr: ir.Instr) -> bool:
    """Whether ``instr`` compiles to a call (division is a library call)."""
    kind = type(instr)
    return (
        kind is ir.Call
        or kind is ir.CallPtr
        or (kind is ir.Bin and instr.op in DIV_CALLS)
    )
