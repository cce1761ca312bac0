"""Functional and timing simulation of the AXP subset.

The executable's text is pre-decoded once into flat operation tuples;
the interpreter loop dispatches on a small integer kind.  Two loops are
provided: a plain functional one (used by correctness tests) and a timed
one that additionally models the paper's performance terms:

* in-order dual issue (one integer op may pair with one memory/control
  op — see :mod:`repro.isa.timing`);
* load-use and multiply latencies via per-register ready times;
* direct-mapped split 8KB I/D caches with a fixed miss penalty;
* a one-cycle bubble for taken branches.

The timed loop takes one dispatch per word: one branch per op kind,
tested in order of dynamic frequency, computes the word's issue cycle
and executes it.  Its ``ldq``/``stq`` read and write aligned data and
stack quads through the 8-byte views the JIT uses too
(:meth:`Machine._quad_views`) and hand every other address to the
bounds-checked helpers, so every value and error is the helpers'.  It
probes the I-cache only when a fetch enters a new line (judged by
address), follows a taken branch or starts a loop call: only
instruction fetches touch the tags, so every other fetch hits.
:func:`_operate` and :func:`_branch_taken` stay the interpreter's one
transcription of operate and branch semantics.

The timed loop is also the source of the ``getticks`` PAL call's value.

Both loops are resumable: they run from any word index on a shared
state vector and stop at a given instruction count, so the JIT backend
hands them every word its translated regions do not run.  A run makes
its quad views once and passes them to every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import PalFunc
from repro.isa.timing import (
    CACHE_LINE,
    CACHE_MISS_PENALTY,
    DCACHE_BYTES,
    ICACHE_BYTES,
    LOAD_LATENCY,
    OP_FACTS,
    TAKEN_BRANCH_PENALTY,
)
from repro.linker.executable import Executable, STACK_BYTES, STACK_TOP

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: Index a loop returns when the program halts.  Far below any
#: reachable branch target (branch displacements are 21-bit), so it
#: cannot collide with the negative-index wraparound of list indexing.
HALT = -(1 << 40)

# Cache geometry: line shift for both caches, line counts per cache.
_ILINE_SHIFT = CACHE_LINE.bit_length() - 1
_IN_LINES = ICACHE_BYTES // CACHE_LINE
_DN_LINES = DCACHE_BYTES // CACHE_LINE

# The state vector a run carries between loop calls (and JIT regions):
# [count, limit, cycle, slot_open, slot_class, imisses, dmisses,
#  duals, prev_cycle].  The functional loop uses only the first two.

# Operation kind codes for the pre-decoded stream.
(
    K_LDA, K_LDAH, K_LDQ, K_STQ, K_LDL, K_STL, K_LDBU, K_STB, K_LDQ_U,
    K_OP_RR, K_OP_RL, K_BR, K_BSR, K_CBR, K_JSR, K_RET, K_JMP, K_PAL,
) = range(18)

# Operate-function codes for K_OP_*: index into _OPERATE handlers.
_OPERATE_NAMES = [
    "addq", "subq", "mulq", "s4addq", "s8addq", "addl", "subl", "mull",
    "umulh", "cmpeq", "cmplt", "cmple", "cmpult", "cmpule", "and", "bic",
    "bis", "ornot", "xor", "eqv", "sll", "srl", "sra", "cmoveq", "cmovne",
    "cmovlt", "cmovge", "cmovle", "cmovgt",
]
_OPERATE_CODE = {name: i for i, name in enumerate(_OPERATE_NAMES)}
#: Result latency of each operate function code, from the schedulers'
#: table, so the timing model and the schedulers cannot disagree.
_OPERATE_LATENCY = tuple(OP_FACTS[name].latency for name in _OPERATE_NAMES)

_COND_BRANCH_NAMES = {
    "beq": 0, "bne": 1, "blt": 2, "ble": 3, "bge": 4, "bgt": 5,
    "blbc": 6, "blbs": 7,
}


class MachineError(Exception):
    """Bad memory access, undecodable instruction, or runaway program."""


class ExecutionBudgetExceeded(MachineError):
    """The run overran its ``max_instructions`` step budget.

    A :class:`MachineError` subclass (existing handlers keep working),
    but distinguishable so a caller that *bounded* a run on purpose —
    the toolchain daemon capping a ``run`` request, the fuzz oracle's
    termination check — can tell "looping program" apart from "broken
    program".
    """

    def __init__(self, limit: int):
        super().__init__(f"instruction limit {limit} exceeded")
        self.limit = limit


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    output: str
    instructions: int
    cycles: int
    icache_misses: int = 0
    dcache_misses: int = 0
    dual_issues: int = 0
    halted: bool = True

    @property
    def cpi(self) -> float:
        return self.cycles / max(self.instructions, 1)

    @classmethod
    def from_state(cls, st: list, out: list[str], timed: bool) -> "RunResult":
        """The result of a halted run, read off its state vector."""
        if timed:
            return cls(
                "".join(out),
                st[0],
                cycles=st[2],
                icache_misses=st[5],
                dcache_misses=st[6],
                dual_issues=st[7],
            )
        return cls("".join(out), st[0], cycles=st[0])


@dataclass
class Machine:
    """A loaded program instance ready to run."""

    executable: Executable
    max_instructions: int = 200_000_000

    _decoded: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        exe = self.executable
        self.text_base = exe.segments[0].vaddr
        self.text = bytes(exe.segments[0].data)
        data_seg = exe.segments[1]
        self.data_base = data_seg.vaddr
        data_end = data_seg.end
        for vaddr, size in exe.zeroed:
            data_end = max(data_end, vaddr + size)
        # The image is padded to whole quads: a quad that starts below
        # the limit reads and writes all 8 bytes, and the image never
        # resizes under the quad views.
        self.data = bytearray(-(-(data_end - self.data_base) // 8) * 8)
        self.data[: len(data_seg.data)] = data_seg.data
        self.data_limit = data_end
        self.stack_base = STACK_TOP - STACK_BYTES
        self.stack = bytearray(STACK_BYTES)
        self._decoded = _predecode(self.text, self.text_base)

    # -- memory helpers (shared by both loops) ---------------------------------

    def _quad_views(self) -> tuple[memoryview, memoryview]:
        """8-byte views of the data and stack images, for the ``ldq`` and
        ``stq`` fast paths of the timed loop and the JIT.

        A view index is an offset ``>> 3``, so both views are empty
        (every access takes the helpers) unless both bases are 8-aligned.
        The caller releases them when its run ends.
        """
        if self.data_base & 7 or self.stack_base & 7:
            empty = memoryview(b"").cast("Q")
            return empty, empty
        return (memoryview(self.data).cast("Q"),
                memoryview(self.stack).cast("Q"))

    def _load_q(self, addr: int) -> int:
        if addr & 7:
            raise MachineError(f"unaligned load at {addr:#x}")
        if self.data_base <= addr < self.data_limit:
            off = addr - self.data_base
            return int.from_bytes(self.data[off : off + 8], "little")
        if self.stack_base <= addr < STACK_TOP:
            off = addr - self.stack_base
            return int.from_bytes(self.stack[off : off + 8], "little")
        if self.text_base <= addr < self.text_base + len(self.text):
            off = addr - self.text_base
            return int.from_bytes(self.text[off : off + 8], "little")
        raise MachineError(f"load from unmapped address {addr:#x}")

    def _store_q(self, addr: int, value: int) -> None:
        if addr & 7:
            raise MachineError(f"unaligned store at {addr:#x}")
        value &= _MASK
        if self.data_base <= addr < self.data_limit:
            off = addr - self.data_base
            self.data[off : off + 8] = value.to_bytes(8, "little")
            return
        if self.stack_base <= addr < STACK_TOP:
            off = addr - self.stack_base
            self.stack[off : off + 8] = value.to_bytes(8, "little")
            return
        raise MachineError(f"store to unmapped address {addr:#x}")

    def _load_byte(self, addr: int) -> int:
        quad = self._load_q(addr & ~7)
        return (quad >> ((addr & 7) * 8)) & 0xFF

    def _store_byte(self, addr: int, value: int) -> None:
        shift = (addr & 7) * 8
        quad = self._load_q(addr & ~7)
        quad = (quad & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self._store_q(addr & ~7, quad)

    def _store_long(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MachineError(f"unaligned longword store at {addr:#x}")
        shift = (addr & 4) * 8
        quad = self._load_q(addr & ~7)
        quad = (quad & ~(0xFFFFFFFF << shift)) | ((value & 0xFFFFFFFF) << shift)
        self._store_q(addr & ~7, quad)

    # -- running ----------------------------------------------------------------

    def run(self, timed: bool = True) -> RunResult:
        if timed:
            return self._run_timed()
        return self._run_functional()

    # Both loops optionally take per-text-word attribution arrays (one
    # slot per instruction word, index-aligned with ``self._decoded``):
    # ``counts`` accumulates executed-instruction counts; the timed loop
    # additionally fills ``cycle_counts`` so that the per-word cycle
    # deltas sum exactly to the run's total cycles.  The profiler layers
    # on these hooks instead of duplicating the interpreter — profiled
    # runs and plain runs are the same loop and must agree exactly.

    def _initial_state(self) -> tuple[list[int], list, int]:
        """Registers, state vector and entry word index of a fresh run."""
        regs = [0] * 32
        regs[27] = self.executable.entry  # PV
        regs[26] = self.executable.entry  # RA (returning to entry halts anyway)
        regs[30] = STACK_TOP - 512  # SP, with a red zone
        st = [0, self.max_instructions, 0, False, 0, 0, 0, 0, 0]
        return regs, st, (self.executable.entry - self.text_base) >> 2

    def _run_functional(self, counts: list[int] | None = None) -> RunResult:
        regs, st, index = self._initial_state()
        out: list[str] = []
        self._loop_functional(regs, st, out, index, counts, None, None, None,
                              None, st[1], None)
        return RunResult.from_state(st, out, timed=False)

    def _run_timed(
        self,
        counts: list[int] | None = None,
        cycle_counts: list[int] | None = None,
    ) -> RunResult:
        regs, st, index = self._initial_state()
        out: list[str] = []
        qd, qs = views = self._quad_views()
        try:
            self._loop_timed(regs, st, out, index, counts, cycle_counts,
                             [0] * 32, [-1] * _IN_LINES, [-1] * _DN_LINES,
                             st[1], views)
        finally:
            qd.release()
            qs.release()
        return RunResult.from_state(st, out, timed=True)

    # The loops run from word ``index`` until the program halts, and
    # then return HALT, or until the instruction count reaches ``stop``
    # (at most the budget ``st[1]``), and then return the next word's
    # index.  A word that would carry the count past ``stop`` raises
    # ExecutionBudgetExceeded when ``stop`` is the budget, and is left
    # unexecuted otherwise.  Either way the loop's locals are written
    # back to ``st`` before it returns.  The two loops share one
    # signature; the functional loop ignores the timing arguments:
    # per-word cycle attribution, per-register result-ready cycles, the
    # I- and D-cache tags and the quad views (``views``), which the
    # caller makes once per run and releases when the run ends.

    def _loop_functional(self, regs, st, out, index, counts, cycle_counts,
                         ready, itags, dtags, stop, views) -> int:
        decoded = self._decoded
        text_base = self.text_base
        load_q = self._load_q
        store_q = self._store_q
        count = st[0]
        counting = counts is not None

        while True:
            op = decoded[index]
            kind = op[0]
            count += 1
            if counting:
                counts[index] += 1
            if count > stop:
                if stop >= st[1]:
                    raise ExecutionBudgetExceeded(st[1])
                count -= 1
                if counting:
                    counts[index] -= 1
                break
            if kind == K_LDQ:
                __, ra, rb, disp = op
                regs[ra] = load_q((regs[rb] + disp) & _MASK)
            elif kind == K_OP_RR or kind == K_OP_RL:
                __, fn, ra, rb, rc = op
                b = rb if kind == K_OP_RL else regs[rb]
                regs[rc] = _operate(fn, regs[ra], b, regs[rc])
            elif kind == K_LDA:
                __, ra, rb, disp = op
                regs[ra] = (regs[rb] + disp) & _MASK
            elif kind == K_LDAH:
                __, ra, rb, disp = op
                regs[ra] = (regs[rb] + (disp << 16)) & _MASK
            elif kind == K_STQ:
                __, ra, rb, disp = op
                store_q((regs[rb] + disp) & _MASK, regs[ra])
            elif kind == K_CBR:
                __, cond, ra, target = op
                if _branch_taken(cond, regs[ra]):
                    regs[31] = 0
                    index = target
                    continue
            elif kind == K_BR or kind == K_BSR:
                __, ra, target = op
                regs[ra] = text_base + 4 * (index + 1)
                regs[31] = 0
                index = target
                continue
            elif kind == K_JSR or kind == K_JMP or kind == K_RET:
                __, ra, rb = op
                dest = regs[rb] & ~3
                regs[ra] = text_base + 4 * (index + 1)
                regs[31] = 0
                index = (dest - text_base) >> 2
                if not 0 <= index < len(decoded):
                    raise MachineError(f"jump to unmapped address {dest:#x}")
                continue
            elif kind == K_PAL:
                func = op[1]
                if func == PalFunc.HALT:
                    index = HALT
                    break
                if func == PalFunc.PUTINT:
                    value = regs[16]
                    out.append(str(value - (1 << 64) if value >> 63 else value))
                    out.append("\n")
                elif func == PalFunc.PUTCHAR:
                    out.append(chr(regs[16] & 0xFF))
                elif func == PalFunc.GETTICKS:
                    regs[0] = count
                else:
                    raise MachineError(f"unknown PAL function {func:#x}")
            elif kind == K_LDL:
                __, ra, rb, disp = op
                value = load_q((regs[rb] + disp) & ~7 & _MASK)
                shift = ((regs[rb] + disp) & 4) * 8
                word = (value >> shift) & 0xFFFFFFFF
                regs[ra] = word | (~0xFFFFFFFF & _MASK if word >> 31 else 0)
            elif kind == K_LDQ_U:
                __, ra, rb, disp = op
                regs[ra] = load_q((regs[rb] + disp) & ~7 & _MASK)
            elif kind == K_LDBU:
                __, ra, rb, disp = op
                regs[ra] = self._load_byte((regs[rb] + disp) & _MASK)
            elif kind == K_STB:
                __, ra, rb, disp = op
                self._store_byte((regs[rb] + disp) & _MASK, regs[ra])
            elif kind == K_STL:
                __, ra, rb, disp = op
                self._store_long((regs[rb] + disp) & _MASK, regs[ra])
            else:
                raise MachineError(f"unhandled op kind {kind}")
            regs[31] = 0
            index += 1

        st[0] = count
        return index

    def _loop_timed(self, regs, st, out, index, counts, cycle_counts,
                    ready, itags, dtags, stop, views) -> int:
        decoded = self._decoded
        text_base = self.text_base
        load_q = self._load_q
        store_q = self._store_q
        operate = _operate
        branch_taken = _branch_taken
        op_latency = _OPERATE_LATENCY
        count = st[0]
        counting = counts is not None
        cycle_counting = cycle_counts is not None

        # Timing state.  `slot_open`: the second issue slot of `cycle` is
        # available; `slot_class`: class of the instruction in the first
        # (2 integer, 1 memory, 3 control).  A word pairs into the open
        # slot when its operands are ready by `cycle` and its class
        # differs; otherwise it opens the next cycle its operands allow.
        cycle, slot_open, slot_class, imisses, dmisses, duals, prev_cycle = st[2:]
        iline_shift = _ILINE_SHIFT
        imask = _IN_LINES - 1
        dmask = _DN_LINES - 1
        miss_penalty = CACHE_MISS_PENALTY
        load_hit = LOAD_LATENCY
        load_miss = LOAD_LATENCY + CACHE_MISS_PENALTY
        taken_penalty = TAKEN_BRANCH_PENALTY
        mask = _MASK
        k_op_rr, k_op_rl, k_lda, k_cbr, k_ldq, k_stq, k_ldah, k_br, k_bsr = (
            K_OP_RR, K_OP_RL, K_LDA, K_CBR, K_LDQ, K_STQ, K_LDAH, K_BR, K_BSR)
        k_jsr, k_ret, k_jmp, k_pal = K_JSR, K_RET, K_JMP, K_PAL

        # Only instruction fetches touch `itags`, so a word fetched right
        # after another of its line hits.  The loop probes when a fetch
        # reaches `line_end`: the first word of the next line, judged by
        # address since the text base need not be line-aligned, or the
        # first word of the call or of a taken branch's target.
        line_end = index
        qd, qs = views
        data_base = self.data_base
        data_bytes = qd.nbytes
        stack_base = self.stack_base
        stack_bytes = qs.nbytes
        while True:
            op = decoded[index]
            count += 1
            if counting:
                counts[index] += 1
            if count > stop:
                if stop >= st[1]:
                    raise ExecutionBudgetExceeded(st[1])
                count -= 1
                if counting:
                    counts[index] -= 1
                break
            if index == line_end:
                line = (text_base + 4 * index) >> iline_shift
                if itags[line & imask] != line:
                    itags[line & imask] = line
                    imisses += 1
                    cycle += miss_penalty
                    slot_open = False
                line_end = (((line + 1) << iline_shift) - text_base) >> 2

            # One branch per kind, most frequent first: each computes
            # the word's issue cycle, then executes it.
            kind = op[0]
            if kind == k_op_rr:
                __, fn, ra, rb, rc = op
                opr = ready[ra]
                if ready[rb] > opr:
                    opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 2:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 2
                regs[rc] = operate(fn, regs[ra], regs[rb], regs[rc])
                ready[rc] = issue + op_latency[fn]
                regs[31] = ready[31] = 0
            elif kind == k_op_rl:
                __, fn, ra, lit, rc = op
                opr = ready[ra]
                if slot_open and opr <= cycle and slot_class != 2:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 2
                regs[rc] = operate(fn, regs[ra], lit, regs[rc])
                ready[rc] = issue + op_latency[fn]
                regs[31] = ready[31] = 0
            elif kind == k_lda:
                __, ra, rb, disp = op
                opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 1:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 1
                regs[ra] = (regs[rb] + disp) & mask
                ready[ra] = issue + 1
                regs[31] = ready[31] = 0
            elif kind == k_cbr:
                __, cond, ra, target = op
                opr = ready[ra]
                if slot_open and opr <= cycle and slot_class != 3:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 3
                if branch_taken(cond, regs[ra]):
                    cycle = issue + taken_penalty
                    slot_open = False
                    if cycle_counting:
                        cycle_counts[index] += cycle - prev_cycle
                        prev_cycle = cycle
                    index = line_end = target
                    continue
            elif kind == k_ldq:
                __, ra, rb, disp = op
                opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 1:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 1
                # The views serve aligned data and stack quads, in
                # `_load_q`'s order; it takes every other address.
                addr = (regs[rb] + disp) & mask
                o = addr - data_base
                if 0 <= o < data_bytes and not o & 7:
                    regs[ra] = qd[o >> 3]
                else:
                    o = addr - stack_base
                    if 0 <= o < stack_bytes and not o & 7:
                        regs[ra] = qs[o >> 3]
                    else:
                        regs[ra] = load_q(addr)
                dline = addr >> iline_shift
                if dtags[dline & dmask] != dline:
                    dtags[dline & dmask] = dline
                    dmisses += 1
                    ready[ra] = issue + load_miss
                else:
                    ready[ra] = issue + load_hit
                regs[31] = ready[31] = 0
            elif kind == k_stq:
                __, ra, rb, disp = op
                opr = ready[ra]
                if ready[rb] > opr:
                    opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 1:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 1
                addr = (regs[rb] + disp) & mask
                o = addr - data_base
                if 0 <= o < data_bytes and not o & 7:
                    qd[o >> 3] = regs[ra]
                else:
                    o = addr - stack_base
                    if 0 <= o < stack_bytes and not o & 7:
                        qs[o >> 3] = regs[ra]
                    else:
                        store_q(addr, regs[ra])
                dline = addr >> iline_shift
                if dtags[dline & dmask] != dline:
                    dtags[dline & dmask] = dline
                    dmisses += 1
                    cycle += miss_penalty
                    slot_open = False
            elif kind == k_ldah:
                __, ra, rb, disp = op
                opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 1:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 1
                regs[ra] = (regs[rb] + (disp << 16)) & mask
                ready[ra] = issue + 1
                regs[31] = ready[31] = 0
            elif kind == k_br or kind == k_bsr:
                __, ra, target = op
                if slot_open and slot_class != 3:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1
                    slot_class = 3
                regs[ra] = text_base + 4 * (index + 1)
                ready[ra] = issue + 1
                regs[31] = ready[31] = 0
                cycle = issue + taken_penalty
                slot_open = False
                if cycle_counting:
                    cycle_counts[index] += cycle - prev_cycle
                    prev_cycle = cycle
                index = line_end = target
                continue
            elif kind == k_ret or kind == k_jsr or kind == k_jmp:
                __, ra, rb = op
                opr = ready[rb]
                if slot_open and opr <= cycle and slot_class != 3:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_class = 3
                dest = regs[rb] & ~3
                regs[ra] = text_base + 4 * (index + 1)
                ready[ra] = issue + 1
                target = (dest - text_base) >> 2
                if not 0 <= target < len(decoded):
                    raise MachineError(f"jump to unmapped address {dest:#x}")
                regs[31] = ready[31] = 0
                cycle = issue + taken_penalty
                slot_open = False
                if cycle_counting:
                    cycle_counts[index] += cycle - prev_cycle
                    prev_cycle = cycle
                index = line_end = target
                continue
            elif kind == k_pal:
                if slot_open and slot_class != 3:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1
                    slot_open = True
                    slot_class = 3
                func = op[1]
                if func == PalFunc.HALT:
                    # Charge the halting word's issue cost so the
                    # per-word cycle deltas sum exactly to the total.
                    if cycle_counting:
                        cycle_counts[index] += cycle - prev_cycle
                        prev_cycle = cycle
                    index = HALT
                    break
                if func == PalFunc.PUTINT:
                    value = regs[16]
                    out.append(str(value - (1 << 64) if value >> 63 else value))
                    out.append("\n")
                elif func == PalFunc.PUTCHAR:
                    out.append(chr(regs[16] & 0xFF))
                elif func == PalFunc.GETTICKS:
                    regs[0] = cycle
                    ready[0] = issue + 1
                else:
                    raise MachineError(f"unknown PAL function {func:#x}")
            else:
                # Byte, longword and unaligned-quad accesses: memory
                # class, no D-cache model.
                __, ra, rb, disp = op
                opr = ready[rb]
                if kind == K_STL or kind == K_STB:
                    if ready[ra] > opr:
                        opr = ready[ra]
                if slot_open and opr <= cycle and slot_class != 1:
                    slot_open = False
                    duals += 1
                    issue = cycle
                else:
                    issue = cycle = cycle + 1 if opr <= cycle else opr
                    slot_open = True
                    slot_class = 1
                addr = (regs[rb] + disp) & mask
                if kind == K_LDL:
                    value = load_q(addr & ~7)
                    word = (value >> ((addr & 4) * 8)) & 0xFFFFFFFF
                    regs[ra] = word | (~0xFFFFFFFF & mask if word >> 31 else 0)
                    ready[ra] = issue + load_hit
                elif kind == K_LDQ_U:
                    regs[ra] = load_q(addr & ~7)
                    ready[ra] = issue + load_hit
                elif kind == K_LDBU:
                    regs[ra] = self._load_byte(addr)
                    ready[ra] = issue + load_hit
                elif kind == K_STB:
                    self._store_byte(addr, regs[ra])
                elif kind == K_STL:
                    self._store_long(addr, regs[ra])
                else:
                    raise MachineError(f"unhandled op kind {kind}")
                regs[31] = ready[31] = 0

            if cycle_counting:
                cycle_counts[index] += cycle - prev_cycle
                prev_cycle = cycle
            index += 1

        st[0] = count
        st[2:] = cycle, slot_open, slot_class, imisses, dmisses, duals, prev_cycle
        return index


def run(
    executable: Executable, *, timed: bool = True, max_instructions: int = 200_000_000
) -> RunResult:
    """Load and run an executable to completion."""
    return Machine(executable, max_instructions=max_instructions).run(timed=timed)


# -- decode ---------------------------------------------------------------------


def _predecode(text: bytes, text_base: int) -> list:
    """Translate the text segment into flat operation tuples."""
    from repro.isa.encoding import decode
    from repro.isa.opcodes import Format

    decoded = []
    nwords = len(text) // 4
    for i in range(nwords):
        word = int.from_bytes(text[4 * i : 4 * i + 4], "little")
        try:
            instr = decode(word)
        except Exception as exc:
            decoded.append((K_PAL, -1, f"undecodable word {word:#010x}: {exc}"))
            continue
        name = instr.op.name
        fmt = instr.op.format
        if fmt is Format.MEMORY:
            kind = {
                "lda": K_LDA, "ldah": K_LDAH, "ldq": K_LDQ, "stq": K_STQ,
                "ldl": K_LDL, "stl": K_STL, "ldbu": K_LDBU, "stb": K_STB,
                "ldq_u": K_LDQ_U,
            }[name]
            decoded.append((kind, instr.ra, instr.rb, instr.disp))
        elif fmt is Format.OPERATE:
            fn = _OPERATE_CODE[name]
            if instr.lit is not None:
                decoded.append((K_OP_RL, fn, instr.ra, instr.lit, instr.rc))
            else:
                decoded.append((K_OP_RR, fn, instr.ra, instr.rb, instr.rc))
        elif fmt is Format.BRANCH:
            target = i + 1 + instr.disp
            if name == "br":
                decoded.append((K_BR, instr.ra, target))
            elif name == "bsr":
                decoded.append((K_BSR, instr.ra, target))
            else:
                decoded.append((K_CBR, _COND_BRANCH_NAMES[name], instr.ra, target))
        elif fmt is Format.MEMORY_JUMP:
            kind = {"jsr": K_JSR, "jmp": K_JMP, "ret": K_RET,
                    "jsr_coroutine": K_JSR}[name]
            decoded.append((kind, instr.ra, instr.rb))
        else:  # PAL
            decoded.append((K_PAL, instr.disp))
    return decoded


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value


def _operate(fn: int, a: int, b: int, old_c: int) -> int:
    """Evaluate an operate instruction; operands/result are u64.

    Tested in order of dynamic frequency over the benchmark programs.
    Flipping the sign bit maps signed order onto unsigned order.
    """
    if fn == 16:  # bis
        return a | b
    if fn == 22:  # sra
        return ((a - (1 << 64) if a >> 63 else a) >> (b & 63)) & _MASK
    if fn == 10:  # cmplt
        return 1 if a ^ _SIGN < b ^ _SIGN else 0
    if fn == 9:  # cmpeq
        return 1 if a == b else 0
    if fn == 1:  # subq
        return (a - b) & _MASK
    if fn == 14:  # and
        return a & b
    if fn == 0:  # addq
        return (a + b) & _MASK
    if fn == 4:  # s8addq
        return (a * 8 + b) & _MASK
    if fn == 20:  # sll
        return (a << (b & 63)) & _MASK
    if fn == 2:  # mulq
        return (a * b) & _MASK
    if fn == 11:  # cmple
        return 1 if a ^ _SIGN <= b ^ _SIGN else 0
    if fn == 18:  # xor
        return a ^ b
    if fn == 12:  # cmpult
        return 1 if a < b else 0
    if fn == 13:  # cmpule
        return 1 if a <= b else 0
    if fn == 3:  # s4addq
        return (a * 4 + b) & _MASK
    if fn == 21:  # srl
        return a >> (b & 63)
    if fn == 15:  # bic
        return a & ~b & _MASK
    if fn == 17:  # ornot
        return (a | (~b & _MASK)) & _MASK
    if fn == 19:  # eqv
        return (a ^ (~b & _MASK)) & _MASK
    if fn == 5:  # addl
        return _sext32((a + b) & 0xFFFFFFFF)
    if fn == 6:  # subl
        return _sext32((a - b) & 0xFFFFFFFF)
    if fn == 7:  # mull
        return _sext32((a * b) & 0xFFFFFFFF)
    if fn == 8:  # umulh
        return ((a * b) >> 64) & _MASK
    if fn == 23:  # cmoveq
        return b if a == 0 else old_c
    if fn == 24:  # cmovne
        return b if a != 0 else old_c
    if fn == 25:  # cmovlt
        return b if _to_signed(a) < 0 else old_c
    if fn == 26:  # cmovge
        return b if _to_signed(a) >= 0 else old_c
    if fn == 27:  # cmovle
        return b if _to_signed(a) <= 0 else old_c
    if fn == 28:  # cmovgt
        return b if _to_signed(a) > 0 else old_c
    raise MachineError(f"unhandled operate function {fn}")


def _sext32(value: int) -> int:
    return value | (~0xFFFFFFFF & _MASK) if value >> 31 else value


def _branch_taken(cond: int, value: int) -> bool:
    if cond == 0:  # beq
        return value == 0
    if cond == 1:  # bne
        return value != 0
    signed = _to_signed(value)
    if cond == 2:  # blt
        return signed < 0
    if cond == 3:  # ble
        return signed <= 0
    if cond == 4:  # bge
        return signed >= 0
    if cond == 5:  # bgt
        return signed > 0
    if cond == 6:  # blbc
        return not value & 1
    return bool(value & 1)  # blbs
