"""Template-JIT backend for the simulated machine.

Translates the pre-decoded text into generated Python, region by
region, and runs those regions instead of the interpreter's dispatch
loop.  The interpreter in :mod:`repro.machine.cpu` stays the ground
truth: the JIT must reproduce it bit-for-bit on all three observables
(program output, :class:`~repro.machine.cpu.RunResult` counters under
the timed model, and the profiler's per-word attribution arrays), and
the fuzz oracle cross-checks the two backends on every campaign wave.

Structure:

* the text is segmented once at *global* split points — branch/jump
  targets, instruction-after-control (jsr return sites), procedure
  starts, and the entry point — so any two regions that overlap agree
  on segment boundaries;
* a *region* is a BFS closure of segments over intra-region control
  flow (conditional branches, direct ``br``, direct and linker-hinted
  calls with their continuations); returns and indirect jumps that
  miss every head of the region leave it through the driver loop;
* each region compiles to one Python function with registers in local
  variables and every opcode specialized at translation time
  (register numbers, displacements, I-cache line/slot constants,
  return addresses and branch conditions are folded into the source);
  there is no per-instruction dispatch inside a region, and the
  timed flavors probe the I-cache once per line per straight-line
  path, since only instruction fetches touch the tags;
* the timed flavors fold the dual-issue model's static facts: inside
  a tree the previous word's class, a slot that a taken branch or a
  pairing closed, and the readiness of an operand written on the path
  are known at translation time, so only what the run decides is
  tested; ``sc`` is stored only where control leaves a tree, and
  constant cycle increments ride along as a translation-time offset
  (see :meth:`_Emitter._emit_issue`);
* a region whose segments form a dispatch cascade (loop form) can be
  entered at any of its heads: every head shares the root's table
  entry, so control that comes back to the driver at a head re-enters
  code already translated instead of rooting a second region over it.
  Every flavor that cannot fold a call's planted return address (all
  but the fast functional one) gives the call continuation a head of
  its own, so the callee's ``ret`` lands back in the region;
* regions come in *flavors* keyed by ``(timed, counting,
  cycle_counting)``.  A region checks the instruction budget once per
  tree and bails back to the driver when a tree might not fit;
* the interpreter loops of :mod:`repro.machine.cpu` run everything
  else, resuming on the state vector the regions share: one step for
  a word the translator does not cover (odd PAL functions,
  undecodable words), and the end of a bounded run whose remaining
  budget is smaller than the next region, so ``ExecutionBudgetExceeded``
  trips at the interpreter's own instruction index;
* a program's first run is tiered: the interpreter runs each segment
  whose head has no translation, one segment per driver visit, until
  the head's ``_HOT_ENTRIES``-th visit builds its region.  Most code a
  single run reaches executes too rarely to pay back its translation:
  generating and compiling a timed word costs about as much time as
  270 of its translated executions save.  The run's quad views are
  made once and passed to every interpreter call, so a visit costs the
  call and its words.  Every later run of the same program translates
  each head on first entry, so reruns, warm benchmarks and repeated
  served jobs run translated code, as before.

Compiled programs are cached across runs in a small module-level LRU
keyed by the text bytes and load layout; ``clear_jit_cache`` and
``CompiledProgram.invalidate`` expose the cache semantics for tests.
``invalidate`` drops the translations but not the record that a run
has started, so the next run translates eagerly; after
``clear_jit_cache`` the next run is a first run again.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.isa.opcodes import PalFunc
from repro.isa.timing import (
    CACHE_MISS_PENALTY,
    LOAD_LATENCY,
    TAKEN_BRANCH_PENALTY,
)
from repro.machine.cpu import (
    HALT,
    K_BR,
    K_BSR,
    K_CBR,
    K_JMP,
    K_JSR,
    K_LDA,
    K_LDAH,
    K_LDBU,
    K_LDL,
    K_LDQ,
    K_LDQ_U,
    K_OP_RL,
    K_OP_RR,
    K_PAL,
    K_RET,
    K_STB,
    K_STL,
    K_STQ,
    Machine,
    MachineError,
    RunResult,
    _branch_taken,
    _DN_LINES,
    _ILINE_SHIFT,
    _IN_LINES,
    _MASK,
    _OPERATE_LATENCY,
    _operate,
)
from repro.machine.profile import ProfilingMachine

#: Marker for "this start is untranslatable; single-step it".
_FALLBACK = object()

#: Upper bound on segments per region (a runaway-CFG backstop; loops
#: that matter are far smaller).
_REGION_SEGMENT_CAP = 48

#: Maximum nesting of inlined branch-taken arms in one emission tree.
_INLINE_DEPTH_CAP = 16

#: On a program's first run, the driver visit to an untranslated head
#: that builds its region; the visits before it interpret the head's
#: segment.  Cold timed JIT time over dynamic-run's 14 executables is
#: flat between 128 and 256 and worse on either side.
_HOT_ENTRIES = 256

_CONTROL_KINDS = frozenset((K_BR, K_BSR, K_CBR, K_JSR, K_JMP, K_RET))

#: Kinds the translator covers.  Tests shrink this set (and clear the
#: cache) to force interpreter fallback on selected opcodes.
_TRANSLATABLE = frozenset((
    K_LDA, K_LDAH, K_LDQ, K_STQ, K_LDL, K_STL, K_LDBU, K_STB, K_LDQ_U,
    K_OP_RR, K_OP_RL, K_BR, K_BSR, K_CBR, K_JSR, K_RET, K_JMP, K_PAL,
))
_PAL_TRANSLATABLE = frozenset(
    (PalFunc.HALT, PalFunc.PUTCHAR, PalFunc.PUTINT, PalFunc.GETTICKS)
)

_M = str(_MASK)  # 18446744073709551615
_T64 = str(1 << 64)
_SGN_BOUND = str(1 << 63)  # first 64-bit pattern that is signed-negative
_SEXT_HI = str(~0xFFFFFFFF & _MASK)  # 18446744069414584320


def _can_translate(op) -> bool:
    kind = op[0]
    if kind == K_PAL:
        return kind in _TRANSLATABLE and op[1] in _PAL_TRANSLATABLE
    return kind in _TRANSLATABLE


def _reads_list(op) -> list[int]:
    """Registers an op reads, with multiplicity (r31 excluded).

    The one per-kind table of register reads.  It keeps duplicates: an
    op that reads the same register twice needs two substitution
    sites, so a forwarded expression (consumed on first use) cannot
    cover it.
    """
    kind = op[0]
    if kind in (K_LDA, K_LDAH, K_LDQ, K_LDL, K_LDBU, K_LDQ_U):
        rs = [op[2]]
    elif kind in (K_STQ, K_STL, K_STB):
        rs = [op[1], op[2]]
    elif kind == K_OP_RR or kind == K_OP_RL:
        __, fn, ra, rb, rc = op
        rs = [ra]
        if kind == K_OP_RR:
            rs.append(rb)
        if 23 <= fn <= 28:  # cmov keeps the old value
            rs.append(rc)
    elif kind == K_CBR:
        rs = [op[2]]
    elif kind in (K_JSR, K_JMP, K_RET):
        rs = [op[2]]
    elif kind == K_PAL and op[1] in (PalFunc.PUTINT, PalFunc.PUTCHAR):
        rs = [16]
    else:
        rs = []
    return [r for r in rs if r != 31]


def _reg_refs(op, reads: set, writes: set) -> None:
    """Accumulate architectural registers an op reads/writes (r31 excluded)."""
    reads.update(_reads_list(op))
    kind = op[0]
    if kind in (K_LDA, K_LDAH, K_LDQ, K_LDL, K_LDBU, K_LDQ_U,
                K_BR, K_BSR, K_JSR, K_JMP, K_RET):
        writes.add(op[1])
    elif kind == K_OP_RR or kind == K_OP_RL:
        writes.add(op[4])
    elif kind == K_PAL and op[1] == PalFunc.GETTICKS:
        writes.add(0)
    writes.discard(31)


def _sgn(expr: str) -> str:
    """Source for the signed view of a u64 expression.

    Branchless two's-complement fold: flipping the sign bit then
    subtracting its weight maps [0, 2^64) onto [-2^63, 2^63) exactly,
    and evaluates ``expr`` once — important when a forwarded compound
    expression lands here.
    """
    if expr.isdigit():
        # Constant operand (r31 or a propagated value): fold the sign
        # conversion at translation time.
        value = int(expr)
        return str(value - (1 << 64) if value >> 63 else value)
    return f"(({expr} ^ {1 << 63}) - {1 << 63})"


_CMOV_CONDS = {
    23: "not {a}", 24: "{a}", 25: "{a} >> 63", 26: "not {a} >> 63",
    27: "{a} == 0 or {a} >> 63", 28: "{a} != 0 and not {a} >> 63",
}

_CBR_CONDS = {
    0: "not {v}", 1: "{v}", 2: "{v} >> 63",
    3: "{v} == 0 or {v} >> 63", 4: "not {v} >> 63",
    5: "{v} != 0 and not {v} >> 63", 6: "not {v} & 1", 7: "{v} & 1",
}


def _op_expr(fn: int, a: str, b: str) -> str:
    """Value expression for a non-cmov, non-longword operate.

    Identity operands fold away: register values are invariantly
    masked, so ``x | x``, ``x + 0`` and friends are just ``x`` — this
    strips the mask from the ``bis ra, ra`` move idiom the compiler
    emits everywhere.
    """
    if fn == 0:
        if b == "0":
            return a
        if a == "0":
            return b
        return f"({a} + {b}) & {_M}"
    if fn == 1:
        if b == "0":
            return a
        return f"({a} - {b}) & {_M}"
    if fn == 14 and (a == b or a == "0" or b == "0"):
        return a if a == b else "0"
    if fn == 16 and (a == b or b == "0"):
        return a
    if fn == 16 and a == "0":
        return b
    if fn == 18 and a == b:
        return "0"
    if fn == 18 and (a == "0" or b == "0"):
        return b if a == "0" else a
    if fn == 2:
        return f"({a} * {b}) & {_M}"
    if fn == 3:
        return f"({a} * 4 + {b}) & {_M}"
    if fn == 4:
        return f"({a} * 8 + {b}) & {_M}"
    if fn == 8:
        return f"(({a} * {b}) >> 64) & {_M}"
    if fn == 9:
        return f"1 if {a} == {b} else 0"
    if fn == 10:
        # Signed comparison against zero never needs the sign fixup:
        # x < 0 is just the sign bit, 0 < x is the open unsigned range
        # below the sign boundary.
        if b == "0":
            return f"{a} >> 63"
        if a == "0":
            return f"1 if 0 < {b} < {_SGN_BOUND} else 0"
        return f"1 if {_sgn(a)} < {_sgn(b)} else 0"
    if fn == 11:
        if b == "0":
            return f"1 if {a} == 0 or {a} >> 63 else 0"
        if a == "0":
            return f"1 if {b} < {_SGN_BOUND} else 0"
        return f"1 if {_sgn(a)} <= {_sgn(b)} else 0"
    if fn == 12:
        return f"1 if {a} < {b} else 0"
    if fn == 13:
        return f"1 if {a} <= {b} else 0"
    if fn == 14:
        return f"{a} & {b}"
    if fn == 15:
        return f"{a} & ~{b} & {_M}"
    if fn == 16:
        return f"{a} | {b}"
    if fn == 17:
        return f"({a} | (~{b} & {_M})) & {_M}"
    if fn == 18:
        return f"{a} ^ {b}"
    if fn == 19:
        return f"({a} ^ (~{b} & {_M})) & {_M}"
    amt = str(int(b) & 63) if b.isdigit() else f"({b} & 63)"
    if fn == 20:
        return f"({a} << {amt}) & {_M}"
    if fn == 21:
        return f"{a} >> {amt}"
    if fn == 22:
        return f"({_sgn(a)} >> {amt}) & {_M}"
    raise MachineError(f"unhandled operate function {fn}")


def _cmp_cond(fn: int, a: str, b: str):
    """Boolean-context condition equivalent to a 0/1 compare result.

    When a compare's only consumer is a conditional branch on its
    truthiness, substituting this form skips materializing the 0/1
    value entirely.  Mirrors the folds of :func:`_op_expr`.
    """
    if fn == 9:
        return f"{a} == {b}"
    if fn == 10:
        if b == "0":
            return f"{a} >> 63"
        if a == "0":
            return f"0 < {b} < {_SGN_BOUND}"
        return f"{_sgn(a)} < {_sgn(b)}"
    if fn == 11:
        if b == "0":
            return f"{a} == 0 or {a} >> 63"
        if a == "0":
            return f"{b} < {_SGN_BOUND}"
        return f"{_sgn(a)} <= {_sgn(b)}"
    if fn == 12:
        return f"{a} < {b}"
    if fn == 13:
        return f"{a} <= {b}"
    return None


def _wto(nodes, succ, entries):
    """Bourdoncle-style weak topological order of the chain graph.

    Returns a nested item list — an item is either a plain node or a
    ``(head, subitems)`` loop.  Every cycle of the graph is contained
    in some loop item, so a back edge only ever rescans the arms of
    its own loop instead of the whole region cascade.
    """
    nodes_set = set(nodes)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    def connect(v0):
        index[v0] = low[v0] = counter[0]
        counter[0] += 1
        stack.append(v0)
        onstack.add(v0)
        work = [(v0, iter(succ.get(v0, ())))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in nodes_set:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    pushed = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)

    for e in entries:
        if e in nodes_set and e not in index:
            connect(e)

    items: list = []
    for scc in reversed(sccs):  # Tarjan pops in reverse topo order
        if len(scc) == 1 and scc[0] not in succ.get(scc[0], ()):
            items.append(scc[0])
            continue
        scc_set = set(scc)
        head = min(scc, key=index.__getitem__)
        sub_nodes = [v for v in scc if v != head]
        sub_succ = {
            v: [w for w in succ.get(v, ()) if w in scc_set and w != head]
            for v in scc
        }
        sub_entries = [
            w for w in succ.get(head, ()) if w in scc_set and w != head
        ]
        items.append((head, _wto(sub_nodes, sub_succ, sub_entries)))
    for v in nodes:  # defensive: unreachable nodes become plain arms
        if v not in index:
            items.append(v)
    return items


def _wto_flatten(items, acc) -> None:
    for item in items:
        if isinstance(item, tuple):
            acc.append(item[0])
            _wto_flatten(item[1], acc)
        else:
            acc.append(item)


class _Emitter:
    """Generates the Python source for one region in one flavor."""

    def __init__(self, prog: "CompiledProgram", flavor, start, segs, order):
        self.prog = prog
        self.timed, self.counting, self.cyc = flavor
        self.start = start
        self.segs = segs
        self.order = order
        self.lines: list[str] = []
        #: Segment-local optimizer (constant propagation with deferred
        #: dead-store-eliminated assignments, resolved branches, grouped
        #: memory access).  Only on the plain-run fast path: the timed
        #: flavors model per-instruction issue state.
        self.opt = not self.timed
        self.kval: dict[int, int] = {}
        self.defer: set[int] = set()
        #: Forwarded pure expressions: reg -> (expr, dep regs, bool
        #: condition form or None).  An entry is consumed (popped) by
        #: its single scheduled read, or materialized early when a
        #: dependency register is about to be overwritten.
        self.sym: dict = {}
        self.read_deps: set[int] = set()
        #: Known quad memory: (base reg, disp) -> value expr (a local
        #: register name or a constant).  A hit elides a reload — the
        #: earlier access to the same address already proved it mapped,
        #: so no fault is skipped.  Constant addresses key on r31.
        self.memtab: dict = {}
        #: I-cache slot -> line already probed on the current path.
        #: Only instruction fetches touch ``itags``, so a later word of
        #: a probed line cannot miss until another line claims the slot.
        self.probed: dict[int, int] = {}
        #: The dual-issue model's translation-time facts on the current
        #: path (timed flavors): the previous word's issue class (None
        #: at a tree head, which other code enters), whether the second
        #: slot is open (True/False, None when only the run knows), and
        #: whether the ``so`` local lags that known value.
        self.prev_class = None
        self.slot_open = None
        self.so_stale = False
        #: Operand readiness on the current path: ``tick`` counts the
        #: cycles ``cycle`` has surely advanced since the tree head,
        #: ``epoch`` changes whenever it may have advanced by more, and
        #: ``written`` maps a register written on the path to (tick,
        #: epoch, least latency, greatest latency) at its write.
        self.tick = self.epoch = 0
        self.written: dict[int, tuple] = {}
        #: Cycles the path has added that the ``cycle`` local lacks yet
        #: (taken-branch bubbles, cycles opened with no operand test).
        #: Emitted code reads the current cycle only through
        #: :meth:`_cycle`.  Where control may leave the path the offset
        #: goes into the local (:meth:`_sync_issue`) or into ``st[2]``
        #: (:meth:`_writeback`), and the local takes it before an issue
        #: test, whose two arms would disagree on it.
        self.cyc_off = 0
        if self.opt:
            self._compute_liveness()

        reads: set[int] = set()
        writes: set[int] = set()
        helpers: set[str] = set()
        for s in order:
            for i in range(s, segs[s]):
                op = prog.decoded[i]
                _reg_refs(op, reads, writes)
                kind = op[0]
                if kind in (K_LDQ, K_LDL, K_LDQ_U):
                    helpers.add("lq")
                elif kind == K_STQ:
                    helpers.add("sq")
                elif kind == K_LDBU:
                    helpers.add("lb")
                elif kind == K_STB:
                    helpers.add("sb")
                elif kind == K_STL:
                    helpers.add("sl")
                if prog.fast_mem and kind in (K_LDQ, K_STQ):
                    helpers.add("qd")
                    helpers.add("qs")
        self.used = sorted(reads | writes)
        self.writes = sorted(writes)
        self.helpers = helpers

        # Splice single-entry segments into their unique predecessor's
        # emission tree: straight-line runs chain inline, and a branch
        # target with no other way in nests inside the branch arm (a
        # trace tree).  One budget check and one dispatch arm per
        # tree, and the constant environment survives every merged
        # edge.  A segment keeps its own arm when any other edge can
        # enter it, so every remaining branch target is a tree head.
        preds: dict[int, int] = {}
        for s in order:
            for t in prog.region_targets(s):
                if t in segs:
                    preds[t] = preds.get(t, 0) + 1
        self.merged = {
            t for t in order if t != start and preds.get(t) == 1
        }
        # Each inlined branch-taken edge adds one indentation level to
        # the generated source; demote targets that would nest past the
        # cap to their own arms (CPython's parser tops out at 100).
        changed = True
        while changed:
            changed = False
            for h in order:
                if h in self.merged:
                    continue
                stack = [(h, 0)]
                while stack:
                    s, depth = stack.pop()
                    # CBR-taken arms and guarded-jsr hint arms each add
                    # one indentation level around their first target.
                    taken = prog.decoded[segs[s] - 1][0] in (K_CBR, K_JSR)
                    for n, t in enumerate(prog.region_targets(s)):
                        if t not in self.merged:
                            continue
                        nd = depth + (1 if taken and n == 0 else 0)
                        if nd > _INLINE_DEPTH_CAP:
                            self.merged.discard(t)
                            changed = True
                        else:
                            stack.append((t, nd))
        # A continuation merged behind a callee that is *not* merged
        # (multi-site or external) is never reached by any splice —
        # control only comes back to it through the callee's ret.  Nor
        # is one behind a merged callee outside the fast functional
        # flavor, which alone folds the planted return address into a
        # static splice.  Give it its own arm so the dynamic return
        # dispatch can land on it inside the region.
        for s in order:
            if prog.decoded[segs[s] - 1][0] not in (K_BSR, K_JSR):
                continue
            ts = prog.region_targets(s)
            if (len(ts) == 2 and ts[1] in self.merged
                    and (ts[0] not in self.merged or not self.opt)):
                self.merged.discard(ts[1])
        self.tree_members: dict[int, list[int]] = {}
        for h in order:
            if h in self.merged:
                continue
            members = []
            stack = [h]
            while stack:
                s = stack.pop()
                members.append(s)
                for t in prog.region_targets(s):
                    if t in self.merged:
                        stack.append(t)
            self.tree_members[h] = members
        self.tree_total = {
            h: sum(prog.seg_len[s] for s in members)
            for h, members in self.tree_members.items()
        }
        self.max_unit = max(self.tree_total.values())
        self.pending = 0
        self.in_branch = False
        self.cur_head = start
        self.self_loop = False
        self.loop_exits: set[int] = set()
        self.ret_spliced: set[int] = set()

        # Control edges between trees (inline-merged edges excluded;
        # every remaining internal target is itself a tree head).
        succ: dict[int, list[int]] = {}
        for h, members in self.tree_members.items():
            succ[h] = [
                t for s in members for t in prog.region_targets(s)
                if t in segs and t not in self.merged
            ]
        self.loop_form = any(succ.values())
        if self.loop_form:
            self.tree = _wto(list(self.tree_members), succ, [start])
            heads: list[int] = []
            _wto_flatten(self.tree, heads)
        else:
            self.tree = None
            heads = [start]
        self.pos = {h: n for n, h in enumerate(heads)}

    # -- dataflow ----------------------------------------------------------

    _ALL_LIVE = frozenset(range(31))

    def _compute_liveness(self) -> None:
        """Region-level backward liveness at segment granularity.

        ``live_out_map[s]`` is the set of registers some path from the
        end of segment ``s`` may read before writing.  Exits the region
        can't see into — calls, indirect jumps, undiscovered targets —
        count every register live; after a halt nothing is.  A register
        dead at a segment's end may keep a stale local across the exit:
        neither the next tree, the interpreter, nor any other region
        reads it before overwriting, so no observable differs.
        """
        prog, segs, order = self.prog, self.segs, self.order
        gen: dict[int, set] = {}
        kill: dict[int, set] = {}
        for s in order:
            g: set[int] = set()
            k: set[int] = set()
            for i in range(s, segs[s]):
                r: set[int] = set()
                w: set[int] = set()
                _reg_refs(prog.decoded[i], r, w)
                g |= r - k
                k |= w
            gen[s], kill[s] = g, k
        live_in = {s: set(gen[s]) for s in order}
        self.live_out_map: dict[int, set] = {s: set() for s in order}
        changed = True
        while changed:
            changed = False
            for s in order:
                last = prog.decoded[segs[s] - 1]
                if last[0] == K_PAL and last[1] == PalFunc.HALT:
                    lo: set[int] = set()
                elif last[0] == K_JSR:
                    # The hint edge is a prediction: the dynamic arm can
                    # exit anywhere, so everything stays live.
                    lo = set(self._ALL_LIVE)
                else:
                    targets = prog.region_targets(s)
                    lo = set()
                    if not targets:
                        lo = set(self._ALL_LIVE)
                    else:
                        for t in targets:
                            if t in segs:
                                lo |= live_in[t]
                            else:
                                lo = set(self._ALL_LIVE)
                                break
                self.live_out_map[s] = lo
                ni = gen[s] | (lo - kill[s])
                if ni != live_in[s]:
                    live_in[s] = ni
                    changed = True

    def _uses_ahead(self, s: int, i: int, rc: int):
        """(reads, overwritten) for ``rc`` in its segment after ``i``.

        Stops at the first write to ``rc``; a second read reports
        ``(2, False)`` immediately since two substitution sites already
        rule forwarding out.
        """
        decoded = self.prog.decoded
        uses = 0
        for k in range(i + 1, self.segs[s]):
            op = decoded[k]
            uses += _reads_list(op).count(rc)
            if uses > 1:
                return uses, False
            r: set[int] = set()
            w: set[int] = set()
            _reg_refs(op, r, w)
            if rc in w:
                return uses, True
        return uses, False

    # -- small pieces ------------------------------------------------------

    def _r(self, r: int) -> str:
        if r == 31:
            return "0"
        if r in self.kval:
            return repr(self.kval[r])
        e = self.sym.pop(r, None)
        if e is not None:
            self.read_deps |= e[1]
            return e[0]
        self.read_deps.add(r)
        return f"r{r}"

    def _addr(self, rb: int, disp: int) -> str:
        if rb == 31:
            return repr(disp & _MASK)
        if rb in self.kval:
            return repr((self.kval[rb] + disp) & _MASK)
        e = self.sym.pop(rb, None)
        if e is not None:
            self.read_deps |= e[1]
            base = e[0]
        else:
            self.read_deps.add(rb)
            base = f"r{rb}"
        if disp == 0:
            return base
        return f"({base} + {disp}) & {_M}"

    # -- segment-local constant propagation --------------------------------
    #
    # Known register values live in ``kval``; a value whose assignment
    # has not been emitted yet sits in ``defer``.  Overwriting a
    # deferred register drops the dead store.  Deferred values
    # materialize at control joins (``_flush``) and substitute directly
    # into writebacks and operand positions everywhere else.  State
    # resets at every segment boundary, because arms of the region
    # cascade are entered from many predecessors.

    def _def(self, r: int, value: int) -> None:
        self.kval[r] = value
        self.defer.add(r)
        self.sym.pop(r, None)
        self._mem_forget(r)

    def _kill(self, r: int) -> None:
        self.kval.pop(r, None)
        self.defer.discard(r)
        self.sym.pop(r, None)
        self._mem_forget(r)

    def _mem_forget(self, r: int) -> None:
        """Drop memory facts tied to register ``r`` (as base or value)."""
        if self.memtab:
            name = f"r{r}"
            for k in [k for k, v in self.memtab.items()
                      if k[0] == r or v == name]:
                del self.memtab[k]

    def _mem_store(self, rb: int, disp: int, addr: str, val: str) -> None:
        """Record a quad store; invalidate whatever it may alias.

        Two accesses off the same base at displacements 8+ bytes apart
        are provably distinct; anything else (other base registers,
        helper-path addresses) may overlap and is forgotten.
        """
        if addr.isdigit():
            key = (31, int(addr))
        elif addr == f"r{rb}" or addr == f"(r{rb} + {disp}) & {_M}":
            key = (rb, disp)
        else:
            # Address built from a forwarded expression: its base local
            # is stale, so nothing relates it to the other entries.
            self.memtab.clear()
            return
        self.memtab = {
            k: v for k, v in self.memtab.items()
            if k[0] == key[0] and abs(k[1] - key[1]) >= 8
        }
        if val.isdigit() or val == "r%d" % 31 or (
                val.startswith("r") and val[1:].isdigit()):
            self.memtab[key] = val

    def _mem_load(self, rb: int, disp: int, addr: str):
        """(key, known value) for a quad load, either may be None."""
        if addr.isdigit():
            key = (31, int(addr))
        elif addr == f"r{rb}" or addr == f"(r{rb} + {disp}) & {_M}":
            key = (rb, disp)
        else:
            return None, None
        return key, self.memtab.get(key)

    def _reset_consts(self) -> None:
        self.kval.clear()
        self.defer.clear()
        self.sym.clear()
        self.memtab.clear()
        self.probed.clear()

    def _save(self) -> tuple:
        """Optimizer state to restore after emitting a branch arm."""
        return (dict(self.kval), set(self.defer), dict(self.sym),
                dict(self.memtab), dict(self.probed), self.pending,
                self.in_branch, self.prev_class, self.slot_open,
                self.so_stale, self.tick, self.epoch, dict(self.written),
                self.cyc_off)

    def _restore(self, saved: tuple) -> None:
        (self.kval, self.defer, self.sym, self.memtab, self.probed,
         self.pending, self.in_branch, self.prev_class, self.slot_open,
         self.so_stale, self.tick, self.epoch, self.written,
         self.cyc_off) = saved

    def _mat_deps(self, out, ind, rc: int) -> None:
        """Materialize forwarded expressions that read ``rc`` before a
        write to it lands (their text references the current value)."""
        if not self.sym:
            return
        for c in list(self.sym):
            e = self.sym[c]
            if rc in e[1] and c != rc:
                del self.sym[c]
                out.append(f"{ind}r{c} = {e[0]}")

    def _flush(self, out, ind) -> None:
        if not self.defer:
            return
        regs = sorted(self.defer)
        out.append(
            ind + ", ".join(f"r{r}" for r in regs) + " = "
            + ", ".join(repr(self.kval[r]) for r in regs)
        )
        self.defer.clear()

    def _cnt_done(self, s: int) -> str:
        """Count expression after fully executing segment ``s``.

        ``pending`` counts instructions of earlier chain elements whose
        ``cnt`` update was folded into this exit.
        """
        return f"cnt + {self.pending + self.prog.seg_len[s]}"

    def _writeback(self, cnt_expr: str) -> list[str]:
        slots = [("st[0]", cnt_expr)]
        if self.timed:
            so = "so" if self.slot_open is None else repr(self.slot_open)
            sc = "sc" if self.prev_class is None else str(self.prev_class)
            slots += [("st[2]", self._cycle()), ("st[3]", so), ("st[4]", sc),
                      ("st[7]", "du")]
        if self.cyc:
            slots.append(("st[8]", "prev"))
        slots += [
            (f"regs[{r}]",
             repr(self.kval[r]) if r in self.defer else f"r{r}")
            for r in self.writes
        ]
        return [
            ", ".join(t for t, _ in slots) + " = "
            + ", ".join(v for _, v in slots)
        ]

    def _goto(self, out, ind, s, t) -> None:
        """Transfer control to word index ``t`` from the end of seg ``t``.

        A single-entry target splices its code right here (this call
        site is its only way in, so it owns no dispatch arm).  Other
        internal targets set ``pc``: forward edges fall through the arm
        cascade (no ``continue``), back edges and any jump taken from
        inside a conditional restart the innermost enclosing loop,
        whose membership tail routes control outward when the target
        lives in an outer loop.
        """
        if t in self.merged:
            self.pending += self.prog.seg_len[s]
            self._emit_seg(out, ind, t)
            return
        if t in self.segs:
            self._flush(out, ind)
            self._sync_issue(out, ind)
            out.append(f"{ind}cnt += {self.pending + self.prog.seg_len[s]}")
            if t == self.cur_head:
                # Back edge into the arm being emitted: ``pc`` still
                # holds the head, so restarting the innermost loop
                # re-enters it (or, in a single-arm loop, IS it).
                out.append(f"{ind}continue")
            elif self.self_loop:
                self.loop_exits.add(t)
                out.append(f"{ind}pc = {t}")
                out.append(f"{ind}break")
            else:
                out.append(f"{ind}pc = {t}")
                if self.in_branch or self.pos[t] <= self.pos[self.cur_head]:
                    out.append(f"{ind}continue")
        else:
            for line in self._writeback(self._cnt_done(s)):
                out.append(ind + line)
            out.append(f"{ind}return {t}")

    def _cycle(self, add: int = 0) -> str:
        """The current cycle plus ``add``: the local plus the path's
        pending cycles."""
        n = self.cyc_off + add
        return f"cycle + {n}" if n else "cycle"

    def _attr(self, out, ind, i) -> None:
        if self.cyc:
            out.append(f"{ind}cyc[{i}] += {self._cycle()} - prev")
            out.append(f"{ind}prev = {self._cycle()}")

    def _sync_issue(self, out, ind) -> None:
        """Store the issue state a tree head reads, before control moves
        to another arm: the pending cycles, ``so`` where only the emitter
        knows it, and the previous word's class wherever the slot may
        still be open.  The path's own state is left as it is."""
        if not self.timed:
            return
        if self.cyc_off:
            out.append(f"{ind}cycle += {self.cyc_off}")
        if self.so_stale:
            out.append(f"{ind}so = {self.slot_open}")
        if self.slot_open is not False:
            out.append(f"{ind}sc = {self.prev_class}")

    def _emit_issue(self, out, ind, klass, opr_regs, taken=False) -> None:
        """The dual-issue slotting of one word (timed flavors only).

        Inside a tree the interpreter's tests have translation-time
        answers, and only the rest is emitted:

        * the slot is open only after a word that opened a cycle, so an
          open slot's class is the previous word's: a word of its
          predecessor's class opens a cycle with no test, and ``sc`` is
          read only at a tree head;
        * a taken branch closes the slot, and so does a pairing;
        * an operand written on the path is ready once ``cycle`` has
          surely advanced by its latency, and cannot be while ``cycle``
          still holds its writer's issue cycle: a word reading its
          predecessor's result opens a cycle.

        A word issues at the current cycle either way, so its body
        reads that as its issue cycle.  A cycle opened with no test adds
        to the pending offset (``cyc_off``) instead of emitting a line.
        ``taken``: the word always branches, which closes the slot, so
        neither arm stores ``so``.
        """
        rs = []
        for r in opr_regs:
            if r != 31 and r not in rs:
                rs.append(r)
        tick, epoch, written = self.tick, self.epoch, self.written
        blocked = False
        pair_rs = []  # operands the pair test must read
        open_rs = []  # operands that may delay an opened cycle
        for r in rs:
            w = written.get(r)
            if w is None:
                pair_rs.append(r)
                open_rs.append(r)
                continue
            age = tick - w[0]
            if w[1] == epoch and w[2] > age:
                blocked = True
            if w[3] > age:
                pair_rs.append(r)
                if w[3] > age + 1:
                    open_rs.append(r)
        conds = []
        if (self.slot_open is not False and self.prev_class != klass
                and not blocked):
            if (self.slot_open and not pair_rs
                    and self.prev_class is not None):
                # An open slot, a ready word: it pairs.
                out.append(f"{ind}du += 1")
                self.slot_open, self.so_stale = False, True
                self.prev_class = klass
                return
            if self.cyc_off:
                out.append(f"{ind}cycle += {self.cyc_off}")
                self.cyc_off = 0
            if self.slot_open is None:
                conds.append("so")
            if pair_rs:
                conds.append(f"opr <= {self._cycle()}")
            if self.prev_class is None:
                conds.append(f"sc != {klass}")
            open_rs = pair_rs
        if open_rs:
            if len(open_rs) == 1:
                out.append(f"{ind}opr = ready[{open_rs[0]}]")
            else:
                out.append(f"{ind}t0 = ready[{open_rs[0]}]")
                out.append(f"{ind}t1 = ready[{open_rs[1]}]")
                out.append(f"{ind}opr = t0 if t0 > t1 else t1")
            opens = (f"cycle = {self._cycle(1)} "
                     f"if opr <= {self._cycle()} else opr")
        else:
            opens = "cycle += 1"
        if not conds:
            self.slot_open, self.so_stale = not taken, True
            self.tick += 1
            if open_rs:
                out.append(ind + opens)
                self.cyc_off = 0
                self.epoch += 1
            else:
                self.cyc_off += 1
        else:
            out.append(f"{ind}if {' and '.join(conds)}:")
            if not taken:
                out.append(f"{ind}    so = False")
            out.append(f"{ind}    du += 1")
            out.append(f"{ind}else:")
            out.append(f"{ind}    {opens}")
            if taken:
                self.slot_open, self.so_stale = False, True
            else:
                out.append(f"{ind}    so = True")
                self.slot_open, self.so_stale = None, False
            self.epoch += 1
        self.prev_class = klass

    def _set_ready(self, out, ind, r, latency) -> None:
        """Record register ``r``'s result latency, issued now."""
        out.append(f"{ind}ready[{r}] = {self._cycle(latency)}")
        self.written[r] = (self.tick, self.epoch, latency, latency)

    def _tag_test(self, out, ind, tags, slot, line, counter, stall) -> None:
        """A cache tag test and the miss arm's count; ``stall``: the miss
        stalls the pipeline and closes the slot."""
        if stall and self.so_stale and self.slot_open:
            out.append(f"{ind}so = True")
            self.so_stale = False
        out.append(f"{ind}if {tags}[{slot}] != {line}:")
        out.append(f"{ind}    {tags}[{slot}] = {line}")
        out.append(f"{ind}    st[{counter}] += 1")
        if stall:
            out.append(f"{ind}    cycle += {CACHE_MISS_PENALTY}")
            if self.slot_open is not False:
                out.append(f"{ind}    so = False")
                self.slot_open = None
            self.epoch += 1

    def _emit_dcache(self, out, ind, ra=None) -> None:
        """The D-cache probe of the access at ``addr``: a load's miss
        delays its result ``ra``, a store's (``ra`` None) stalls."""
        out.append(f"{ind}dl = addr >> {_ILINE_SHIFT}")
        self._tag_test(out, ind, "dtags", f"dl & {_DN_LINES - 1}", "dl", 6,
                       ra is None)
        if ra is not None and ra != 31:
            miss = LOAD_LATENCY + CACHE_MISS_PENALTY
            out.append(f"{ind}    ready[{ra}] = {self._cycle(miss)}")
            out.append(f"{ind}else:")
            out.append(f"{ind}    ready[{ra}] = {self._cycle(LOAD_LATENCY)}")
            self.written[ra] = (self.tick, self.epoch, LOAD_LATENCY, miss)

    # -- per-instruction emission ------------------------------------------

    def _emit_instr(self, out, ind, s, i, j) -> None:
        """One instruction: fetch/issue (timed), then its body."""
        prog = self.prog
        op = prog.decoded[i]
        kind = op[0]
        seglen = prog.seg_len[s]
        last = j == seglen - 1

        if self.timed:
            # I-cache probe: line and slot fold to constants per word,
            # and a line already probed on this path always hits.
            line = (prog.text_base + 4 * i) >> _ILINE_SHIFT
            islot = line & (_IN_LINES - 1)
            if self.probed.get(islot) != line:
                self.probed[islot] = line
                self._tag_test(out, ind, "itags", islot, line, 5, True)
            if kind == K_OP_RR:
                self._emit_issue(out, ind, 2, (op[2], op[3]))
            elif kind == K_OP_RL:
                self._emit_issue(out, ind, 2, (op[2],))
            elif kind in (K_LDQ, K_LDA, K_LDAH, K_LDL, K_LDQ_U, K_LDBU):
                self._emit_issue(out, ind, 1, (op[2],))
            elif kind in (K_STQ, K_STL, K_STB):
                self._emit_issue(out, ind, 1, (op[1], op[2]))
            elif kind == K_CBR:
                self._emit_issue(out, ind, 3, (op[2],))
            elif kind in (K_JSR, K_JMP, K_RET):
                self._emit_issue(out, ind, 3, (op[2],), taken=True)
            elif kind in (K_BR, K_BSR):
                self._emit_issue(out, ind, 3, (), taken=True)
            else:  # PAL
                self._emit_issue(out, ind, 3, ())

        self.read_deps = set()
        body = getattr(self, "_k%d" % kind)
        body(out, ind, s, i, op)

        if kind in _CONTROL_KINDS or (kind == K_PAL and op[1] == PalFunc.HALT):
            return  # those emitters ended the segment themselves
        if self.timed:
            self._attr(out, ind, i)
        if last:
            self._goto(out, ind, s, i + 1)

    # Non-control bodies.  ``_k<kind>`` naming mirrors the K_* codes.

    def _lda(self, out, ind, s, i, ra, rb, disp) -> None:
        if ra == 31:
            return
        expr = self._addr(rb, disp)
        if self.opt:
            if expr.isdigit():
                self._mat_deps(out, ind, ra)
                self._def(ra, int(expr))
                return
            if expr == f"r{ra}":
                return  # address of self with no displacement: no-op
            self._mat_deps(out, ind, ra)
            self._kill(ra)
            if self._forward(s, i, ra, expr, None):
                return
        out.append(f"{ind}r{ra} = {expr}")
        if self.timed:
            self._set_ready(out, ind, ra, 1)

    def _forward(self, s: int, i: int, rc: int, expr: str, cond) -> bool:
        """Try to defer ``rc = expr`` into its single scheduled read.

        Legal when the segment overwrites ``rc`` afterwards, or when
        ``rc`` is dead at the segment's exits — either way the stale
        local never escapes to a consumer.  Expressions are pure, so
        evaluation moves to the read site (or vanishes when there is
        none) without observable effect; loads and stores are never
        forwarded, keeping fault order exact.
        """
        uses, over = self._uses_ahead(s, i, rc)
        if uses > 1 or len(expr) > 240:
            return False
        if not over and rc in self.live_out_map[s]:
            return False
        if uses:
            self.sym[rc] = (f"({expr})", frozenset(self.read_deps), cond)
        return True

    def _k0(self, out, ind, s, i, op):  # K_LDA
        __, ra, rb, disp = op
        self._lda(out, ind, s, i, ra, rb, disp)

    def _k1(self, out, ind, s, i, op):  # K_LDAH
        __, ra, rb, disp = op
        self._lda(out, ind, s, i, ra, rb, disp << 16)

    def _quad_regions(self, rb: int):
        """The two (view, base, length) fast-path regions, most likely
        hit first: stack-pointer-relative addresses probe the stack,
        anything else probes the data segment."""
        prog = self.prog
        stack = ("qs", prog.stack_base, prog.stack_len)
        data = ("qd", prog.data_base, prog.data_len)
        return (stack, data) if rb == 30 else (data, stack)

    @staticmethod
    def _quad_guard(length: int, span: int = 8) -> str:
        """Bounds+alignment test on offset ``o`` for a ``span``-byte
        access into a region of ``length`` bytes.

        Region bases are 8-aligned, so ``o`` and the address share
        alignment.  When the valid offsets are exactly the aligned
        values expressible within one bit mask (``limit + 8`` a power
        of two), a single AND covers bounds and alignment together —
        a negative or oversized ``o`` always has bits outside the
        mask, Python's negatives carrying infinite sign bits.
        """
        limit = length - span
        if limit >= 0 and (limit + 8) & (limit + 7) == 0:
            return f"not o & {~limit}"
        return f"0 <= o <= {limit} and not o & 7"

    def _const_quad(self, value: int):
        """(view, index) for a statically-resolved aligned quad."""
        prog = self.prog
        if value % 8:
            return None
        o = value - prog.stack_base
        if 0 <= o < prog.stack_len:
            return ("qs", o >> 3)
        o = value - prog.data_base
        if 0 <= o < prog.data_len:
            return ("qd", o >> 3)
        return None

    def _emit_quad_access(self, out, ind, rb, assign) -> None:
        """Inline fast path for an 8-byte access at ``addr``.

        ``assign(view_expr)`` renders the access given a source/target
        expression.  Only the region the base register suggests is
        probed inline (``_quad_regions``: the stack for ``sp``, the data
        segment otherwise), which is where every quad access of the
        benchsuite and ``dynamic-run`` programs lands.  Any other
        address (the other region, unmapped or unaligned) takes the
        bounds-checked memory helper, which reproduces the interpreter's
        values and exceptions exactly.  The data image is whole quads
        (``Machine`` pads it), so the view covers every mapped quad.
        """
        (view, base, length), __ = self._quad_regions(rb)
        out.append(f"{ind}o = addr - {base}")
        out.append(f"{ind}if {self._quad_guard(length)}:")
        out.append(f"{ind}    {assign(f'{view}[o >> 3]')}")
        out.append(f"{ind}else:")
        out.append(f"{ind}    {assign(None)}")

    def _k2(self, out, ind, s, i, op):  # K_LDQ
        __, ra, rb, disp = op
        tgt = f"r{ra} = " if ra != 31 else ""
        addr = self._addr(rb, disp)
        if self.opt:
            key, known = self._mem_load(rb, disp, addr)
            if known is not None:
                # The slot's current value is in a local or constant:
                # the earlier access proved the address mapped, so the
                # reload (and any fault it could raise) is redundant.
                self._mat_deps(out, ind, ra)
                if ra != 31 and known != f"r{ra}":
                    if known.isdigit():
                        self._def(ra, int(known))
                    else:
                        self._kill(ra)
                        self.read_deps = {int(known[1:])}
                        if not self._forward(s, i, ra, known, None):
                            out.append(f"{ind}r{ra} = {known}")
                return
            self._mat_deps(out, ind, ra)
            self._kill(ra)
            if key is not None and ra != 31 and ra != rb:
                self.memtab[key] = f"r{ra}"
        if not self.prog.fast_mem:
            if self.timed:
                out.append(f"{ind}addr = {addr}")
                out.append(f"{ind}{tgt}lq(addr)")
                self._emit_dcache(out, ind, ra)
            else:
                out.append(f"{ind}{tgt}lq({addr})")
            return
        if not self.timed and addr.isdigit():
            hit = self._const_quad(int(addr))
            if hit:
                out.append(f"{ind}{tgt}{hit[0]}[{hit[1]}]")
            else:
                out.append(f"{ind}{tgt}lq({addr})")
            return
        out.append(f"{ind}addr = {addr}")
        self._emit_quad_access(
            out, ind, rb,
            lambda view: f"{tgt}{view}" if view else f"{tgt}lq(addr)",
        )
        if self.timed:
            self._emit_dcache(out, ind, ra)

    def _k3(self, out, ind, s, i, op):  # K_STQ
        __, ra, rb, disp = op
        val = self._r(ra)
        addr = self._addr(rb, disp)
        if self.opt:
            self._mem_store(rb, disp, addr, val)
        if not self.prog.fast_mem:
            if self.timed:
                out.append(f"{ind}addr = {addr}")
                out.append(f"{ind}sq(addr, {val})")
            else:
                out.append(f"{ind}sq({addr}, {val})")
        else:
            if not self.timed and addr.isdigit():
                hit = self._const_quad(int(addr))
                if hit:
                    out.append(f"{ind}{hit[0]}[{hit[1]}] = {val}")
                else:
                    out.append(f"{ind}sq({addr}, {val})")
                return
            out.append(f"{ind}addr = {addr}")
            self._emit_quad_access(
                out, ind, rb,
                lambda view: (
                    f"{view} = {val}" if view else f"sq(addr, {val})"
                ),
            )
        if self.timed:
            self._emit_dcache(out, ind)

    def _k4(self, out, ind, s, i, op):  # K_LDL
        __, ra, rb, disp = op
        out.append(f"{ind}t = {self._addr(rb, disp)}")
        if self.opt:
            self._mat_deps(out, ind, ra)
            self._kill(ra)
        if ra == 31:
            out.append(f"{ind}lq(t & -8)")
        else:
            out.append(f"{ind}v = lq(t & -8)")
            out.append(f"{ind}w = (v >> ((t & 4) * 8)) & 4294967295")
            out.append(f"{ind}r{ra} = w | {_SEXT_HI} if w >> 31 else w")
        if self.timed and ra != 31:
            self._set_ready(out, ind, ra, LOAD_LATENCY)

    def _k5(self, out, ind, s, i, op):  # K_STL
        __, ra, rb, disp = op
        # A sub-quad store may alias any tracked quad: drop all facts.
        self.memtab.clear()
        out.append(f"{ind}sl({self._addr(rb, disp)}, {self._r(ra)})")

    def _k6(self, out, ind, s, i, op):  # K_LDBU
        __, ra, rb, disp = op
        tgt = f"r{ra} = " if ra != 31 else ""
        addr = self._addr(rb, disp)
        if self.opt:
            self._mat_deps(out, ind, ra)
            self._kill(ra)
        out.append(f"{ind}{tgt}lb({addr})")
        if self.timed and ra != 31:
            self._set_ready(out, ind, ra, LOAD_LATENCY)

    def _k7(self, out, ind, s, i, op):  # K_STB
        __, ra, rb, disp = op
        self.memtab.clear()
        out.append(f"{ind}sb({self._addr(rb, disp)}, {self._r(ra)})")

    def _k8(self, out, ind, s, i, op):  # K_LDQ_U
        __, ra, rb, disp = op
        tgt = f"r{ra} = " if ra != 31 else ""
        if rb == 31 or rb in self.kval:
            expr = repr((self.kval.get(rb, 0) + disp) & ~7 & _MASK)
        else:
            v = self._r(rb)
            base = f"({v} + {disp})" if disp else v
            expr = f"{base} & -8 & {_M}"
        if self.opt:
            self._mat_deps(out, ind, ra)
            self._kill(ra)
        out.append(f"{ind}{tgt}lq({expr})")
        if self.timed and ra != 31:
            self._set_ready(out, ind, ra, LOAD_LATENCY)

    def _operate_body(self, out, ind, s, i, op, lit: bool):
        __, fn, ra, rb, rc = op
        a = self._r(ra)
        b = repr(rb) if lit else self._r(rb)
        if 23 <= fn <= 28:  # cmov
            if rc == 31:
                return
            if self.opt and a.isdigit():
                # Condition decided at translation time (the move
                # itself may still carry a runtime value).
                if _operate(fn, int(a), 1, 0):
                    self._mat_deps(out, ind, rc)
                    if b.isdigit():
                        self._def(rc, int(b))
                    else:
                        self._kill(rc)
                        out.append(f"{ind}r{rc} = {b}")
                return
            if self.opt:
                self._mat_deps(out, ind, rc)
                # The old value is conditionally kept: materialize a
                # deferred or forwarded one before the branch.
                e = self.sym.pop(rc, None)
                if e is not None:
                    out.append(f"{ind}r{rc} = {e[0]}")
                if rc in self.defer:
                    out.append(f"{ind}r{rc} = {self.kval[rc]}")
                    self.defer.discard(rc)
                self._kill(rc)
            out.append(f"{ind}if {_CMOV_CONDS[fn].format(a=a)}:")
            out.append(f"{ind}    r{rc} = {b}")
        elif rc != 31:
            if self.opt and a.isdigit() and b.isdigit():
                self._mat_deps(out, ind, rc)
                self._def(rc, _operate(fn, int(a), int(b), 0))
                return
            if fn in (5, 6, 7):  # addl/subl/mull: 32-bit, sign-extended
                if self.opt:
                    self._mat_deps(out, ind, rc)
                    self._kill(rc)
                opch = {5: "+", 6: "-", 7: "*"}[fn]
                out.append(f"{ind}w = ({a} {opch} {b}) & 4294967295")
                out.append(f"{ind}r{rc} = w | {_SEXT_HI} if w >> 31 else w")
            else:
                expr = _op_expr(fn, a, b)
                if self.opt:
                    if expr == f"r{rc}":
                        return  # move to itself: no-op
                    self._mat_deps(out, ind, rc)
                    self._kill(rc)
                    cond = _cmp_cond(fn, a, b) if 9 <= fn <= 13 else None
                    if self._forward(s, i, rc, expr, cond):
                        return
                out.append(f"{ind}r{rc} = {expr}")
        if self.timed and rc != 31:
            self._set_ready(out, ind, rc, _OPERATE_LATENCY[fn])

    def _k9(self, out, ind, s, i, op):  # K_OP_RR
        self._operate_body(out, ind, s, i, op, lit=False)

    def _k10(self, out, ind, s, i, op):  # K_OP_RL
        self._operate_body(out, ind, s, i, op, lit=True)

    # Control bodies: these end the segment (goto / return / raise).

    def _taken_stall(self, out, ind, i) -> None:
        """A taken branch's bubble; it closes the slot."""
        self.cyc_off += TAKEN_BRANCH_PENALTY
        self.slot_open, self.so_stale = False, True
        self.tick += TAKEN_BRANCH_PENALTY
        self._attr(out, ind, i)

    def _emit_taken(self, out, ind, s, i, target) -> None:
        if self.timed:
            self._taken_stall(out, ind, i)
        self._goto(out, ind, s, target)

    def _emit_not_taken(self, out, ind, s, i) -> None:
        if self.timed:
            self._attr(out, ind, i)
        self._goto(out, ind, s, i + 1)

    def _k13(self, out, ind, s, i, op):  # K_CBR
        __, cond, ra, target = op
        if not self.timed and target == i + 1:
            # Branch to its own fall-through successor: the condition
            # is pure and both paths agree (only the timed model can
            # tell them apart), so emit the sequential path alone.
            self._emit_not_taken(out, ind, s, i)
            return
        value = 0 if ra == 31 else self.kval.get(ra)
        if value is not None:
            # Branch decided at translation time (r31 or a propagated
            # constant): emit only the surviving path.
            if _branch_taken(cond, value):
                self._emit_taken(out, ind, s, i, target)
            else:
                self._emit_not_taken(out, ind, s, i)
            return
        # Both runtime paths leave the segment, so deferred constants
        # must materialize before the test (once, shared by each arm).
        # The taken arm may splice in whole single-entry segments, so
        # the optimizer state it mutates is snapshotted around it and
        # restored for the fall-through path.
        self._flush(out, ind)
        test = None
        if self.opt and cond in (0, 1):
            e = self.sym.get(ra)
            if e is not None and e[2] is not None:
                # The branch tests a forwarded compare's truthiness:
                # substitute the boolean condition itself and never
                # materialize the 0/1 value.
                del self.sym[ra]
                test = e[2] if cond == 1 else f"not ({e[2]})"
        if test is None:
            test = _CBR_CONDS[cond].format(v=self._r(ra))
        out.append(f"{ind}if {test}:")
        saved = self._save()
        self.in_branch = True
        self._emit_taken(out, ind + "    ", s, i, target)
        self._restore(saved)
        self._emit_not_taken(out, ind, s, i)

    def _br_bsr(self, out, ind, s, i, op):
        __, ra, target = op
        if ra != 31:
            retaddr = self.prog.text_base + 4 * (i + 1)
            if self.opt:
                self._mat_deps(out, ind, ra)
                self._def(ra, retaddr)
            else:
                out.append(f"{ind}r{ra} = {retaddr}")
                if self.timed:
                    self._set_ready(out, ind, ra, 1)
        self._emit_taken(out, ind, s, i, target)

    _k11 = _br_bsr  # K_BR
    _k12 = _br_bsr  # K_BSR

    def _jump(self, out, ind, s, i, op):
        __, ra, rb = op
        prog = self.prog
        if self.opt and rb in self.kval:
            # The jump register holds a translation-time constant (a
            # bsr-planted return address, possibly round-tripped through
            # the stack via store-to-load forwarding): resolve the
            # dispatch statically and keep control inside the region.
            dest = self.kval[rb] & -4
            ni = (dest - prog.text_base) >> 2
            if 0 <= ni < prog.nwords:
                if ra != 31:
                    retaddr = prog.text_base + 4 * (i + 1)
                    self._mat_deps(out, ind, ra)
                    self._def(ra, retaddr)
                if ni in self.merged and ni in self.ret_spliced:
                    # Already spliced at another return site: exit to
                    # the driver, which roots a fresh region there,
                    # rather than duplicating code per return path.
                    for line in self._writeback(self._cnt_done(s)):
                        out.append(ind + line)
                    out.append(f"{ind}return {ni}")
                else:
                    if ni in self.merged:
                        self.ret_spliced.add(ni)
                    self._goto(out, ind, s, ni)
                return
        hint = self.prog.jump_hint.get(i) if op[0] == K_JSR else None
        if hint is not None and hint not in self.segs:
            hint = None
        out.append(f"{ind}dest = {self._r(rb)} & -4")
        if ra != 31:
            retaddr = prog.text_base + 4 * (i + 1)
            if self.opt:
                self._mat_deps(out, ind, ra)
                self._def(ra, retaddr)
            else:
                out.append(f"{ind}r{ra} = {retaddr}")
                if self.timed:
                    self._set_ready(out, ind, ra, 1)
        if hint is not None:
            # Guarded devirtualization: if the register agrees with the
            # linker's hint, control continues inside the region (the
            # callee often splices right here); otherwise fall back to
            # the driver dispatch.  Cycle effects precede the split so
            # both arms see identical timing state.
            if self.timed:
                self._taken_stall(out, ind, i)
            out.append(f"{ind}if dest == {prog.text_base + 4 * hint}:")
            saved = self._save()
            self.in_branch = True
            self._goto(out, ind + "    ", s, hint)
            self._restore(saved)
            out.append(f"{ind}else:")
            ind = ind + "    "
        out.append(f"{ind}ni = (dest - {prog.text_base}) >> 2")
        out.append(f"{ind}if ni < 0 or ni >= {prog.nwords}:")
        out.append(
            f'{ind}    raise MachineError('
            f'"jump to unmapped address 0x%x" % dest)'
        )
        if self.timed and hint is None:
            self._taken_stall(out, ind, i)
        if self.loop_form:
            # A computed target that is one of this region's own heads
            # (a ret bouncing back to a call continuation, usually)
            # re-enters the dispatch cascade instead of exiting to the
            # driver; the cascade's membership tail routes any head
            # from any nesting depth.
            heads = ", ".join(str(h) for h in sorted(self.pos))
            out.append(f"{ind}if ni in ({heads},):")
            saved = (dict(self.kval), set(self.defer))
            self._flush(out, ind + "    ")
            self._sync_issue(out, ind + "    ")
            out.append(f"{ind}    cnt += {self.pending + self.prog.seg_len[s]}")
            out.append(f"{ind}    pc = ni")
            out.append(f"{ind}    {'break' if self.self_loop else 'continue'}")
            self.kval, self.defer = saved
        for line in self._writeback(self._cnt_done(s)):
            out.append(ind + line)
        out.append(f"{ind}return ni")

    _k14 = _jump  # K_JSR
    _k15 = _jump  # K_RET
    _k16 = _jump  # K_JMP

    def _k17(self, out, ind, s, i, op):  # K_PAL
        func = op[1]
        if func == PalFunc.HALT:
            if self.cyc:
                # Charge the halting word, as the interpreter does.
                out.append(f"{ind}cyc[{i}] += {self._cycle()} - prev")
            for line in self._writeback(self._cnt_done(s)):
                out.append(ind + line)
            out.append(f"{ind}return {HALT}")
        elif func == PalFunc.PUTINT:
            v = self._r(16)
            out.append(f"{ind}out.append(str({_sgn(v)}))")
            out.append(f'{ind}out.append("\\n")')
        elif func == PalFunc.PUTCHAR:
            v = self._r(16)
            if v.isdigit():
                out.append(f"{ind}out.append({chr(int(v) & 255)!r})")
            else:
                out.append(f"{ind}out.append(chr({v} & 255))")
        elif func == PalFunc.GETTICKS:
            if self.timed:
                out.append(f"{ind}r0 = {self._cycle()}")
                self._set_ready(out, ind, 0, 1)
            else:
                if self.opt:
                    self._mat_deps(out, ind, 0)
                    self._kill(0)
                out.append(f"{ind}r0 = cnt + {self.pending + (i - s) + 1}")

    # -- whole-region assembly ---------------------------------------------

    def _group_run(self, s: int, j: int) -> int:
        """Length of a groupable run of ldq/stq at segment offset ``j``.

        A run shares one base register (not redefined mid-run except by
        its last member), uses 8-aligned displacements, and fits inside
        either memory region, so a single bounds/alignment guard covers
        every member.
        """
        prog = self.prog
        seglen = prog.seg_len[s]
        first = prog.decoded[s + j]
        if first[0] not in (K_LDQ, K_STQ):
            return 1
        base = first[2]
        if base == 31 or base in self.kval or base in self.sym \
                or first[3] % 8:
            return 1
        if first[0] == K_LDQ and (base, first[3]) in self.memtab:
            # A tracked store already proved this slot's value: let the
            # scalar path elide the load (and the rest of the would-be
            # run retries here, member by member).
            return 1
        n = 1
        disps = [first[3]]
        if not (first[0] == K_LDQ and first[1] == base):
            while j + n < seglen:
                op = prog.decoded[s + j + n]
                if op[0] not in (K_LDQ, K_STQ) or op[2] != base or op[3] % 8:
                    break
                n += 1
                disps.append(op[3])
                if op[0] == K_LDQ and op[1] == base:
                    break  # base clobbered: this load ends the run
        span = max(disps) - min(disps) + 8
        if span > prog.stack_len or span > prog.data_len:
            return 1
        return n

    def _emit_group(self, out, ind, s, j, n) -> None:
        """One guard, ``n`` quad accesses off a common base register."""
        prog = self.prog
        ops = [prog.decoded[s + j + k] for k in range(n)]
        lo = min(op[3] for op in ops)
        span = max(op[3] for op in ops) - lo + 8
        base = f"r{ops[0][2]}"
        # Freeze operand renderings in program order: store values use
        # the constant environment as of their position; load targets
        # invalidate theirs.
        members = []
        for kind, ra, rb, disp in ops:
            addr = self._addr(rb, disp)
            val = self._r(ra) if kind == K_STQ else None
            members.append((kind, ra, (disp - lo) >> 3, addr, val))
            if kind == K_STQ:
                self._mem_store(rb, disp, addr, val)
            else:
                self._mat_deps(out, ind, ra)
                self._kill(ra)
                if ra != 31 and ra != rb:
                    self.memtab[(rb, disp)] = f"r{ra}"

        def fast(view, pad):
            out.append(f"{pad}bi = o >> 3")
            for kind, ra, delta, __, val in members:
                sub = f"bi + {delta}" if delta else "bi"
                if kind == K_STQ:
                    out.append(f"{pad}{view}[{sub}] = {val}")
                elif ra != 31:
                    out.append(f"{pad}r{ra} = {view}[{sub}]")

        def slow(pad):
            for kind, ra, __, addr, val in members:
                if kind == K_STQ:
                    out.append(f"{pad}sq({addr}, {val})")
                else:
                    tgt = f"r{ra} = " if ra != 31 else ""
                    out.append(f"{pad}{tgt}lq({addr})")

        # lo is 8-aligned and so are the region bases, so o shares the
        # base address's alignment and _quad_guard applies unchanged.
        (v1, b1, l1), (v2, b2, l2) = self._quad_regions(ops[0][2])
        out.append(f"{ind}o = {base} - {b1 - lo}")
        out.append(f"{ind}if {self._quad_guard(l1, span)}:")
        fast(v1, ind + "    ")
        out.append(f"{ind}else:")
        out.append(f"{ind}    o = {base} - {b2 - lo}")
        out.append(f"{ind}    if {self._quad_guard(l2, span)}:")
        fast(v2, ind + "        ")
        out.append(f"{ind}    else:")
        slow(ind + "        ")

    def _emit_tree(self, out, ind, head) -> None:
        """Emit one tree: its head segment plus every single-entry
        successor spliced inline at its unique entry edge.

        The tree pays a single budget bail (conservative: assumes the
        whole tree will run) and folds per-segment ``cnt`` updates into
        each exit via ``self.pending``.  Per-segment ``execs`` counters
        sit at each segment's inline position — inside the branch arm
        that reaches it — so count expansion remains exact on every
        path through the tree.
        """
        self.cur_head = head
        self._reset_consts()
        self.pending = 0
        self.prev_class = self.slot_open = None
        self.so_stale = False
        self.tick = self.epoch = self.cyc_off = 0
        self.written = {}
        if self.loop_form:
            # Budget bail: if this tree might blow the budget, hand
            # back to the driver, which lets the interpreter finish
            # the run and trip at its exact index.
            out.append(f"{ind}if cnt + {self.tree_total[head]} > limit:")
            for line in self._writeback("cnt"):
                out.append(f"{ind}    {line}")
            out.append(f"{ind}    return {head}")
        self._emit_seg(out, ind, head)

    def _emit_seg(self, out, ind, s) -> None:
        prog = self.prog
        seglen = prog.seg_len[s]
        if self.counting:
            out.append(f"{ind}execs[{s}] += 1")
        group_ok = self.opt and prog.fast_mem
        j = 0
        while j < seglen:
            n = self._group_run(s, j) if group_ok else 1
            if n >= 2:
                self._emit_group(out, ind, s, j, n)
                j += n
                if j == seglen:
                    self._goto(out, ind, s, s + seglen)
            else:
                self._emit_instr(out, ind, s, s + j, j)
                j += 1

    def _emit_items(self, out, arm, items) -> None:
        """Emit a level of the weak topological order.

        Plain items become ``if pc == s:`` arms; loop items nest a
        ``while True:`` whose membership tail re-dispatches back edges
        locally instead of rescanning the whole cascade.  A ``continue``
        from a deeper level restarts the innermost loop; its membership
        tail then either continues (target inside) or breaks outward
        until the loop owning the target is reached.
        """
        body = arm + "    "
        for it in items:
            if isinstance(it, tuple) and not it[1]:
                # Single-arm loop: the dispatch test runs once on entry
                # and every iteration is pure body — back edges are a
                # bare ``continue`` (``pc`` still holds the head), other
                # targets set ``pc`` and ``break`` out to the cascade.
                head = it[0]
                out.append(f"{arm}if pc == {head}:")
                out.append(f"{body}while True:")
                self.self_loop = True
                self.loop_exits = set()
                self._emit_tree(out, body + "    ", head)
                self.self_loop = False
                back = sorted(
                    t for t in self.loop_exits
                    if self.pos[t] < self.pos[head]
                )
                if back:
                    names = ", ".join(str(t) for t in back)
                    out.append(f"{body}if pc in ({names},):")
                    out.append(f"{body}    continue")
            elif isinstance(it, tuple):
                head, sub = it
                members: list[int] = []
                _wto_flatten([it], members)
                out.append(f"{arm}while True:")
                out.append(f"{body}if pc == {head}:")
                self._emit_tree(out, body + "    ", head)
                self._emit_items(out, body, sub)
                names = ", ".join(str(m) for m in sorted(members))
                out.append(f"{body}if pc in ({names},):")
                out.append(f"{body}    continue")
                out.append(f"{body}break")
            else:
                out.append(f"{arm}if pc == {it}:")
                self._emit_tree(out, body, it)

    def source(self) -> tuple[str, str]:
        name = f"_jit_region_{self.start}"
        # ``pc`` selects the head a loop-form region is entered at;
        # other regions have just their root and ignore it.
        out = [
            f"def {name}(regs, st, out, mem, ready, itags, dtags, "
            f"cyc, execs, pc={self.start}):"
        ]
        ind = "    "
        out.append(f"{ind}cnt = st[0]")
        if self.loop_form:  # only the trees' budget bails read it
            out.append(f"{ind}limit = st[1]")
        if self.timed:
            out.append(f"{ind}cycle = st[2]")
            out.append(f"{ind}so = st[3]")
            out.append(f"{ind}sc = st[4]")
            out.append(f"{ind}du = st[7]")
        if self.cyc:
            out.append(f"{ind}prev = st[8]")
        names = ("lq", "sq", "lb", "sb", "sl", "qd", "qs", "bd", "bs")
        unpack = [
            (helper, idx) for idx, helper in enumerate(names)
            if helper in self.helpers
        ]
        if unpack:
            out.append(
                f"{ind}" + ", ".join(h for h, _ in unpack) + " = "
                + ", ".join(f"mem[{i}]" for _, i in unpack)
            )
        if self.used:
            out.append(
                f"{ind}" + ", ".join(f"r{r}" for r in self.used) + " = "
                + ", ".join(f"regs[{r}]" for r in self.used)
            )
        if self.loop_form:
            out.append(f"{ind}while True:")
            arm = ind + "    "
            # Weak topological order: forward edges fall through the
            # arm cascade, loops nest as local ``while`` bodies so a
            # back edge only rescans its own loop's arms.
            self._emit_items(out, arm, self.tree)
            # Full-membership tail: a dynamically dispatched ``pc``
            # (an in-region ret target) that broke out of every nested
            # loop rescans the whole cascade instead of falling off.
            heads = ", ".join(str(h) for h in sorted(self.pos))
            out.append(f"{arm}if pc in ({heads},):")
            out.append(f"{arm}    continue")
            out.append(
                f'{arm}raise MachineError("jit dispatch lost: %d" % pc)'
            )
        else:
            self._emit_tree(out, ind, self.start)
        return "\n".join(out) + "\n", name


# -- compiled program, region discovery, cache ------------------------------


@dataclass
class JitStats:
    """Translation-cache counters for one compiled program.

    ``handoffs`` counts a first run's driver visits that the interpreter
    ran a cold head's segment for, and ``handoff_words`` the words those
    visits ran.  ``build_s`` is the wall time spent translating regions,
    generating plus ``compile()``: a measurement, unlike the counts.
    """

    regions: int = 0
    segments: int = 0
    words: int = 0
    fallback_steps: int = 0
    invalidations: int = 0
    handoffs: int = 0
    handoff_words: int = 0
    build_s: float = 0.0


class CompiledProgram:
    """Per-executable translation state, shared across runs."""

    def __init__(self, decoded, text_base, entry_index, proc_indexes,
                 layout=(0, 0, 0, 0), text=b""):
        self.decoded = decoded
        self.text_base = text_base
        self.nwords = len(decoded)
        #: jsr word index -> linker-hinted target word index.  The
        #: 14-bit hint field predicts the low bits of ``target >> 2``;
        #: when the text spans at most 2**14 words the prediction is
        #: unambiguous.  It is advisory only (function pointers carry
        #: hint 0, which we treat as unset), so every use is guarded by
        #: a runtime compare against the actual jump register.
        self.jump_hint: dict[int, int] = {}
        if self.nwords <= 16384 and len(text) >= 4 * self.nwords:
            base2 = (text_base >> 2) & 0x3FFF
            for i, op in enumerate(decoded):
                if op[0] != K_JSR:
                    continue
                h = int.from_bytes(text[4 * i:4 * i + 4], "little") & 0x3FFF
                wi = (h - base2) % 16384
                if h and wi < self.nwords:
                    self.jump_hint[i] = wi
        self.data_base, self.data_len, self.stack_base, self.stack_len = (
            layout
        )
        # The inline data/stack fast paths assume 8-aligned region bases
        # (offset alignment then equals address alignment); anything
        # else routes every access through the memory helpers.
        self.fast_mem = (
            self.data_base % 8 == 0
            and self.stack_base % 8 == 0
            and self.stack_len % 8 == 0
            and self.stack_len > 0
        )
        self.splits = self._compute_splits(entry_index, proc_indexes)
        #: word index -> segment length (0 marks an untranslatable start).
        #: Purely a function of the global split points, so overlapping
        #: regions always agree on segment boundaries — which is what
        #: makes the per-segment execution counters expandable to exact
        #: per-word counts.
        self.seg_len: dict[int, int] = {}
        #: flavor -> {index: (fn, max_segment_len) | _FALLBACK}, keyed
        #: by every region root and every head of a loop-form region.
        self.tables: dict[tuple, dict] = {}
        self.sources: dict[tuple, str] = {}
        self.stats = JitStats()
        #: Set when the first run starts; later runs translate eagerly.
        self.started = False
        self._lock = threading.Lock()

    def _compute_splits(self, entry_index, proc_indexes) -> frozenset:
        splits = {entry_index}
        splits.update(proc_indexes)
        for i, op in enumerate(self.decoded):
            kind = op[0]
            if kind == K_CBR:
                splits.add(op[3])
                splits.add(i + 1)
            elif kind == K_BR or kind == K_BSR:
                splits.add(op[2])
                splits.add(i + 1)
            elif kind in (K_JSR, K_JMP, K_RET):
                splits.add(i + 1)
            elif kind == K_PAL and op[1] == PalFunc.HALT:
                splits.add(i + 1)
        return frozenset(s for s in splits if 0 <= s < self.nwords)

    def segment_end(self, s: int):
        """End (exclusive) of the segment starting at ``s``, or None."""
        n = self.seg_len.get(s)
        if n is None:
            n = self._scan_segment(s)
            self.seg_len[s] = n
        return s + n if n else None

    def _scan_segment(self, s: int) -> int:
        decoded = self.decoded
        if not _can_translate(decoded[s]):
            return 0
        i = s
        while True:
            op = decoded[i]
            kind = op[0]
            i += 1
            if kind in _CONTROL_KINDS or (
                kind == K_PAL and op[1] == PalFunc.HALT
            ):
                break
            if (
                i >= self.nwords
                or i in self.splits
                or not _can_translate(decoded[i])
            ):
                break
        return i - s

    def region_targets(self, s: int):
        """Successor word indexes of the segment starting at ``s``."""
        op = self.decoded[s + self.seg_len[s] - 1]
        kind = op[0]
        if kind == K_CBR:
            return (op[3], s + self.seg_len[s])
        if kind == K_BR:
            return (op[2],)
        if kind == K_BSR:
            # A direct call: the callee entry is a real successor, and
            # the fall-through is where a constant-folded ret lands --
            # including both lets a single-site leaf call collapse into
            # its caller's tree with no driver transition either way.
            return (op[2], s + self.seg_len[s])
        if kind == K_JSR:
            # A hinted indirect call behaves like a direct one for
            # discovery and tree building; the emitted code still
            # guards the prediction against the live jump register.
            hint = self.jump_hint.get(s + self.seg_len[s] - 1)
            if hint is not None:
                return (hint, s + self.seg_len[s])
            return ()
        if kind in (K_JMP, K_RET):
            return ()
        if kind == K_PAL and op[1] == PalFunc.HALT:
            return ()
        return (s + self.seg_len[s],)

    def _discover(self, start: int):
        segs: dict[int, int] = {}
        order: list[int] = []
        queue = deque([start])
        while queue and len(order) < _REGION_SEGMENT_CAP:
            s = queue.popleft()
            if s in segs:
                continue
            end = self.segment_end(s)
            if end is None:
                continue
            segs[s] = end
            order.append(s)
            for t in self.region_targets(s):
                if 0 <= t < self.nwords and t not in segs:
                    queue.append(t)
        return segs, order

    def build(self, start: int, flavor: tuple):
        """Translate (or fetch) the region rooted at ``start``."""
        with self._lock:
            table = self.tables.setdefault(flavor, {})
            entry = table.get(start)
            if entry is not None:
                return entry
            if not _can_translate(self.decoded[start]):
                table[start] = _FALLBACK
                return _FALLBACK
            began = time.perf_counter()
            segs, order = self._discover(start)
            em = _Emitter(self, flavor, start, segs, order)
            src, name = em.source()
            namespace = {
                "MachineError": MachineError,
                "str": str,
                "chr": chr,
                "__builtins__": {},
            }
            exec(compile(src, f"<jit:{start}>", "exec"), namespace)
            # Popping the function breaks the function <-> globals
            # cycle, so a dropped translation is freed at once, not at
            # the next full collection.
            entry = (namespace.pop(name), em.max_unit)
            table[start] = entry
            if em.loop_form:
                # The cascade dispatches any head, so control arriving
                # at one enters this region instead of rooting a new
                # one over the same code.
                for head in em.pos:
                    table.setdefault(head, entry)
            self.sources[(flavor, start)] = src
            self.stats.regions += 1
            self.stats.segments += len(order)
            self.stats.words += sum(segs[s] - s for s in order)
            self.stats.build_s += time.perf_counter() - began
            return entry

    def invalidate(self) -> None:
        """Drop every translation; the next run recompiles lazily, each
        head on first entry (a run has already started)."""
        with self._lock:
            self.tables.clear()
            self.seg_len.clear()
            self.sources.clear()
            self.stats.invalidations += 1


_JIT_CACHE: "OrderedDict[str, CompiledProgram]" = OrderedDict()
_JIT_CACHE_CAP = 64
_JIT_CACHE_LOCK = threading.Lock()


def program_for(machine: Machine) -> CompiledProgram:
    """The shared compiled-program image for a loaded machine."""
    exe = machine.executable
    layout = (
        machine.data_base, len(machine.data),
        machine.stack_base, len(machine.stack),
    )
    h = hashlib.sha256(machine.text)
    h.update(machine.text_base.to_bytes(8, "little"))
    h.update(exe.entry.to_bytes(8, "little"))
    # Memory-layout constants are baked into the generated fast paths,
    # so they are part of the translation identity.
    for bound in layout:
        h.update(bound.to_bytes(8, "little"))
    for proc in exe.procs:
        h.update(proc.addr.to_bytes(8, "little", signed=True))
    key = h.hexdigest()
    with _JIT_CACHE_LOCK:
        prog = _JIT_CACHE.get(key)
        if prog is not None:
            _JIT_CACHE.move_to_end(key)
            return prog
    entry_index = (exe.entry - machine.text_base) >> 2
    proc_indexes = [
        (proc.addr - machine.text_base) >> 2 for proc in exe.procs
    ]
    prog = CompiledProgram(
        machine._decoded, machine.text_base, entry_index, proc_indexes,
        layout=layout, text=bytes(machine.text),
    )
    with _JIT_CACHE_LOCK:
        existing = _JIT_CACHE.get(key)
        if existing is not None:
            return existing
        _JIT_CACHE[key] = prog
        while len(_JIT_CACHE) > _JIT_CACHE_CAP:
            _JIT_CACHE.popitem(last=False)
    return prog


def clear_jit_cache() -> None:
    """Drop every cached translation (tests, memory pressure)."""
    with _JIT_CACHE_LOCK:
        _JIT_CACHE.clear()


def jit_cache_len() -> int:
    with _JIT_CACHE_LOCK:
        return len(_JIT_CACHE)


# -- the driver --------------------------------------------------------------


class JitMachine(Machine):
    """A :class:`Machine` whose run loops execute translated regions."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._jit_prog = None

    def jit_program(self) -> CompiledProgram:
        if self._jit_prog is None:
            self._jit_prog = program_for(self)
        return self._jit_prog

    def _run_functional(self, counts=None) -> RunResult:
        return self._run_jit(False, counts, None)

    def _run_timed(self, counts=None, cycle_counts=None) -> RunResult:
        return self._run_jit(True, counts, cycle_counts)

    def _run_jit(self, timed, counts, cycle_counts) -> RunResult:
        program = self.jit_program()
        counting = counts is not None
        flavor = (timed, counting, timed and cycle_counts is not None)
        with program._lock:
            table = program.tables.setdefault(flavor, {})
            # The first run counts down the driver's visits to each
            # untranslated head; a later run has no counts and translates
            # on first entry.
            visits = (None if program.started
                      else [_HOT_ENTRIES] * program.nwords)
            program.started = True

        regs, st, index = self._initial_state()
        limit = st[1]
        out: list[str] = []
        # One pair of quad views serves the whole run: the regions and
        # every interpreter call.
        views = self._quad_views()
        qd, qs = views
        mem = (self._load_q, self._store_q, self._load_byte,
               self._store_byte, self._store_long, qd, qs,
               self.data, self.stack)
        if timed:
            ready = [0] * 32
            itags = [-1] * _IN_LINES
            dtags = [-1] * _DN_LINES
            interp = self._loop_timed
        else:
            ready = itags = dtags = None
            interp = self._loop_functional
        execs = [0] * program.nwords if counting else None
        stats = program.stats
        build = program.build
        segment_end = program.segment_end
        seg_len = program.seg_len
        get = table.get
        handoffs = handoff_words = 0

        try:
            while True:
                if index >= 0:
                    entry = get(index)
                    if entry is None:
                        if visits is not None:
                            visits[index] -= 1
                            if index not in seg_len:
                                segment_end(index)
                            if visits[index] and seg_len[index]:
                                # A cold head: the interpreter runs its
                                # segment, and never past the budget.
                                count = st[0]
                                stop = count + seg_len[index]
                                index = interp(regs, st, out, index, counts,
                                               cycle_counts, ready, itags, dtags,
                                               stop if stop < limit else limit,
                                               views)
                                handoffs += 1
                                handoff_words += st[0] - count
                                continue
                        entry = build(index, flavor)
                    if entry is _FALLBACK:
                        stats.fallback_steps += 1
                    elif st[0] + entry[1] <= limit:
                        index = entry[0](regs, st, out, mem, ready, itags,
                                         dtags, cycle_counts, execs, index)
                        continue
                    else:
                        # Fewer words remain in the budget than the
                        # region's largest tree: the interpreter runs
                        # the rest, halting or tripping at its own index
                        # within ``entry[1]`` words.
                        index = interp(regs, st, out, index, counts,
                                       cycle_counts, ready, itags, dtags,
                                       limit, views)
                        continue
                elif index == HALT:
                    break
                # One interpreter step: an untranslatable word, or a
                # negative branch target, which the interpreter wraps
                # around by list indexing.  The stop never passes the
                # budget, so a word past it trips instead of running.
                index = interp(regs, st, out, index, counts, cycle_counts,
                               ready, itags, dtags,
                               st[0] + 1 if st[0] < limit else limit, views)
        finally:
            qd.release()
            qs.release()
            stats.handoffs += handoffs
            stats.handoff_words += handoff_words
            if counting:
                # Expand per-segment execution counters to per-word
                # counts; valid even across overlapping regions because
                # segmentation is a pure function of the split points.
                seg_len = program.seg_len
                for s, hits in enumerate(execs):
                    if hits:
                        for i in range(s, s + seg_len[s]):
                            counts[i] += hits

        return RunResult.from_state(st, out, timed)


class JitProfilingMachine(JitMachine, ProfilingMachine):
    """Profiling machine running on the JIT loops.

    ``run_profiled`` comes from :class:`ProfilingMachine`; the count and
    cycle hooks it passes land in :meth:`JitMachine._run_timed` /
    ``_run_functional``, so attribution arrays are filled by the same
    translated code that produces the run result.
    """
