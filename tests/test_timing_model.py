"""Timing-model tests: the micro-architectural terms behind Figure 6."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.registers import Reg
from repro.isa.textasm import assemble_text
from repro.isa.timing import (
    OP_FACTS,
    can_dual_issue,
    issue_class,
    result_latency,
)
from repro.experiments import build
from repro.linker import link
from repro.linker.executable import TEXT_BASE
from repro.linker.layout import LayoutOptions
from repro.machine import BACKENDS, Machine, run
from repro.machine.cpu import _DN_LINES, _IN_LINES
from repro.machine.jit import JitProfilingMachine, clear_jit_cache
from repro.machine.profile import ProfilingMachine
from repro.minicc import Options, compile_module

NOSCHED = Options(schedule=False)


def cycles_of(source, libmc, crt0, options=NOSCHED):
    exe = link([crt0, compile_module(source, "t.o", options)], [libmc])
    return run(exe)


# -- static model properties --------------------------------------------------


def test_issue_classes():
    assert issue_class(Instruction.mem("ldq", Reg.T0, Reg.SP, 0)) == "M"
    assert issue_class(Instruction.opr("addq", Reg.T0, Reg.T1, Reg.T2)) == "I"
    assert issue_class(Instruction.branch("br", Reg.ZERO, 0)) == "B"
    assert issue_class(Instruction.jump("ret", Reg.ZERO, Reg.RA)) == "B"
    assert issue_class(Instruction.pal(0)) == "B"


def test_dual_issue_pairs():
    load = Instruction.mem("ldq", Reg.T0, Reg.SP, 0)
    add = Instruction.opr("addq", Reg.T1, Reg.T2, Reg.T3)
    branch = Instruction.branch("bne", Reg.T4, 0)
    assert can_dual_issue(load, add)
    assert can_dual_issue(add, branch)
    assert can_dual_issue(load, branch)
    assert not can_dual_issue(add, add)
    assert not can_dual_issue(load, load)
    assert not can_dual_issue(branch, branch)


def test_latencies():
    assert result_latency(Instruction.mem("ldq", Reg.T0, Reg.SP, 0)) == 3
    assert result_latency(Instruction.opr("mulq", Reg.T0, Reg.T1, Reg.T2)) > 3
    assert result_latency(Instruction.opr("addq", Reg.T0, Reg.T1, Reg.T2)) == 1
    # LDA is address arithmetic, not a memory access.
    assert result_latency(Instruction.mem("lda", Reg.T0, Reg.SP, 0)) == 1


#: One operate result consumed by the next instruction ({src} = $t2)
#: or not ({src} = $t1); both consumers issue in the integer pipe.
_LATENCY_PROBE = """
        .ent    main
main:   lda     $t0, 3($zero)
        lda     $t1, 5($zero)
        {op}    $t0, $t1, $t2
        addq    {src}, 1, $t3
        lda     $a0, 7($zero)
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main
"""


@pytest.mark.parametrize("name", ["mulq", "mull", "umulh", "addq"])
def test_operate_latency_matches_the_scheduler_table(name, libmc, crt0):
    """The timing model charges each operate the result latency the
    schedulers read from ``OP_FACTS``, on every backend."""

    def cycles(src, backend):
        source = _LATENCY_PROBE.format(op=name, src=src)
        exe = link([crt0, assemble_text(source, "t.o")], [libmc])
        return run(exe, backend=backend).cycles

    for backend in BACKENDS:
        # The JIT's first runs interpret the probes; its second runs
        # translate them.
        clear_jit_cache()
        for __ in range(2 if backend == "jit" else 1):
            stall = cycles("$t2", backend) - cycles("$t1", backend)
            assert stall == OP_FACTS[name].latency - 1, backend


# -- end-to-end timing behaviour --------------------------------------------------


def test_dependent_muls_slower_than_independent(libmc, crt0):
    dependent = """
    int main() {
        int x = 3;
        int i;
        for (i = 0; i < 200; i++) { x = x * x; }
        __putint(x & 1);
        return 0;
    }
    """
    independent = """
    int main() {
        int a = 3;
        int b = 5;
        int c = 7;
        int i;
        int x = 0;
        for (i = 0; i < 200; i++) { x = x + a + b + c + i; }
        __putint(x & 1);
        return 0;
    }
    """
    slow = cycles_of(dependent, libmc, crt0)
    fast = cycles_of(independent, libmc, crt0)
    # Same order of instruction counts, very different CPIs: the chained
    # multiply pays its latency every iteration.
    assert slow.cpi > 2.0
    assert fast.cpi < 1.8


def test_scheduling_reduces_cycles(libmc, crt0):
    source = """
    int a[64];
    int b[64];
    int main() {
        int i;
        int s = 0;
        for (i = 0; i < 64; i++) {
            s = s + a[i] * 3 + b[i] * 5 + i;
        }
        __putint(s);
        return 0;
    }
    """
    unscheduled = cycles_of(source, libmc, crt0, NOSCHED)
    scheduled = cycles_of(source, libmc, crt0, Options(schedule=True))
    assert scheduled.output == unscheduled.output
    assert scheduled.instructions == unscheduled.instructions
    assert scheduled.cycles <= unscheduled.cycles


def test_load_use_stall_visible(libmc, crt0):
    """Back-to-back load-use pays the 2-cycle bubble; separating the
    pair with independent work hides it."""
    chained = """
    int a[256];
    int main() {
        int i;
        int s = 0;
        for (i = 0; i < 256; i++) { s = s ^ a[i]; }
        __putint(s);
        return 0;
    }
    """
    result = cycles_of(chained, libmc, crt0)
    # Unscheduled: each iteration has ldq immediately used by xor.
    assert result.cpi > 1.3


# -- the I-cache probe rule ---------------------------------------------------
#
# The timed loop probes the I-cache only when a fetch enters a new line,
# follows a taken branch or starts a loop call; the pins below were
# recorded when it probed on every word.  Each program is linked with
# ``main`` at the text base, which sits at a line start (TEXT_BASE) or
# mid-line (TEXT_BASE + 16), so word indexes and line boundaries differ.

#: Thirteen straight-line words: the fall-through crosses one line
#: boundary at TEXT_BASE and two at TEXT_BASE + 16.
PROBE_FALL = """
        .ent    main
main:   lda     $t0, 1($zero)
        addq    $t0, 1, $t1
        addq    $t1, 1, $t2
        addq    $t2, 1, $t3
        addq    $t3, 1, $t4
        addq    $t4, 1, $t5
        addq    $t5, 1, $t6
        addq    $t6, 1, $t7
        addq    $t7, 1, $t0
        addq    $t0, 1, $t1
        addq    $t1, 1, $a0
        call_pal putint
        call_pal halt
        .end    main
"""

#: A three-word loop whose taken branch stays inside one line at
#: TEXT_BASE and crosses back over a line boundary at TEXT_BASE + 16.
PROBE_INLINE = """
        .ent    main
main:   lda     $t0, 5($zero)
        lda     $a0, 0($zero)
loop:   addq    $a0, 3, $a0
        subq    $t0, 1, $t0
        bne     $t0, loop
        call_pal putint
        call_pal halt
        .end    main
"""

#: A four-word loop that straddles two lines at TEXT_BASE.
PROBE_STRADDLE = """
        .ent    main
main:   lda     $t0, 6($zero)
        lda     $a0, 0($zero)
        nop
        nop
        nop
loop:   addq    $a0, 3, $a0
        addq    $a0, 1, $a0
        subq    $t0, 1, $t0
        bne     $t0, loop
        call_pal putint
        call_pal halt
        .end    main
"""

PROBE_PROGRAMS = {
    "fall": PROBE_FALL, "inline": PROBE_INLINE, "straddle": PROBE_STRADDLE,
}

#: (program, text base offset) -> ((cycles, I-cache misses, dual
#: issues), per-word cycle counts).
PROBE_PINS = {
    ("fall", 0): ((32, 2, 1), [11, 1, 1, 1, 1, 1, 1, 1, 11, 1, 1, 0, 1]),
    ("fall", 16): ((42, 3, 1), [11, 1, 1, 1, 11, 1, 1, 1, 1, 1, 1, 0, 11]),
    ("inline", 0): ((33, 1, 0), [11, 1, 5, 5, 9, 1, 1]),
    ("inline", 16): ((43, 2, 0), [11, 1, 5, 5, 19, 1, 1]),
    ("straddle", 0): ((55, 2, 1), [11, 1, 0, 1, 1, 6, 6, 6, 21, 1, 1]),
    ("straddle", 16): ((55, 2, 1), [11, 1, 0, 1, 11, 6, 6, 6, 11, 1, 1]),
}

#: (program, text base offset) -> the sums, over every stop count
#: inside the run, of the final cycles and I-cache misses when the run
#: stops there, its I-cache is emptied, and it runs on.
RESUME_PINS = {
    ("fall", 0): (495, 35),
    ("fall", 16): (605, 46),
    ("inline", 0): (774, 36),
    ("inline", 16): (1064, 65),
    ("straddle", 0): (2141, 109),
    ("straddle", 16): (1941, 89),
}


def _probe_exe(libmc, name, shift):
    source = PROBE_PROGRAMS[name]
    return link([assemble_text(source, "probe.o")], [libmc], entry="main",
                options=LayoutOptions(text_base=TEXT_BASE + shift))


def _profiled_timed(cls, exe):
    machine = cls(exe)
    result = machine.run_profiled(timed=True).run
    return result, machine.counts, machine.cycle_counts


def _first_and_second(exe):
    """The timed JIT's profiled runs of ``exe`` on a cold translation
    cache: a first run, which interprets each head until it is hot,
    then one that translates each head on first entry."""
    clear_jit_cache()
    return (_profiled_timed(JitProfilingMachine, exe),
            _profiled_timed(JitProfilingMachine, exe))


@pytest.mark.parametrize("name, shift", sorted(PROBE_PINS))
def test_probe_rule_matches_the_pins_and_the_jit(name, shift, libmc):
    """Line crossings by fall-through, taken branches inside and across
    lines, and a line-aligned or mid-line text base: the interpreter's
    cycles, I-cache misses and per-word cycle counts equal the pins
    and the timed JIT's."""
    exe = _probe_exe(libmc, name, shift)
    result, counts, cycle_counts = _profiled_timed(ProfilingMachine, exe)
    totals = (result.cycles, result.icache_misses, result.dual_issues)
    assert (totals, cycle_counts) == PROBE_PINS[name, shift]
    assert _first_and_second(exe) == ((result, counts, cycle_counts),) * 2


@pytest.mark.parametrize("name, shift", sorted(RESUME_PINS))
def test_probe_rule_on_a_resumed_run(name, shift, libmc):
    """A run stopped at any word, including mid-line, resumes exactly
    where it left off; when the I-cache is emptied in between, the
    first fetch of the resumed call probes and misses."""
    exe = _probe_exe(libmc, name, shift)
    whole = Machine(exe).run(timed=True)
    sums = [0, 0]
    for stop in range(1, whole.instructions):
        for evict in (False, True):
            machine = Machine(exe)
            regs, st, index = machine._initial_state()
            out = []
            ready, itags, dtags = [0] * 32, [-1] * _IN_LINES, [-1] * _DN_LINES
            views = machine._quad_views()
            index = machine._loop_timed(regs, st, out, index, None, None,
                                        ready, itags, dtags, stop, views)
            assert st[0] == stop
            if evict:
                itags[:] = [-1] * _IN_LINES
            machine._loop_timed(regs, st, out, index, None, None, ready,
                                itags, dtags, st[1], views)
            if evict:
                sums[0] += st[2]
                sums[1] += st[5]
            else:
                resumed = (st[0], st[2], st[5], st[6], st[7], "".join(out))
                assert resumed == (whole.instructions, whole.cycles,
                                   whole.icache_misses, whole.dcache_misses,
                                   whole.dual_issues, whole.output), stop
    assert tuple(sums) == RESUME_PINS[name, shift]


def test_probe_rule_on_mixcall_linked_mid_line():
    """mixcall with its text base 16 bytes into a line, where word
    index and address disagree on line boundaries."""
    objects, lib = build.copies_for("mixcall", "each", 1)
    exe = link(objects, [lib], options=LayoutOptions(text_base=TEXT_BASE + 16))
    result, counts, cycle_counts = _profiled_timed(ProfilingMachine, exe)
    assert (result.instructions, result.cycles, result.icache_misses,
            result.dcache_misses, result.dual_issues) == (
        26737, 30838, 82, 44, 3876)
    assert _first_and_second(exe) == ((result, counts, cycle_counts),) * 2
    assert Machine(exe).run(timed=True) == result
