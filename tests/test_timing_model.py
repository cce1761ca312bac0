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
from repro.linker import link
from repro.machine import BACKENDS, run
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
