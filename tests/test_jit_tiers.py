"""The cold JIT's tier: a program's first run interprets each head
until the driver's ``_HOT_ENTRIES``-th visit to it builds its region;
every later run translates each head on first entry.

These tests pin the threshold on its boundary, the interpreter's
results on both sides of it, the budget trip inside interpreted
segments, and which runs are first runs.  They read the threshold
from :mod:`repro.machine.jit` and copy no value.
"""

import pytest

from repro.isa.textasm import assemble_text
from repro.linker import link
from repro.machine import ExecutionBudgetExceeded, Machine
from repro.machine import jit as jit_mod
from repro.machine.jit import (
    JitMachine,
    JitProfilingMachine,
    clear_jit_cache,
    program_for,
)
from repro.machine.profile import ProfilingMachine

#: The driver reaches ``loop`` exactly ``{n}`` times: once by falling
#: into it, then once per taken back edge.  Each pass stores to the
#: data and the stack image.
COUNTED_LOOP = """
        .ent    main
main:   ldah    $gp, 0($pv)      !gpdisp:main
        lda     $gp, 0($gp)      !gpdisp_pair
        ldq     $t0, buf($gp)    !literal
        lda     $t1, {n}($zero)
loop:   stq     $t1, 0($t0)      !lituse_base
        stq     $t1, -8($sp)
        subq    $t1, 1, $t1
        bne     $t1, loop
        ldq     $a0, 0($t0)      !lituse_base
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main

        .data
buf:    .quad   0
"""

#: Word offset of ``loop`` in ``main``.
_LOOP = 4

#: (interpreter, JIT) machine classes: plain and profiled.
PAIRS = ((Machine, JitMachine), (ProfilingMachine, JitProfilingMachine))

#: Flavor key of a plain timed run: (timed, counting, cycle_counting).
TIMED = (True, False, False)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_jit_cache()
    yield
    clear_jit_cache()


def _counted_loop(crt0, libmc, n: int):
    assert 0 < n < 1 << 15  # an ``lda`` displacement
    source = COUNTED_LOOP.format(n=n)
    return link([crt0, assemble_text(source, "t.o")], [libmc])


def _loop_index(machine) -> int:
    (main,) = [p for p in machine.executable.procs if p.name == "main"]
    return ((main.addr - machine.text_base) >> 2) + _LOOP


def _bounded(cls, exe, timed, budget=200_000_000):
    """The machine, and what its run left: the result or the budget it
    tripped, the data and stack images, and a profiled run's per-word
    counts and cycle counts."""
    machine = cls(exe, max_instructions=budget)
    try:
        if isinstance(machine, ProfilingMachine):
            outcome = machine.run_profiled(timed=timed).run
        else:
            outcome = machine.run(timed=timed)
    except ExecutionBudgetExceeded as exc:
        outcome = ("tripped", exc.limit)
    return machine, (outcome, bytes(machine.data), bytes(machine.stack),
                     getattr(machine, "counts", None),
                     getattr(machine, "cycle_counts", None))


@pytest.mark.parametrize("short", (1, 0), ids=("one-entry-short", "hot"))
def test_a_first_run_translates_a_head_at_its_hot_entry(short, crt0, libmc):
    """A head entered ``_HOT_ENTRIES - 1`` times runs on the interpreter
    only; one entered ``_HOT_ENTRIES`` times gets its region at that
    entry.  Either way, functional and timed, plain and profiled, the
    run equals the interpreter's on every observable."""
    entries = jit_mod._HOT_ENTRIES - short
    exe = _counted_loop(crt0, libmc, entries)
    for timed in (False, True):
        for interp_cls, jit_cls in PAIRS:
            clear_jit_cache()
            machine, got = _bounded(jit_cls, exe, timed)
            assert got == _bounded(interp_cls, exe, timed)[1], (
                jit_cls.__name__, timed)
            assert got[0].output == "1\n"
            prog = program_for(machine)
            roots = [start for __, start in prog.sources]
            assert roots == ([] if short else [_loop_index(machine)]), (
                jit_cls.__name__, timed)
            assert prog.stats.regions == len(roots)


def test_every_budget_of_a_first_run_trips_at_the_interpreters_index(
    crt0, libmc
):
    """A first run hands cold segments to the interpreter with the
    budget as its stop, so at every budget across the run, functional
    and timed, plain and profiled, it trips (or completes) where the
    interpreter does and leaves the same images and counters — both
    inside interpreted segments and after the loop's region is built."""
    exe = _counted_loop(crt0, libmc, jit_mod._HOT_ENTRIES + 2)
    total = Machine(exe).run(timed=False).instructions
    tripped_at = {0: 0, 1: 0}  # regions built -> trips
    for timed in (False, True):
        for interp_cls, jit_cls in PAIRS:
            for budget in range(1, total + 2):
                clear_jit_cache()
                machine, got = _bounded(jit_cls, exe, timed, budget)
                want = _bounded(interp_cls, exe, timed, budget)[1]
                assert got == want, (jit_cls.__name__, timed, budget)
                if got[0] == ("tripped", budget):
                    tripped_at[program_for(machine).stats.regions] += 1
    assert want[0].instructions == total  # the last budget completes
    assert tripped_at[0] > 0 and tripped_at[1] > 0


def test_only_a_programs_first_run_is_tiered(crt0, libmc):
    """A second run translates each head on first entry, so does a run
    after ``invalidate()``; after ``clear_jit_cache()`` the next run is
    a first run again."""
    exe = _counted_loop(crt0, libmc, 3)
    want = Machine(exe).run(timed=True)
    first = JitMachine(exe)
    entry = (exe.entry - first.text_base) >> 2
    assert first.run(timed=True) == want
    prog = program_for(first)
    assert prog.stats.regions == 0 and not prog.sources

    # The entry is entered once per run: translated only when eager.
    assert JitMachine(exe).run(timed=True) == want
    assert entry in prog.tables[TIMED] and prog.stats.regions > 0
    assert JitMachine(exe).run(timed=False).output == want.output
    assert entry in prog.tables[(False, False, False)]

    prog.invalidate()
    assert JitMachine(exe).run(timed=True) == want
    assert entry in prog.tables[TIMED]

    clear_jit_cache()
    again = JitMachine(exe)
    assert again.run(timed=True) == want
    assert program_for(again) is not prog
    assert program_for(again).stats.regions == 0


def test_a_first_run_counts_its_hand_offs(crt0, libmc):
    """A first run that never reaches ``_HOT_ENTRIES`` runs every word in
    the interpreter's hand-offs, translates nothing and spends no build
    time; a second run translates and makes no hand-off."""
    exe = _counted_loop(crt0, libmc, 3)
    for timed in (False, True):
        clear_jit_cache()
        machine = JitMachine(exe)
        result = machine.run(timed=timed)
        stats = program_for(machine).stats
        assert stats.handoffs > 3 and stats.regions == 0
        assert stats.handoff_words == result.instructions
        assert stats.build_s == 0.0
        first = (stats.handoffs, stats.handoff_words)
        JitMachine(exe).run(timed=timed)
        assert (stats.handoffs, stats.handoff_words) == first
        assert stats.regions > 0 and stats.build_s > 0.0
