"""JIT block discovery and translation-cache semantics.

The translator splits the text segment into basic blocks (segments)
at every branch target, call return, and procedure entry; these tests
pin the split-point rules on hand-written assembly — where word
indexes are knowable — plus region entry at any head, the per-line
I-cache probe at line and slot boundaries, the cache-invalidation
contract of :class:`repro.machine.jit.CompiledProgram`, and the
interpreter fallback at every budget boundary.  Tests that inspect
the translations a single run leaves translate each head on first
entry (the ``eager`` fixture): a first run would interpret these short
programs.
"""

import pytest

from repro.isa.textasm import assemble_text
from repro.isa.timing import CACHE_LINE, ICACHE_BYTES
from repro.linker import link
from repro.machine import run
from repro.machine.jit import (
    JitMachine,
    _FALLBACK,
    clear_jit_cache,
    jit_cache_len,
    program_for,
)


def _link_asm(crt0, libmc, source):
    return link([crt0, assemble_text(source, "t.o")], [libmc])


def _proc_index(machine, name):
    """Word index of a named procedure's entry."""
    for proc in machine.executable.procs:
        if proc.name == name:
            return (proc.addr - machine.text_base) >> 2
    raise KeyError(name)


#: Flavor key of a plain timed run: (timed, counting, cycle_counting).
TIMED = (True, False, False)
_LINE_WORDS = CACHE_LINE // 4
_SLOTS = ICACHE_BYTES // CACHE_LINE


def _timed_fields(result) -> tuple:
    return (result.output, result.instructions, result.cycles,
            result.icache_misses, result.dual_issues)


def _link_at_line_word(crt0, libmc, template, offset, word, **fill):
    """Link ``template`` with ``{pad}`` nops that put the word
    ``offset`` words into ``main`` at word ``word`` of an I-cache line.

    Returns the machine and the padded word's index.
    """
    def source(pad):
        return template.format(pad="        nop\n" * pad, **fill)

    machine = JitMachine(_link_asm(crt0, libmc, source(0)))
    at = _proc_index(machine, "main") + offset
    pad = (word - (machine.text_base >> 2) - at) % _LINE_WORDS
    return JitMachine(_link_asm(crt0, libmc, source(pad))), at + pad


def _arm_probes(prog, flavor, head):
    """(slot, line) of each I-cache probe in ``head``'s dispatch arm."""
    for (fl, _), src in prog.sources.items():
        if fl != flavor:
            continue
        lines = src.splitlines()
        for n, line in enumerate(lines):
            if line.strip() != f"if pc == {head}:":
                continue
            depth = len(line) - len(line.lstrip())
            probes = []
            for body in lines[n + 1:]:
                if len(body) - len(body.lstrip()) <= depth:
                    break
                text = body.strip()
                if text.startswith("if itags["):
                    slot, line_no = text[len("if itags["):-1].split("] != ")
                    probes.append((int(slot), int(line_no)))
            return probes
    raise KeyError(head)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_jit_cache()
    yield
    clear_jit_cache()


@pytest.fixture()
def eager(monkeypatch):
    """Translate each head on first entry, on a first run too."""
    from repro.machine import jit as jit_mod

    monkeypatch.setattr(jit_mod, "_HOT_ENTRIES", 1)


BRANCHY = """
        .ent    main
main:   lda     $t0, 3($zero)
loop:   subq    $t0, 1, $t0
        bne     $t0, loop
        lda     $a0, 7($zero)
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main
"""


def test_splits_at_branch_target_and_fallthrough(crt0, libmc, eager):
    machine = JitMachine(_link_asm(crt0, libmc, BRANCHY))
    prog = program_for(machine)
    main = _proc_index(machine, "main")
    loop = main + 1   # the bne target
    after = main + 3  # the bne fall-through
    assert main in prog.splits
    assert loop in prog.splits
    assert after in prog.splits
    # The block holding the branch ends exactly at the branch.
    assert prog.segment_end(loop) == after
    # Targets of the branch block: taken target first, then fall-through.
    assert prog.region_targets(loop) == (loop, after)
    assert machine.run(timed=False).output == "7\n"


CALLS = """
        .ent    main
main:   ldah    $gp, 0($pv)      !gpdisp:main
        lda     $gp, 0($gp)      !gpdisp_pair
        lda     $s0, 0($ra)
        ldq     $pv, callee($gp) !literal
        jsr     $ra, ($pv)       !lituse_jsr !hint:callee
        lda     $a0, 0($v0)
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($s0)
        .end    main

        .ent    callee
callee: lda     $v0, 42($zero)
        ret     $zero, ($ra)
        .end    callee
"""


def test_splits_at_jsr_return_and_proc_entries(crt0, libmc, eager):
    machine = JitMachine(_link_asm(crt0, libmc, CALLS))
    prog = program_for(machine)
    main = _proc_index(machine, "main")
    callee = _proc_index(machine, "callee")
    jsr = main + 4
    # The word after the jsr (the return continuation) is a split, and
    # the caller's block ends at the jsr even though no label is there.
    assert jsr + 1 in prog.splits
    assert prog.segment_end(main) == jsr + 1
    # Procedure entries are splits (the ret needs somewhere to land).
    assert callee in prog.splits
    # The linker-hinted jsr predicts the callee; the continuation is
    # the second (fall-through) target.
    assert prog.jump_hint[jsr] == callee
    assert prog.region_targets(main) == (callee, jsr + 1)
    assert machine.run(timed=False).output == "42\n"


def test_call_continuation_is_a_head_under_timing(crt0, libmc, eager):
    """The timed flavor cannot fold the planted return address, so the
    continuation behind a spliced callee gets its own arm: the callee's
    ret lands on it in the region, and the driver never roots a second
    region over it."""
    exe = _link_asm(crt0, libmc, CALLS)
    machine = JitMachine(exe)
    result = machine.run(timed=True)
    prog = program_for(machine)
    ret_site = _proc_index(machine, "main") + 5  # the word after the jsr
    assert ret_site in prog.tables[TIMED]
    assert (TIMED, ret_site) not in prog.sources
    interp = run(exe, timed=True)
    assert (result.output, result.cycles) == (interp.output, interp.cycles)


CROSSING = """
        .ent    main
main:   lda     $t0, 5($zero)
        lda     $t1, 0($zero)
{pad}
loop:   addq    $t1, $t0, $t1
        subq    $t0, 1, $t0
        addq    $t1, 1, $t1
        bne     $t0, loop
        lda     $a0, 0($t1)
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main
"""


def test_probe_once_per_line_across_a_line_boundary(crt0, libmc, eager):
    """A loop segment whose second word is the last of one I-cache
    line and whose third is the first of the next: the straight-line
    path probes each of the two lines once, and the timing still
    matches the interpreter's."""
    machine, loop = _link_at_line_word(
        crt0, libmc, CROSSING, 2, _LINE_WORDS - 2
    )
    result = machine.run(timed=True)
    assert result.output == "20\n"
    interp = run(machine.executable, timed=True)
    assert _timed_fields(result) == _timed_fields(interp)
    line = ((machine.text_base >> 2) + loop) // _LINE_WORDS
    assert _arm_probes(program_for(machine), TIMED, loop) == [
        (line % _SLOTS, line), ((line + 1) % _SLOTS, line + 1),
    ]


ALTERNATING = """
        .ent    main
main:   lda     $t0, 6($zero)
        lda     $t1, 0($zero)
{pad}
loop:   addq    $t1, 1, $t1
        br      $zero, far
back:   subq    $t0, 1, $t0
        bne     $t0, loop
        lda     $a0, 0($t1)
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
{gap}
far:    addq    $t1, 2, $t1
        br      $zero, back
        .end    main
"""


def test_probe_repeats_when_a_line_returns_to_its_slot(crt0, libmc, eager):
    """One path visits line A, then line B one cache size away (the
    same direct-mapped slot), then A again: the second visit to A must
    probe again, because B evicted it."""
    gap = ICACHE_BYTES // 4 - 8  # ``far`` sits one cache size after ``loop``
    machine, loop = _link_at_line_word(
        crt0, libmc, ALTERNATING, 2, 0, gap="        nop\n" * gap
    )
    result = machine.run(timed=True)
    interp = run(machine.executable, timed=True)
    assert result.output == "18\n"
    assert _timed_fields(result) == _timed_fields(interp)
    assert interp.icache_misses >= 2 * 6  # A and B evict each other
    line_a = ((machine.text_base >> 2) + loop) // _LINE_WORDS
    line_b = line_a + _SLOTS
    slot = line_a % _SLOTS
    # The loop tree splices ``far`` and ``back``: one path, three probes.
    assert _arm_probes(program_for(machine), TIMED, loop) == [
        (slot, line_a), (slot, line_b), (slot, line_a),
    ]


GAT_STRADDLE = """
        .ent    main
main:   ldah    $gp, 0($pv)      !gpdisp:main
        lda     $gp, 0($gp)      !gpdisp_pair
        lda     $t1, 2($zero)
        ldq     $t0, value($gp)  !literal
top:    ldq     $a0, 0($t0)      !lituse_base
        call_pal putint
        subq    $t1, 1, $t1
        bne     $t1, top
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main

        .data
value:  .quad   1994
"""


def test_gat_load_sequence_straddling_block_edge(crt0, libmc, eager):
    """A GAT address load in one block, its dependent load in the next.

    The loop label falls between the two halves of the sequence, so
    the address produced by the first block's ``ldq rX, d(gp)`` must
    flow into the branch-target block through the region state — the
    translator may not assume the pair stays intact inside one block.
    """
    machine = JitMachine(_link_asm(crt0, libmc, GAT_STRADDLE))
    prog = program_for(machine)
    main = _proc_index(machine, "main")
    gat_load = main + 3
    top = main + 4
    assert top in prog.splits
    # The GAT address load is the last word of its block...
    assert prog.segment_end(main) == top
    # ...and the dependent data load starts the branch-target block.
    assert prog.segment_end(top) == top + 4
    result = machine.run(timed=False)
    assert result.output == "1994\n1994\n"
    interp = run(machine.executable, timed=False)
    assert (result.output, result.instructions) == (
        interp.output, interp.instructions
    )
    assert gat_load == main + 3  # documented layout held


def test_cache_invalidation_recompiles_lazily(crt0, libmc, eager):
    machine = JitMachine(_link_asm(crt0, libmc, BRANCHY))
    prog = program_for(machine)
    first = machine.run(timed=False)
    assert prog.stats.regions > 0
    assert prog.tables and prog.sources

    prog.invalidate()
    assert not prog.tables
    assert not prog.sources
    assert not prog.seg_len
    assert prog.stats.invalidations == 1

    # The next run retranslates and reproduces the result exactly.
    again = JitMachine(machine.executable).run(timed=False)
    assert (again.output, again.instructions, again.cycles) == (
        first.output, first.instructions, first.cycles
    )
    assert prog.stats.regions > 0


def test_compiled_program_shared_and_keyed_by_image(crt0, libmc):
    exe = _link_asm(crt0, libmc, BRANCHY)
    one = program_for(JitMachine(exe))
    two = program_for(JitMachine(exe))
    assert one is two
    assert jit_cache_len() == 1
    other = program_for(JitMachine(_link_asm(crt0, libmc, CALLS)))
    assert other is not one
    assert jit_cache_len() == 2
    clear_jit_cache()
    assert jit_cache_len() == 0
    assert program_for(JitMachine(exe)) is not one


def test_untranslatable_start_uses_fallback(crt0, libmc, monkeypatch, eager):
    from repro.machine import jit as jit_mod

    exe = _link_asm(crt0, libmc, BRANCHY)
    reference = JitMachine(exe).run(timed=False)
    clear_jit_cache()
    # Shrink the translatable set: every operate instruction now routes
    # through the single-step interpreter fallback.
    monkeypatch.setattr(
        jit_mod,
        "_TRANSLATABLE",
        jit_mod._TRANSLATABLE - {jit_mod.K_OP_RR, jit_mod.K_OP_RL},
    )
    machine = JitMachine(exe)
    result = machine.run(timed=False)
    assert (result.output, result.instructions, result.cycles) == (
        reference.output, reference.instructions, reference.cycles
    )
    prog = program_for(machine)
    assert prog.stats.fallback_steps > 0
    flavor_tables = list(prog.tables.values())
    assert any(
        entry is _FALLBACK
        for table in flavor_tables
        for entry in table.values()
    )


STORE_LOOP = """
        .ent    main
main:   ldah    $gp, 0($pv)      !gpdisp:main
        lda     $gp, 0($gp)      !gpdisp_pair
        ldq     $t0, buf($gp)    !literal
        lda     $t1, 3($zero)
loop:   stq     $t1, 0($t0)      !lituse_base
        ldq     $t2, 0($t0)      !lituse_base
        stq     $t2, -8($sp)
        subq    $t1, 1, $t1
        bne     $t1, loop
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main

        .data
buf:    .quad   0
"""


def test_fallback_at_every_budget_boundary(crt0, libmc, monkeypatch):
    """Every ``stq`` runs on the interpreter, between regions that end
    right before it.  At every budget across the run, functional and
    timed, plain and profiled, the JIT must trip (or complete) exactly
    like the interpreter and leave the same data and stack images and
    per-word counters: an interpreter step after a region that used up
    the budget must trip, not store."""
    from repro.machine import ExecutionBudgetExceeded, Machine
    from repro.machine import jit as jit_mod
    from repro.machine.jit import JitProfilingMachine
    from repro.machine.profile import ProfilingMachine

    monkeypatch.setattr(
        jit_mod, "_TRANSLATABLE", jit_mod._TRANSLATABLE - {jit_mod.K_STQ}
    )
    exe = _link_asm(crt0, libmc, STORE_LOOP)
    total = Machine(exe).run(timed=False).instructions

    def bounded(cls, budget, timed):
        machine = cls(exe, max_instructions=budget)
        try:
            if isinstance(machine, ProfilingMachine):
                outcome = machine.run_profiled(timed=timed)
            else:
                outcome = machine.run(timed=timed)
        except ExecutionBudgetExceeded as exc:
            outcome = ("tripped", exc.limit)
        return (outcome, bytes(machine.data), bytes(machine.stack),
                getattr(machine, "counts", None),
                getattr(machine, "cycle_counts", None))

    pairs = ((Machine, JitMachine), (ProfilingMachine, JitProfilingMachine))
    for timed in (False, True):
        for budget in range(1, total + 2):
            for interp_cls, jit_cls in pairs:
                want = bounded(interp_cls, budget, timed)
                got = bounded(jit_cls, budget, timed)
                assert got == want, (jit_cls.__name__, timed, budget)
    assert want[0].run.instructions == total  # the last budgets complete
    assert program_for(JitMachine(exe)).stats.fallback_steps > 0


def test_dropped_translations_are_freed_without_a_collection(crt0, libmc, eager):
    """A region function does not keep itself alive through its
    globals, so dropping a translation frees it by reference counting:
    cold runs leave no garbage waiting for a full collection."""
    import gc
    import weakref

    machine = JitMachine(_link_asm(crt0, libmc, BRANCHY))
    machine.run(timed=True)
    refs = [
        weakref.ref(entry[0])
        for table in machine.jit_program().tables.values()
        for entry in table.values()
        if entry is not _FALLBACK
    ]
    assert refs
    gc.disable()
    try:
        del machine
        clear_jit_cache()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
