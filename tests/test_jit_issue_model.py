"""The timed JIT's folded dual-issue model on its boundaries.

Inside a tree the translator answers the interpreter's issue tests at
translation time: the previous word's class, a slot a taken branch or a
pairing closed, an operand written a known number of cycles ago.  These
programs put every such answer on both sides: each (previous class,
class) pair of integer, memory and control words after a paired and an
opening predecessor, the first word behind a taken branch, words behind
I- and D-cache misses, operand stalls (among them a load that opens a
cycle behind a taken branch and feeds the next word), tree heads
entered from another arm and from the interpreter with the slot open
and closed, and a ``getticks`` between the cases, whose cycle count the
output prints.

Each program runs on the interpreter and on the JIT, translating each
head on first entry (``_HOT_ENTRIES = 1``) and tiered, plain and
profiled, with every word translatable and with the operate-literal
words left to the interpreter, so that the word behind each of them
starts a region entered with whatever slot the interpreter left.  The
``RunResult``, per-word counts and per-word cycle counts must agree.
"""

import pytest

from repro.isa.textasm import assemble_text
from repro.isa.timing import DCACHE_BYTES, ICACHE_BYTES
from repro.linker import link
from repro.machine import Machine
from repro.machine import jit as jit_mod
from repro.machine.jit import JitMachine, JitProfilingMachine, clear_jit_cache
from repro.machine.profile import ProfilingMachine

#: Words of each issue class whose operands were written long before.
#: ``{d}`` is a destination register, ``{o}`` a stack offset.
CLASS_WORDS = {
    "int": ("addq $r9, $r10, $r{d}", "addq $r11, 7, $r{d}"),
    "mem": ("lda $r{d}, 8($r12)", "stq $r13, -{o}($sp)",
            "ldq $r{d}, -{o}($sp)"),
    "ctl": ("bne $r31, done",),
}
CLASSES = tuple(CLASS_WORDS)
_DESTS = (1, 2, 3, 4, 5, 6, 7, 8, 22, 23, 24, 25)


class _Body:
    """Straight-line case text, one word per line, with fresh registers
    and stack offsets for every word."""

    def __init__(self):
        self.lines: list[str] = []
        self.n = 0

    def word(self, klass: str) -> None:
        templates = CLASS_WORDS[klass]
        template = templates[self.n % len(templates)]
        self.lines.append(template.format(d=_DESTS[self.n % len(_DESTS)],
                                          o=16 + 8 * (self.n % 16)))
        self.n += 1

    def raw(self, *lines: str) -> None:
        self.lines.extend(lines)

    def ticks(self) -> None:
        """Fold the cycle count into the printed accumulator."""
        self.raw("call_pal getticks", "addq $r15, $r0, $r15")


def _pairs_body() -> _Body:
    body = _Body()
    for first in CLASSES:
        for second in CLASSES:
            # ``first`` opens: its predecessor has its class.
            body.word(first)
            body.word(first)
            body.word(second)
            body.ticks()
            # ``first`` pairs with a word that opened a cycle of another
            # class.
            other = CLASSES[(CLASSES.index(first) + 1) % len(CLASSES)]
            body.word(other)
            body.word(other)
            body.word(first)
            body.word(second)
            body.ticks()
    return body


def _taken_body() -> _Body:
    body = _Body()
    for n, klass in enumerate(CLASSES):
        # An unconditional and an always-taken conditional branch, each
        # to a single-entry target inside the tree.
        body.word(klass)
        body.raw(f"br $r31, taken{n}", "nop", f"taken{n}:")
        body.word(klass)
        body.word(CLASSES[n - 1])
        body.raw(f"beq $r31, cond{n}", "nop", f"cond{n}:")
        body.word(klass)
        body.ticks()
        # A head entered both by a taken branch (slot closed) and by
        # falling through (slot open, or not): the loop counter's low
        # bit decides.
        body.word(klass)
        body.raw(f"blbs $r14, join{n}")
        body.word(CLASSES[n - 1])
        body.raw(f"join{n}:")
        body.word(klass)
        body.word(CLASSES[n - 2])
        body.ticks()
        # A load behind a taken branch, off a base written on the path,
        # opens a cycle with no test: its result's ready cycle counts
        # the bubble and that cycle, and the next word waits for it.
        body.raw("lda $r21, -40($sp)", f"br $r31, use{n}", "nop",
                 f"use{n}:", "ldq $r5, 0($r21)", "addq $r5, 1, $r6")
        body.ticks()
    return body


def _dcache_body() -> _Body:
    body = _Body()
    far = 16 + DCACHE_BYTES
    for klass in CLASSES + CLASSES:
        # Two stores one cache size apart miss on every pass.
        body.raw("stq $r9, -16($sp)")
        body.word(klass)
        body.raw(f"stq $r9, -{far}($sp)")
        body.word(klass)
        body.ticks()
    return body


def _stall_body() -> _Body:
    body = _Body()
    far = 24 + DCACHE_BYTES
    for klass in CLASSES:
        body.word(klass)
        body.raw("ldq $r5, -24($sp)", "addq $r5, 1, $r6")  # load use
        body.word(klass)
        body.raw("mulq $r9, $r10, $r7", "stq $r7, -32($sp)")  # multiply
        body.word(klass)
        body.raw(f"ldq $r5, -{far}($sp)", "cmplt $r5, $r9, $r8")  # miss
        body.raw("lda $r2, 1($r8)", "addq $r2, $r2, $r3")  # chain
        body.ticks()
    return body


def _program(body: _Body, far_words: int = 0) -> str:
    """``main`` running ``body`` ``_HOT_ENTRIES + 6`` times and printing
    the ``getticks`` sum; with ``far_words``, each pass also calls a
    procedure that many words long, placed one I-cache size after the
    middle of the body, so its lines evict the body's on every pass."""
    head = [
        ".ent main",
        "main: ldah $gp, 0($pv) !gpdisp:main",
        "lda $gp, 0($gp) !gpdisp_pair",
        "lda $r9, 3($r31)", "lda $r10, 5($r31)", "lda $r11, 7($r31)",
        "lda $r12, 64($r31)", "lda $r13, 9($r31)", "lda $r15, 0($r31)",
        f"lda $r14, {jit_mod._HOT_ENTRIES + 6}($r31)",
    ]
    loop = ["loop:"] + body.lines
    if far_words:
        half = len(body.lines) // 2
        loop[1 + half:1 + half] = ["bsr $r20, far"]
    tail = [
        "subq $r14, 1, $r14",
        "bne $r14, loop",
        "done: bis $r15, $r15, $a0",
        "call_pal putint",
        "lda $v0, 0($r31)",
        "ret $r31, ($ra)",
    ]
    lines = head + loop + tail
    if far_words:
        def words(part):
            return sum(1 for line in part
                       if not line.startswith(".") and not line.endswith(":"))

        # Dead padding puts ``far`` one I-cache size after the call site.
        call = next(n for n, line in enumerate(lines) if "bsr" in line)
        pad = ICACHE_BYTES // 4 + words(lines[:call]) - words(lines)
        assert pad > 0
        lines += ["nop"] * pad + [".end main", ".ent far",
                                  "far: addq $r9, 1, $r1"]
        lines += [CLASS_WORDS[CLASSES[n % 2]][0].format(d=2)
                  for n in range(far_words)]
        lines += ["ret $r31, ($r20)", ".end far"]
    else:
        lines.append(".end main")
    return "".join(
        (line if ":" in line.split()[0] else "        " + line) + "\n"
        for line in lines
    )


PROGRAMS = {
    "pairs": lambda: _program(_pairs_body()),
    "taken": lambda: _program(_taken_body()),
    "icache": lambda: _program(_pairs_body(), far_words=30),
    "dcache": lambda: _program(_dcache_body()),
    "stall": lambda: _program(_stall_body()),
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_jit_cache()
    yield
    clear_jit_cache()


@pytest.fixture(scope="module")
def executables(crt0, libmc):
    return {
        name: link([crt0, assemble_text(make(), f"{name}.o")], [libmc])
        for name, make in PROGRAMS.items()
    }


def _observed(cls, exe):
    machine = cls(exe)
    if isinstance(machine, ProfilingMachine):
        profile = machine.run_profiled(timed=True)
        return profile.run, list(machine.counts), list(machine.cycle_counts)
    return machine.run(timed=True), None, None


@pytest.mark.parametrize("translated", ("all", "operate-literal-interpreted"))
@pytest.mark.parametrize("tier", ("eager", "tiered"))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_timed_jit_equals_the_interpreter(name, tier, translated,
                                          executables, monkeypatch):
    exe = executables[name]
    if tier == "eager":
        monkeypatch.setattr(jit_mod, "_HOT_ENTRIES", 1)
    if translated != "all":
        monkeypatch.setattr(jit_mod, "_TRANSLATABLE",
                            jit_mod._TRANSLATABLE - {jit_mod.K_OP_RL})
    for interp_cls, jit_cls in ((Machine, JitMachine),
                                (ProfilingMachine, JitProfilingMachine)):
        want = _observed(interp_cls, exe)
        clear_jit_cache()
        for run in ("first", "second"):
            got = _observed(jit_cls, exe)
            assert got == want, (jit_cls.__name__, run)
    assert want[0].dual_issues > 0
    stats = jit_mod.program_for(JitMachine(exe)).stats
    assert stats.words > 0
    if translated != "all":
        assert stats.fallback_steps > 0


def test_the_cases_stall_and_miss(executables):
    """The programs reach what they are named for: I-cache misses on
    every pass, D-cache misses on every pass, and operand stalls."""
    passes = jit_mod._HOT_ENTRIES + 6
    pairs = Machine(executables["pairs"]).run(timed=True)
    icache = Machine(executables["icache"]).run(timed=True)
    assert icache.icache_misses > pairs.icache_misses + passes
    dcache = Machine(executables["dcache"]).run(timed=True)
    assert dcache.dcache_misses >= 12 * passes
    stall = Machine(executables["stall"]).run(timed=True)
    assert stall.cycles > stall.instructions
