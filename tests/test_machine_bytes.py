"""Byte and longword memory operations, exercised via hand assembly."""

import pytest

from repro.isa.textasm import assemble_text
from repro.linker import link
from repro.linker.executable import STACK_TOP
from repro.machine import Machine, MachineError, run
from repro.machine.jit import JitMachine, clear_jit_cache

WRITER = """
        .ent    main
main:   ldah    $gp, 0($pv)       !gpdisp:main
        lda     $gp, 0($gp)       !gpdisp_pair
        ldq     $t0, buf($gp)     !literal
        lda     $t1, 0x41($zero)
        stb     $t1, 0($t0)       !lituse_base
        lda     $t1, 0x42($zero)
        stb     $t1, 1($t0)
        ldbu    $a0, 0($t0)
        call_pal putchar
        ldbu    $a0, 1($t0)
        call_pal putchar
        lda     $t1, 10($zero)
        bis     $t1, $t1, $a0
        call_pal putchar
        call_pal halt
        .end    main

        .data
buf:    .quad   0
"""


def test_byte_store_and_load(libmc):
    obj = assemble_text(WRITER, "bytes.o")
    # main assembles its own startup; link without crt0 via custom entry
    exe = link([obj], [libmc], entry="main")
    for timed in (False, True):
        assert run(exe, timed=timed).output == "AB\n"


LONGWORD = """
        .ent    main
main:   ldah    $gp, 0($pv)       !gpdisp:main
        lda     $gp, 0($gp)       !gpdisp_pair
        ldq     $t0, buf($gp)     !literal
        ldah    $t1, -1($zero)    # 0xFFFF0000 sign-extended
        stl     $t1, 0($t0)       !lituse_base
        ldl     $a0, 0($t0)
        call_pal putint
        ldq     $a0, 0($t0)
        call_pal putint
        call_pal halt
        .end    main

        .data
buf:    .quad   0
"""


def test_longword_store_sign_extending_load(libmc):
    obj = assemble_text(LONGWORD, "long.o")
    exe = link([obj], [libmc], entry="main")
    result = run(exe, timed=False)
    values = [int(v) for v in result.output.split()]
    # ldl sign-extends the stored 32-bit pattern 0xFFFF0000.
    assert values[0] == -65536
    # The stq-visible quad holds only the low 32 bits (zero upper half).
    assert values[1] == 0xFFFF0000


def test_unaligned_longword_rejected(libmc):
    source = """
        .ent    main
main:   ldah    $gp, 0($pv)       !gpdisp:main
        lda     $gp, 0($gp)       !gpdisp_pair
        ldq     $t0, buf($gp)     !literal
        stl     $t1, 2($t0)       !lituse_base
        call_pal halt
        .end    main
        .data
buf:    .quad   0
    """
    exe = link([assemble_text(source, "bad.o")], [libmc], entry="main")
    with pytest.raises(MachineError, match="unaligned"):
        run(exe, timed=False)


# -- quad accesses on the region boundaries ----------------------------------

#: Loads the quad at the address in $t0 and prints it ("load"), or
#: stores $t1 there first ("store").  ``tail`` is the last thing in the
#: data image and ends 4 bytes into a quad: the image's partial last
#: quad, which the machine pads to a whole one.
QUAD_PROBE = """
        .ent    main
main:
{setup}
        lda     $t1, -30874($zero)
{body}
        call_pal halt
        .end    main
        .comm   tail, 12, 4
        .data
head:   .quad   0x1122334455667788
"""
QUAD_BODY = {
    "load": "        ldq     $a0, 0($t0)\n        call_pal putint",
    "store": "        stq     $t1, 0($t0)\n        ldq     $a0, 0($t0)\n"
             "        call_pal putint",
}

#: What each access gives, recorded from the interpreter before the
#: ldq/stq fast paths existed (the layout below pins the addresses).
QUAD_OUTCOMES = {
    ("data-first", "load"): "1234605616436508552\n",
    ("data-first", "store"): "-30874\n",
    ("data-last-full", "load"): "0\n",
    ("data-last-full", "store"): "-30874\n",
    ("data-partial", "load"): "0\n",
    ("data-partial", "store"): "-30874\n",
    ("data-unaligned", "load"): "unaligned load at 0x140000004",
    ("data-unaligned", "store"): "unaligned store at 0x140000004",
    ("data-past", "load"): "load from unmapped address 0x140000020",
    ("data-past", "store"): "store to unmapped address 0x140000020",
    ("stack-first", "load"): "0\n",
    ("stack-first", "store"): "-30874\n",
    ("stack-unaligned", "load"): "unaligned load at 0x15ff00004",
    ("stack-unaligned", "store"): "unaligned store at 0x15ff00004",
    ("stack-last", "load"): "0\n",
    ("stack-last", "store"): "-30874\n",
    ("stack-past", "load"): "load from unmapped address 0x160000000",
    ("stack-past", "store"): "store to unmapped address 0x160000000",
    ("text", "load"): "5197460876669498369\n",
    ("text", "store"): "store to unmapped address 0x120000000",
    ("text-partial", "load"): "0\n",
    ("text-partial", "store"): "store to unmapped address 0x120000030",
    ("text-past", "load"): "load from unmapped address 0x120000038",
    ("text-past", "store"): "store to unmapped address 0x120000038",
}


def _const(reg, value):
    """Instructions that put ``value`` (below 2**40) in ``reg``."""
    chunks = value.to_bytes(5, "big")
    lines = [f"        bis     $zero, {chunks[0]}, {reg}"]
    for byte in chunks[1:]:
        lines += [f"        sll     {reg}, 8, {reg}",
                  f"        bis     {reg}, {byte}, {reg}"]
    return "\n".join(lines)


def _quad_probe(libmc, addr, body):
    source = QUAD_PROBE.format(setup=_const("$t0", addr), body=QUAD_BODY[body])
    return link([assemble_text(source, "quad.o")], [libmc], entry="main")


def _outcome(machine, timed):
    try:
        return machine.run(timed=timed).output
    except MachineError as exc:
        return str(exc)


def test_quad_access_on_every_region_boundary(libmc):
    """``ldq``/``stq`` at the first and last whole quads of data and
    stack, in the data image's partial last quad, unaligned, in text
    (including its partial last quad) and one quad past each region:
    the timed loop's quad views, the JIT's and the functional loop's
    helpers give the recorded value or error on both backends."""
    base = Machine(_quad_probe(libmc, 0, "load"))
    assert (base.data_base, base.data_limit, base.text_base, len(base.text)) == (
        0x140000000, 0x14000001C, 0x120000000, 52)
    data, limit, text = base.data_base, base.data_limit, base.text_base
    text_end = text + len(base.text)
    addrs = {
        "data-first": data,
        "data-last-full": (limit - 8) & ~7,
        "data-partial": limit & ~7,
        "data-unaligned": data + 4,
        "data-past": (limit + 7) & ~7,
        "stack-first": base.stack_base,
        "stack-unaligned": base.stack_base + 4,
        "stack-last": STACK_TOP - 8,
        "stack-past": STACK_TOP,
        "text": text,
        "text-partial": text_end & ~7,
        "text-past": (text_end + 7) & ~7,
    }
    for (name, body), want in QUAD_OUTCOMES.items():
        exe = _quad_probe(libmc, addrs[name], body)
        for cls in (Machine, JitMachine):
            for timed in (True, False):
                # The JIT's first run interprets the probe; its second
                # runs it in translated regions.
                clear_jit_cache()
                for attempt in range(2 if cls is JitMachine else 1):
                    got = _outcome(cls(exe), timed)
                    assert got == want, (name, body, cls.__name__, timed,
                                         attempt)
