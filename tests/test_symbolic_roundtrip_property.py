"""Property: OM's symbolic translation round-trips any compiled module.

For arbitrary generated programs (with and without compile-time
scheduling), translating to symbolic form and reassembling unchanged
must reproduce the module byte-for-byte, relocations included — the
losslessness the paper's "key idea" rests on.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.generate import ProgramGen
from repro.minicc import Options, compile_module
from repro.objfile.sections import SectionKind
from repro.om.symbolic import reassemble_module, translate_module


def assert_roundtrip(obj):
    back = reassemble_module(translate_module(obj))
    assert bytes(back.section(SectionKind.TEXT).data) == bytes(
        obj.section(SectionKind.TEXT).data
    )
    original = sorted(
        (r.type.value, r.offset, r.symbol or "", r.addend, r.extra)
        for r in obj.relocations
    )
    rebuilt = sorted(
        (r.type.value, r.offset, r.symbol or "", r.addend, r.extra)
        for r in back.relocations
    )
    assert original == rebuilt
    assert {s.name for s in obj.procedures()} == {
        s.name for s in back.procedures()
    }


@settings(max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000), schedule=st.booleans())
def test_random_modules_roundtrip(seed, schedule):
    main_src, helper_src = ProgramGen(seed).module_pair()
    options = Options(schedule=schedule)
    assert_roundtrip(compile_module(main_src, "main.o", options))
    assert_roundtrip(compile_module(helper_src, "helper.o", options))


def test_benchmark_modules_roundtrip():
    from repro.benchsuite import build_program

    for name in ("li", "sc", "nasa7"):
        for obj in build_program(name, "each", scale=1):
            assert_roundtrip(obj)
