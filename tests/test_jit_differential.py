"""Differential oracle for the JIT machine backend.

The interpreter loops in :mod:`repro.machine.cpu` are ground truth;
the translating backend must reproduce them bit-for-bit on every
observable.  Three layers of evidence:

* a hypothesis property over generated MiniC programs (output bytes,
  instruction counts, timed cycles and the data image, or the budget
  trip point — functional and timed paths);
* a seeded regression across every benchsuite program (functional
  identity for all, full timed-model identity for a pinned subset and
  for the Decaf programs);
* execution-budget fidelity: a bounded run must trip (or complete)
  at exactly the same point as the interpreter, leaving identical
  memory behind — mid-block checkpointing may not drift.

Every comparison runs the JIT twice on a cold translation cache: the
first run interprets each head until it is hot, and the second runs
the program in translated regions.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.benchsuite.suite import PROGRAMS
from repro.experiments import build
from repro.fuzz.generate import RichProgramGen
from repro.linker import link
from repro.machine import ExecutionBudgetExceeded, Machine, machine_for
from repro.machine.jit import JitMachine, clear_jit_cache
from repro.minicc import compile_module

#: Timed runs cost ~2x functional; pin the full timing model on a
#: subset that covers integer, float-heavy, and call-dense programs.
TIMED_PROGRAMS = ("compress", "li", "hydro2d", "eqntott")

#: Decaf virtual calls are unhinted ``jsr``s: each call and its return
#: passes through the driver, which dispatches it into region heads.
DECAF_TIMED_PROGRAMS = ("shapes", "dlist", "mixcall")

_RUN_FIELDS = (
    "output", "instructions", "cycles", "icache_misses", "dcache_misses",
    "dual_issues", "halted",
)


def _fields(result) -> tuple:
    return tuple(getattr(result, name) for name in _RUN_FIELDS)


def _first_and_second(run_jit):
    """``run_jit()`` on a cold translation cache (a first run), then
    again (a run that translates each head on first entry)."""
    clear_jit_cache()
    return run_jit(), run_jit()


def _link_generated(program, crt0, libmc):
    objects = [crt0] + [
        compile_module(text, name.replace(".mc", ".o"))
        for name, text in program.modules
    ]
    return link(objects, [libmc])


@settings(max_examples=12)
@example(seed=1656)  # runs past the budget: both backends must trip alike
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_jit_matches_interpreter_on_generated_programs(seed, crt0, libmc):
    exe = _link_generated(RichProgramGen(seed).generate(), crt0, libmc)
    budget = 5_000_000
    for timed in (False, True):
        want = _bounded_state(Machine, exe, budget, timed)
        assert _first_and_second(
            lambda: _bounded_state(JitMachine, exe, budget, timed)
        ) == (want, want)


@pytest.mark.parametrize("program", PROGRAMS)
def test_jit_matches_interpreter_on_benchsuite(program, crt0, libmc):
    exe = build.link_variant(program, "each", "ld", 1)
    interp = Machine(exe).run(timed=False)
    runs = _first_and_second(lambda: JitMachine(exe).run(timed=False))
    for jit in runs:
        assert _fields(jit) == _fields(interp)


@pytest.mark.parametrize("program", TIMED_PROGRAMS)
def test_jit_matches_timing_model_on_benchsuite(program):
    exe = build.link_variant(program, "each", "ld", 1)
    interp = Machine(exe).run(timed=True)
    runs = _first_and_second(lambda: JitMachine(exe).run(timed=True))
    for jit in runs:
        assert _fields(jit) == _fields(interp)


@pytest.mark.parametrize("program", DECAF_TIMED_PROGRAMS)
def test_jit_matches_timing_model_on_decaf(program):
    exe = build.link_variant(program, "each", "om-full", 1)
    interp = Machine(exe).run(timed=True)
    runs = _first_and_second(lambda: JitMachine(exe).run(timed=True))
    for jit in runs:
        assert _fields(jit) == _fields(interp)


def test_backend_selector_round_trip():
    exe = build.link_variant("eqntott", "each", "ld", 1)
    assert isinstance(machine_for(exe, backend="jit"), JitMachine)
    assert not isinstance(machine_for(exe, backend="interp"), JitMachine)
    assert not isinstance(machine_for(exe), JitMachine)
    with pytest.raises(ValueError):
        machine_for(exe, backend="turbo")


def _bounded_state(machine_cls, exe, budget, timed):
    """(outcome, data bytes) of a run bounded to ``budget`` steps."""
    machine = machine_cls(exe, max_instructions=budget)
    try:
        result = (
            machine._run_timed() if timed else machine._run_functional()
        )
        outcome = ("completed", _fields(result))
    except ExecutionBudgetExceeded as exc:
        outcome = ("tripped", exc.limit)
    return outcome, bytes(machine.data)


@pytest.mark.parametrize("timed", (False, True), ids=("fast", "timed"))
def test_budget_trips_at_identical_instruction(timed, crt0, libmc):
    """Mid-block budget checkpointing: same trip point, same memory.

    The JIT executes whole trees between budget checks; when a bounded
    run would overrun inside a block it must hand the rest of the run
    to the interpreter so the trip happens at exactly the interpreter's
    instruction index — pinned here by comparing the data image both
    backends leave behind at a sweep of exact budgets.
    """
    source = """
    int acc[32];
    int step(int i) { acc[i % 32] += i; return acc[i % 32]; }
    int main() {
        int i;
        int s = 0;
        for (i = 0; i < 400; i++) { s += step(i); }
        __putint(s);
        return 0;
    }
    """
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    total = Machine(exe).run(timed=False).instructions
    budgets = [1, 7, total // 3, total // 2, total - 1, total, total + 50]
    for budget in budgets:
        want, want_data = _bounded_state(Machine, exe, budget, timed)
        runs = _first_and_second(
            lambda: _bounded_state(JitMachine, exe, budget, timed)
        )
        for got, got_data in runs:
            assert got == want, f"budget={budget}"
            assert got_data == want_data, f"budget={budget}: memory diverged"
    assert want[0] == "completed"  # the final budget covers the run


@pytest.mark.parametrize("budget_frac", (3, 2))
def test_budget_fidelity_on_benchsuite_program(budget_frac):
    """The same pin on a real program's much deeper block structure."""
    exe = build.link_variant("eqntott", "each", "ld", 1)
    total = Machine(exe).run(timed=False).instructions
    budget = total // budget_frac
    want, want_data = _bounded_state(Machine, exe, budget, timed=False)
    runs = _first_and_second(
        lambda: _bounded_state(JitMachine, exe, budget, timed=False)
    )
    for got, got_data in runs:
        assert got == want == ("tripped", budget)
        assert got_data == want_data
