"""Profiler tests."""

import dataclasses

from repro.linker import link
from repro.machine import run
from repro.machine.profile import UNATTRIBUTED, profile
from repro.minicc import compile_module


def test_profile_attributes_instructions(libmc, crt0):
    source = """
    int busy(int n) {
        int i;
        int s = 0;
        for (i = 0; i < n; i++) { s += i * i; }
        return s;
    }
    int main() {
        __putint(busy(200));
        return 0;
    }
    """
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    result = profile(exe)
    assert result.run.output == f"{sum(i * i for i in range(200))}\n"
    names = [p.name for p in result.procs]
    assert names[0] == "busy"  # the hot loop dominates
    assert result.named("busy").fraction > 0.8
    assert sum(p.instructions for p in result.procs) == result.run.instructions


def test_profile_shows_library_division_cost(libmc, crt0):
    source = """
    int main() {
        int i;
        int s = 0;
        for (i = 1; i < 60; i++) { s += 100000 / i; }
        __putint(s);
        return 0;
    }
    """
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    result = profile(exe)
    # Like the real Alpha, division dominates division-heavy code.
    assert result.named("__divq").fraction > 0.5


def test_profile_matches_plain_run(libmc, crt0):
    source = "int main() { __putint(123); return 0; }"
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    plain = run(exe, timed=False)
    profiled = profile(exe)
    assert profiled.run.output == plain.output
    assert profiled.run.instructions == plain.instructions


def test_profiled_cycles_equal_plain_timed_run(libmc, crt0):
    """Profiling is layered onto the timed loop, not a separate loop:
    cycle totals must be identical, and per-procedure attribution must
    account for every cycle."""
    source = """
    int work(int n) {
        int i;
        int s = 0;
        for (i = 0; i < n; i++) { s += i * 3 + (s >> 2); }
        return s;
    }
    int main() { __putint(work(150)); return 0; }
    """
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    plain = run(exe, timed=True)
    profiled = profile(exe, timed=True)
    assert profiled.run.cycles == plain.cycles
    assert profiled.run.instructions == plain.instructions
    assert profiled.run.icache_misses == plain.icache_misses
    assert sum(p.cycles for p in profiled.procs) == plain.cycles
    assert sum(p.instructions for p in profiled.procs) == plain.instructions


def test_profiled_cycles_equal_plain_run_on_benchmark():
    from repro.experiments import build

    for variant in ("ld", "om-full"):
        exe = build.link_variant("compress", "each", variant, 1)
        plain = run(exe, timed=True)
        profiled = profile(exe, timed=True)
        assert profiled.run.cycles == plain.cycles, variant
        assert sum(p.cycles for p in profiled.procs) == plain.cycles, variant


def test_fractions_sum_to_one(libmc, crt0):
    source = "int main() { __putint(9); return 0; }"
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    result = profile(exe)
    assert abs(sum(p.fraction for p in result.procs) - 1.0) < 1e-12
    assert abs(sum(p.cycle_fraction for p in result.procs) - 1.0) < 1e-12


def test_unattributed_bucket_catches_uncovered_text(libmc, crt0):
    """Executed words outside the proc table land in an explicit bucket
    instead of silently vanishing from the totals."""
    source = "int main() { __putint(5); return 0; }"
    exe = link([crt0, compile_module(source, "t.o")], [libmc])
    # Drop proc-table entries so their executed words become strays.
    full = profile(exe)
    assert all(p.name != UNATTRIBUTED for p in full.procs)
    exe_truncated = dataclasses.replace(
        exe, procs=[p for p in exe.procs if p.name not in ("main", "__putint")]
    )
    result = profile(exe_truncated)
    stray = result.named(UNATTRIBUTED)
    assert stray.instructions > 0
    assert stray.cycles > 0
    assert sum(p.instructions for p in result.procs) == result.run.instructions
    assert sum(p.cycles for p in result.procs) == result.run.cycles
    assert abs(sum(p.fraction for p in result.procs) - 1.0) < 1e-12


def test_overhead_counters_drop_under_om_full():
    """OM-full removes executed address-calculation overhead: every PV
    load, essentially every GP-setup pair, and many GAT loads."""
    from repro.experiments import build

    base = profile(build.link_variant("compress", "each", "ld", 1))
    opt = profile(build.link_variant("compress", "each", "om-full", 1))
    assert base.overhead.gat_loads > 0
    assert base.overhead.pv_loads > 0
    assert base.overhead.gp_setup_pairs > 0
    assert opt.overhead.gat_loads < base.overhead.gat_loads
    assert opt.overhead.pv_loads == 0
    assert opt.overhead.gp_setup_pairs < base.overhead.gp_setup_pairs
    # Per-proc overhead sums to the whole-program totals.
    assert sum(p.gat_loads for p in base.procs) == base.overhead.gat_loads
    assert sum(p.pv_loads for p in base.procs) == base.overhead.pv_loads
    assert (
        sum(p.gp_setup_pairs for p in base.procs)
        == base.overhead.gp_setup_pairs
    )


def test_jit_backend_profile_identical_to_interpreter():
    """The JIT backend's attribution is the interpreter's, exactly.

    Per-procedure cycles must sum to the plain-run total under the JIT
    just as they do for the interpreter, and the whole serialized
    profile (every proc, every counter) must be byte-identical.
    """
    from repro.experiments import build
    from repro.machine.jit import clear_jit_cache

    clear_jit_cache()
    exe = build.link_variant("compress", "each", "ld", 1)
    plain = run(exe, timed=True)
    interp = profile(exe, timed=True, backend="interp")
    # A first run on the cold cache, then one in translated regions.
    for __ in range(2):
        jit = profile(exe, timed=True, backend="jit")
        assert jit.run.cycles == plain.cycles
        assert sum(p.cycles for p in jit.procs) == plain.cycles
        assert sum(p.instructions for p in jit.procs) == plain.instructions
        assert jit.to_json() == interp.to_json()


def test_jit_backend_profile_functional_path():
    """Untimed attribution (the PGO feedback shape) is also identical."""
    from repro.experiments import build
    from repro.machine.jit import clear_jit_cache

    exe = build.link_variant("eqntott", "each", "ld", 1)
    interp = profile(exe, timed=False, backend="interp")
    # A first run on a cold cache, then one in translated regions.
    clear_jit_cache()
    for __ in range(2):
        jit = profile(exe, timed=False, backend="jit")
        assert jit.to_json() == interp.to_json()
        assert (
            sum(p.instructions for p in jit.procs) == jit.run.instructions
        )
