"""The differential oracle: full matrix, invariants, and caching."""

import pytest

from repro.cache import ArtifactCache
from repro.fuzz.generate import GenConfig, GeneratedProgram, generate_program
from repro.fuzz.oracle import (
    MODES,
    VARIANTS,
    divergence_predicate,
    evaluate_program,
)
from repro.obs.provenance import ACTIONS


@pytest.fixture(scope="module")
def report():
    return evaluate_program(generate_program(0))


def test_matrix_is_complete_and_agrees(report):
    assert not report.diverged, report.summary()
    assert set(report.cells) == {
        f"{mode}/{variant}" for mode in MODES for variant in VARIANTS
    }
    outputs = {cell.output for cell in report.cells.values()}
    assert len(outputs) == 1


def test_the_backend_pair_runs_on_the_timing_model(report):
    """The ld cell and the jit column run timed and agree on every
    timing counter; the OM cells run functionally."""
    assert report.timed_pairs == len(MODES)
    for mode in MODES:
        ld, jit = report.cells[f"{mode}/ld"], report.cells[f"{mode}/jit"]
        cycles, __, __, duals = ld.timing
        assert cycles > ld.instructions and duals > 0
        assert jit.timing == ld.timing
        assert report.cells[f"{mode}/om-full"].timing is None


def test_a_jit_timing_difference_is_a_backend_divergence(monkeypatch):
    from repro.machine.jit import JitMachine

    run_timed = JitMachine._run_timed

    def late(self, counts=None, cycle_counts=None):
        result = run_timed(self, counts, cycle_counts)
        result.icache_misses += 1
        return result

    monkeypatch.setattr(JitMachine, "_run_timed", late)
    report = evaluate_program(generate_program(0))
    assert [d.kind for d in report.divergences] == ["backend"] * len(MODES)
    first = report.divergences[0]
    assert first.cells == ("each/jit", "each/ld")
    assert first.detail.startswith("jit icache_misses ")


def test_the_jit_column_runs_twice_and_translates_on_the_second(report):
    """The jit cell's first run is a cold program's, its second one
    translates each head on first entry; both equal the interpreter."""
    for mode in MODES:
        ld, jit = report.cells[f"{mode}/ld"], report.cells[f"{mode}/jit"]
        assert jit.rerun == (ld.output, ld.instructions) + ld.timing
        assert jit.jit_words > 0
    assert report.jit_words == sum(
        report.cells[f"{mode}/jit"].jit_words for mode in MODES
    )


def test_a_second_jit_run_difference_is_a_backend_divergence(monkeypatch):
    from repro.machine.jit import JitMachine

    run_timed = JitMachine._run_timed

    def paired(self, counts=None, cycle_counts=None):
        second = self.jit_program().started
        result = run_timed(self, counts, cycle_counts)
        if second:
            result.dual_issues += 1
        return result

    monkeypatch.setattr(JitMachine, "_run_timed", paired)
    report = evaluate_program(generate_program(0))
    assert [d.kind for d in report.divergences] == ["backend"] * len(MODES)
    first = report.divergences[0]
    assert first.cells == ("each/jit", "each/ld")
    assert first.detail.startswith("jit second run dual_issues ")
    assert "; " not in first.detail  # the first run agreed


def test_instruction_counts_are_monotone(report):
    for mode in MODES:
        ld = report.cells[f"{mode}/ld"].instructions
        simple = report.cells[f"{mode}/om-simple"].instructions
        full = report.cells[f"{mode}/om-full"].instructions
        assert simple <= ld
        assert full <= simple
        assert report.cells[f"{mode}/om-full-sched"].instructions <= simple
        assert report.cells[f"{mode}/om-full-gc"].instructions <= full


def test_coverage_pairs_use_known_actions(report):
    assert report.coverage
    assert {action for action, __ in report.coverage} <= set(ACTIONS)
    # The ld cells carry no provenance; OM cells do.
    assert report.cells["each/ld"].coverage == ()
    assert report.cells["each/om-full"].coverage


def test_cache_roundtrip_is_exact(tmp_path):
    program = generate_program(1)
    cache = ArtifactCache(tmp_path / "cache")
    cold = evaluate_program(program, cache=cache)
    hits0, misses0 = cache.stats.snapshot()
    assert misses0 > 0
    warm = evaluate_program(program, cache=cache)
    hits1, misses1 = cache.stats.snapshot()
    assert misses1 == misses0, "warm run must not miss"
    assert hits1 > hits0
    assert warm.cells == cold.cells
    assert warm.coverage == cold.coverage


def test_broken_program_reports_build_error():
    program = GeneratedProgram(
        0, GenConfig(), (("m0.mc", "int main( { return 0; }\n"),)
    )
    report = evaluate_program(program)
    assert report.diverged
    assert report.divergences[0].kind == "build-error"


def test_divergence_predicate_tracks_kind():
    broken = GeneratedProgram(
        0, GenConfig(), (("m0.mc", "int main( { return 0; }\n"),)
    )
    reference = evaluate_program(broken)
    predicate = divergence_predicate(reference)
    # Still interesting: the same syntax error.
    assert predicate(broken.modules)
    # A healthy program is not.
    assert not predicate(generate_program(0).modules)


def test_the_wpo_cell_relinks_warm_without_building_a_body(monkeypatch):
    from repro.fuzz import oracle

    cached = []  # the shard-cache links' (misses, built)
    om_link = oracle.om_link

    def spied(*args, cache=None, **kwargs):
        result = om_link(*args, cache=cache, **kwargs)
        if cache is not None:
            cached.append((result.wpo.misses, result.wpo.built))
        return result

    monkeypatch.setattr(oracle, "om_link", spied)
    report = evaluate_program(generate_program(2))
    assert not report.diverged, report.summary()
    for mode in MODES:
        wpo = report.cells[f"{mode}/om-full-wpo"]
        assert wpo.exe_digest == wpo.relink_digest
        assert wpo.exe_digest == report.cells[f"{mode}/om-full"].exe_digest
    assert len(cached) == 2 * len(MODES)
    for (cold_misses, __), (warm_misses, warm_built) in zip(cached[::2], cached[1::2]):
        assert cold_misses > 0 and warm_misses == 0 and warm_built == []


def test_a_wrong_warm_relink_is_an_exe_bytes_divergence(monkeypatch):
    from repro.fuzz import oracle
    from repro.linker import link

    relinked = oracle._relinked

    def wrong(program, mode, objects, libmc, level, options):
        cold, __ = relinked(program, mode, objects, libmc, level, options)
        ld_objects, ld_libmc = oracle._compile_objects(program, mode)
        return cold, link(ld_objects, [ld_libmc])

    monkeypatch.setattr(oracle, "_relinked", wrong)
    report = evaluate_program(generate_program(2))
    assert [d.kind for d in report.divergences] == ["exe-bytes"] * len(MODES)
    assert report.divergences[0].cells == ("each/om-full", "each/om-full-wpo")
