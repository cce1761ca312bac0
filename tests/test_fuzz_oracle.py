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
