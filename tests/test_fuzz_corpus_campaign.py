"""Corpus persistence, byte-for-byte replay, and the campaign loop."""

from pathlib import Path

from repro.cache import ArtifactCache
from repro.fuzz import run_campaign
from repro.fuzz.corpus import (
    list_entries,
    load_entry,
    replay_entry,
    save_entry,
    sources_digest,
)
from repro.fuzz.generate import GenConfig, generate_program
from repro.fuzz.oracle import MODES


def test_corpus_roundtrip(tmp_path):
    program = generate_program(42, GenConfig(modules=2))
    path = save_entry(
        tmp_path, program, kind="coverage", info={"new_pairs": [["move", "sched"]]}
    )
    assert path.name.startswith("coverage-seed00000042-")
    entry = load_entry(path)
    assert entry.kind == "coverage"
    assert entry.seed == 42
    assert entry.config == program.config
    assert entry.modules == program.modules
    assert entry.info == {"new_pairs": [["move", "sched"]]}
    assert list_entries(tmp_path) == [path]


def test_replay_is_byte_for_byte(tmp_path):
    program = generate_program(7)
    entry = load_entry(save_entry(tmp_path, program, kind="coverage"))
    regenerated, matches = replay_entry(entry)
    assert matches
    assert regenerated.modules == program.modules


def test_replay_detects_tampering(tmp_path):
    program = generate_program(7)
    path = save_entry(tmp_path, program, kind="coverage")
    name = program.modules[0][0]
    target = path / name
    target.write_text(target.read_text() + "\n/* edited */\n")
    __, matches = replay_entry(load_entry(path))
    assert not matches


def test_minimized_sources_persist(tmp_path):
    program = generate_program(7, GenConfig(modules=2))
    minimized = (("m0.mc", "int main() { return 0; }\n"),)
    path = save_entry(
        tmp_path, program, kind="divergence", minimized=minimized
    )
    entry = load_entry(path)
    assert entry.kind == "divergence"
    assert entry.minimized == minimized
    assert sources_digest(entry.modules) == sources_digest(program.modules)


def test_campaign_smoke(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    stats = run_campaign(
        0, 3, corpus_dir=tmp_path / "corpus", cache=cache
    )
    assert stats.iterations == 3
    assert stats.ok
    assert not stats.divergences
    assert stats.coverage.programs == 3
    assert stats.coverage.counts
    # The first program always contributes fresh coverage, so the
    # corpus is non-empty and the replay check ran and passed.
    assert stats.corpus_paths
    assert stats.replay_ok is True
    assert stats.timed_pairs == 3 * len(MODES)
    assert "fuzz: seed=0 iterations=3" in stats.format()
    assert f"timed_pairs={3 * len(MODES)} " in stats.format()
    assert stats.jit_words > 0
    assert f"timed_pairs={3 * len(MODES)} jit_words={stats.jit_words} " in (
        stats.format())


def test_campaign_is_deterministic(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    first = run_campaign(5, 3, corpus_dir=tmp_path / "c1", cache=cache)
    second = run_campaign(5, 3, corpus_dir=tmp_path / "c2", cache=cache)
    assert [p.name for p in first.corpus_paths] == [
        p.name for p in second.corpus_paths
    ]
    assert first.coverage.counts == second.coverage.counts
    # And the second run was fully cache-served.
    assert second.cache_misses == 0


def test_campaign_time_budget(tmp_path):
    stats = run_campaign(
        0, 50, time_budget=0.0, corpus_dir=tmp_path / "corpus"
    )
    # At least one wave always runs; the budget stops the rest.
    assert 1 <= stats.iterations < 50


def test_fuzz_cli_smoke(tmp_path, capsys, monkeypatch):
    from repro.experiments.__main__ import main

    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "fuzz",
            "--seed",
            "0",
            "--iterations",
            "2",
            "--corpus-dir",
            str(tmp_path / "corpus"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--trace",
            str(tmp_path / "fuzz.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "fuzz: seed=0 iterations=2" in out
    assert "replay:" in out
    assert (tmp_path / "fuzz.json").is_file()
    assert list_entries(tmp_path / "corpus")
