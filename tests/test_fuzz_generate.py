"""Generator validity: every generated program is a usable oracle input.

The fuzzer is only as good as its generator's guarantees: programs
must parse, compile in both modes, terminate within the fuel budget
under every link variant, and regenerate byte-for-byte from their
(seed, config) — that last property is what makes the corpus
replayable.
"""

import dataclasses
import random

import pytest

from repro.fuzz.generate import (
    WORD,
    GenConfig,
    RichProgramGen,
    generate_program,
    random_config,
)
from repro.fuzz.oracle import MODES, VARIANTS, evaluate_program
from repro.isa.ranges import GP_WINDOW

SEEDS = (0, 1, 2, 3, 4)


def test_generation_is_deterministic():
    for seed in SEEDS:
        first = generate_program(seed)
        second = generate_program(seed)
        assert first.modules == second.modules


def test_distinct_seeds_distinct_programs():
    sources = {generate_program(seed).modules for seed in SEEDS}
    assert len(sources) == len(SEEDS)


def test_configs_shape_the_program():
    lean = GenConfig(modules=2, helpers=1, switches=False, pointers=False,
                     recursion=False, while_loops=False, dead_procs=False)
    rich = GenConfig(modules=4, helpers=3, big_commons=True)
    assert len(generate_program(5, lean).modules) == 2
    assert len(generate_program(5, rich).modules) == 4
    lean_text = "\n".join(generate_program(5, lean).sources)
    assert "switch" not in lean_text
    assert "dead" not in lean_text


def test_big_commons_straddle_gat_window():
    program = generate_program(9, GenConfig(big_commons=True))
    text = "\n".join(program.sources)
    sizes = []
    for line in text.splitlines():
        if line.startswith("int big") and "[" in line:
            sizes.append(int(line.split("[")[1].split("]")[0]) * WORD)
    assert sizes, "big_commons should emit oversized commons"
    assert any(size > GP_WINDOW.hi for size in sizes)


def test_mutated_and_random_configs_stay_valid():
    rng = random.Random(0)
    config = GenConfig()
    for __ in range(50):
        config = config.mutated(rng)
        assert 1 <= config.modules <= 5
        assert config.fuel > 0
    for __ in range(20):
        config = random_config(rng)
        program = generate_program(rng.randrange(1000), config)
        assert len(program.modules) == config.modules
        assert f"int __fuel = {config.fuel};" in program.modules[0][1]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_pass_the_whole_matrix(seed):
    """Compiles everywhere, halts everywhere, and all cells agree."""
    report = evaluate_program(generate_program(seed))
    assert not report.diverged, report.summary()
    assert len(report.cells) == len(MODES) * len(VARIANTS)
    assert all(cell.halted for cell in report.cells.values())
    assert report.coverage, "OM links should fire provenance events"


def test_dataclass_roundtrip_matches_corpus_meta():
    config = dataclasses.replace(GenConfig(), fuel=123, big_commons=True)
    assert GenConfig(**dataclasses.asdict(config)) == config


def test_legacy_programgen_reexported():
    # tests/test_differential.py and the symbolic round-trip property
    # import ProgramGen from the fuzz package now.
    from repro.fuzz import ProgramGen

    main_src, helper_src = ProgramGen(7).module_pair()
    assert "int main()" in main_src
    assert "twist" in helper_src


def test_decaf_generation_is_deterministic():
    for seed in SEEDS:
        config = GenConfig(language="decaf")
        assert (
            generate_program(seed, config).modules
            == generate_program(seed, config).modules
        )


def test_decaf_program_shape():
    program = generate_program(5, GenConfig(modules=3, language="decaf"))
    assert len(program.modules) == 3
    assert all(name.endswith(".dcf") for name, __ in program.modules)
    text = "\n".join(program.sources)
    assert "extern class" in text  # hierarchies cross translation units
    assert "extends" in text
    assert "new " in text


def test_mixed_program_has_one_minic_kernel_unit():
    program = generate_program(5, GenConfig(modules=3, language="mixed"))
    assert len(program.modules) == 3
    suffixes = [name.rsplit(".", 1)[1] for name, __ in program.modules]
    assert suffixes.count("mc") == 1 and suffixes[-1] == "mc"
    decaf_text = "\n".join(t for n, t in program.modules if n.endswith(".dcf"))
    assert "extern int kq0(int a, int b);" in decaf_text
    assert "extern int mixg_0;" in decaf_text


def test_decaf_big_commons_straddle_gat_window():
    program = generate_program(9, GenConfig(language="decaf", big_commons=True))
    text = "\n".join(program.sources)
    sizes = [
        int(line.split("[")[1].split("]")[0]) * WORD
        for line in text.splitlines()
        if line.startswith("int dbig") and "[" in line
    ]
    # The straddler is planned within a few words of the boundary (on
    # either side), so the sorted-placement cut lands inside the run.
    assert sizes
    assert any(abs(size - (GP_WINDOW.hi + 1)) <= 6 * WORD for size in sizes)


@pytest.mark.parametrize("language", ["decaf", "mixed"])
def test_decaf_programs_pass_the_whole_matrix(language):
    """Cross-language oracle cells: all variants and backends agree."""
    report = evaluate_program(generate_program(1, GenConfig(language=language)))
    assert not report.diverged, report.summary()
    assert len(report.cells) == len(MODES) * len(VARIANTS)
    assert all(cell.halted for cell in report.cells.values())


def test_language_survives_config_roundtrip():
    config = GenConfig(language="mixed")
    assert GenConfig(**dataclasses.asdict(config)).language == "mixed"
    # Old corpus metadata (no language key) must deserialize to minic.
    legacy = dataclasses.asdict(GenConfig())
    del legacy["language"]
    assert GenConfig(**legacy).language == "minic"


def test_random_config_languages_palette():
    rng = random.Random(3)
    langs = {random_config(rng, ("minic", "decaf", "mixed")).language
             for __ in range(40)}
    assert langs == {"minic", "decaf", "mixed"}
    assert random_config(rng).language == "minic"
    assert random_config(rng, ("decaf",)).language == "decaf"


def test_mutation_preserves_language():
    rng = random.Random(0)
    config = GenConfig(language="decaf")
    for __ in range(30):
        config = config.mutated(rng)
        assert config.language == "decaf"


def test_rich_generator_reserves_loop_counters():
    # i/j/k are for-loop counters; the statement generator must never
    # assign them or loops could be cut short or never terminate.
    gen = RichProgramGen(11, GenConfig())
    program = gen.generate()
    for __, text in program.modules:
        for line in text.splitlines():
            stripped = line.strip()
            for counter in ("i", "j", "k"):
                assert not stripped.startswith(f"{counter} =")
                assert not stripped.startswith(f"{counter} ^=")
