"""The fuzz loop: plan, evaluate, guide, reduce, persist.

A campaign is seeded and deterministic: a single master RNG plans every
iteration's (program seed, generator config), so ``--seed 0`` twice
produces the same corpus.  Iterations are scheduled in *waves* — one
task inline, or ``jobs`` tasks across a ``ProcessPoolExecutor`` sharing
the content-addressed disk cache — and results are always folded in
submission order, so parallelism never perturbs the outcome of the
guidance decisions.

Guidance is provenance coverage: each evaluated program's
``(action, pass)`` pairs feed a :class:`~repro.fuzz.coverage.CoverageMap`;
programs that light up never-seen pairs join the corpus as mutation
seeds, and the planner biases toward mutating the seeds whose coverage
is rarest under the current map.  Divergent programs are re-evaluated
inline, shrunk with the ddmin reducer, and persisted to the corpus with
their minimized sources and an OM provenance trace.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz import corpus as corpus_store
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generate import GenConfig, generate_program, random_config
from repro.fuzz.oracle import (
    DEFAULT_MAX_INSTRUCTIONS,
    divergence_predicate,
    evaluate_program,
)
from repro.fuzz.reduce import reduce_program
from repro.obs.trace import TraceLog

#: Probability of mutating a corpus seed (vs. a fresh random config)
#: once the mutation pool is non-empty.
_MUTATE_BIAS = 0.6

# Worker-side disk cache, set once per pool worker by the initializer.
_WORKER_CACHE = None


def _fuzz_worker_init(cache_root: str, stamp: str) -> None:
    global _WORKER_CACHE
    from repro.cache import ArtifactCache

    _WORKER_CACHE = ArtifactCache(cache_root, stamp=stamp)


def _evaluate_task(seed: int, config_dict: dict, max_instructions: int) -> dict:
    """Worker entry point: generate + run the oracle, return plain data."""
    start = time.perf_counter()
    hits0, misses0 = _WORKER_CACHE.stats.snapshot() if _WORKER_CACHE else (0, 0)
    program = generate_program(seed, GenConfig(**config_dict))
    report = evaluate_program(
        program, cache=_WORKER_CACHE, max_instructions=max_instructions
    )
    hits1, misses1 = _WORKER_CACHE.stats.snapshot() if _WORKER_CACHE else (0, 0)
    return {
        "seed": seed,
        "config": config_dict,
        "pairs": sorted(report.coverage),
        "diverged": report.diverged,
        "kinds": [d.kind for d in report.divergences],
        "timed_pairs": report.timed_pairs,
        "jit_words": report.jit_words,
        "seconds": time.perf_counter() - start,
        "hits": hits1 - hits0,
        "misses": misses1 - misses0,
    }


@dataclass
class CampaignStats:
    """What a campaign did, formatted for humans and asserted by CI."""

    master_seed: int
    jobs: int = 1
    iterations: int = 0
    wall: float = 0.0
    divergences: list[str] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    replay_entry: str | None = None
    replay_ok: bool | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Timed interpreter/JIT cell pairs the oracle compared.
    timed_pairs: int = 0
    #: Words the jit cells' second runs translated.
    jit_words: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences and self.replay_ok is not False

    def format(self) -> str:
        lines = [
            f"fuzz: seed={self.master_seed} iterations={self.iterations} "
            f"divergences={len(self.divergences)} timed_pairs={self.timed_pairs} "
            f"jit_words={self.jit_words} corpus={len(self.corpus_paths)} "
            f"jobs={self.jobs} wall={self.wall:.1f}s"
        ]
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"cache: hits={self.cache_hits} misses={self.cache_misses}"
            )
        lines.append(self.coverage.format())
        for summary in self.divergences:
            lines.append(f"DIVERGENCE: {summary}")
        if self.replay_entry is not None:
            verdict = "OK" if self.replay_ok else "MISMATCH"
            lines.append(
                f"replay: {self.replay_entry} regenerates byte-for-byte: {verdict}"
            )
        return "\n".join(lines)


def _provenance_trace(modules) -> TraceLog:
    """An OM-full provenance trace of a repro, for the corpus entry."""
    from repro.fuzz import oracle
    from repro.fuzz.generate import GeneratedProgram
    from repro.om import OMLevel, om_link

    program = GeneratedProgram(0, GenConfig(), tuple(modules))
    objects, libmc = oracle._compile_objects(program, "each")
    trace = TraceLog()
    om_link(objects, [libmc], level=OMLevel.FULL, trace=trace)
    return trace


def run_campaign(
    master_seed: int = 0,
    iterations: int = 50,
    *,
    time_budget: float | None = None,
    jobs: int = 1,
    corpus_dir: Path | str = "corpus",
    cache=None,
    trace: TraceLog | None = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    minimize: bool = True,
    languages: tuple[str, ...] = ("minic",),
    log=None,
) -> CampaignStats:
    """Run a deterministic fuzz campaign; returns its statistics.

    Stops after ``iterations`` evaluations or, with ``time_budget``
    (seconds), at the first wave boundary past the budget.  ``jobs > 1``
    fans evaluation across processes but requires a disk ``cache`` (the
    workers share artifacts through it); without one it falls back to
    inline execution.  ``languages`` is the frontend palette fresh
    configs draw from (``minic``, ``decaf``, ``mixed``); mutation keeps
    a corpus seed's language, so cross-language campaigns still breed
    within each frontend's feature space.
    """
    global _WORKER_CACHE
    say = log or (lambda message: None)
    if jobs > 1 and cache is None:
        say("fuzz: no disk cache; falling back to jobs=1")
        jobs = 1

    rng = random.Random(master_seed)
    stats = CampaignStats(master_seed=master_seed, jobs=jobs)
    pool: list[tuple[int, GenConfig, tuple]] = []  # (seed, config, pairs)
    hits0, misses0 = cache.stats.snapshot() if cache else (0, 0)
    started = time.perf_counter()

    def plan() -> tuple[int, GenConfig]:
        if pool and rng.random() < _MUTATE_BIAS:
            weights = [
                stats.coverage.rarity_score(pairs) + 0.01 for __, __, pairs in pool
            ]
            parent = rng.choices(pool, weights=weights)[0]
            return rng.randrange(1 << 32), parent[1].mutated(rng)
        if stats.iterations == 0 and not pool:
            return rng.randrange(1 << 32), GenConfig(language=languages[0])
        return rng.randrange(1 << 32), random_config(rng, languages)

    def fold(result: dict) -> None:
        stats.iterations += 1
        stats.timed_pairs += result["timed_pairs"]
        stats.jit_words += result["jit_words"]
        if executor is not None:
            # Worker-side cache traffic; inline traffic is captured by
            # the parent-side snapshot delta at the end.
            stats.cache_hits += result["hits"]
            stats.cache_misses += result["misses"]
        seed = result["seed"]
        config = GenConfig(**result["config"])
        fresh = stats.coverage.add(result["pairs"])
        if trace is not None:
            trace.event(
                f"iter-{stats.iterations}",
                cat="fuzz",
                seed=seed,
                diverged=result["diverged"],
                new_pairs=len(fresh),
                seconds=round(result["seconds"], 4),
            )
        if result["diverged"]:
            _handle_divergence(seed, config)
        elif fresh:
            program = generate_program(seed, config)
            path = corpus_store.save_entry(
                corpus_dir,
                program,
                kind="coverage",
                info={"new_pairs": sorted(map(list, fresh))},
            )
            stats.corpus_paths.append(path)
            pool.append((seed, config, tuple(map(tuple, result["pairs"]))))
            say(
                f"fuzz [{stats.iterations}] seed={seed} "
                f"+{len(fresh)} new pairs -> {path.name}"
            )

    def _handle_divergence(seed: int, config: GenConfig) -> None:
        program = generate_program(seed, config)
        report = evaluate_program(
            program, cache=cache, max_instructions=max_instructions
        )
        stats.divergences.append(report.summary())
        say(f"fuzz [{stats.iterations}] {report.summary()}")
        minimized = None
        if minimize and report.diverged:
            predicate = divergence_predicate(
                report, cache=cache, max_instructions=max_instructions
            )
            reduction = reduce_program(program, predicate)
            minimized = reduction.program.modules
            say(
                f"fuzz [{stats.iterations}] reduced: -{reduction.removed_lines} "
                f"lines, -{reduction.removed_modules} modules "
                f"({reduction.tests} tests)"
            )
        try:
            repro_trace = _provenance_trace(minimized or program.modules)
        except Exception:
            repro_trace = None
        path = corpus_store.save_entry(
            corpus_dir,
            program,
            kind="divergence",
            info={
                "divergences": [dataclasses.asdict(d) for d in report.divergences]
            },
            minimized=minimized,
            trace=repro_trace,
        )
        stats.corpus_paths.append(path)

    executor = None
    if jobs > 1:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_fuzz_worker_init,
            initargs=(str(cache.root), cache.stamp),
        )
    try:
        while stats.iterations < iterations:
            elapsed = time.perf_counter() - started
            if time_budget is not None and stats.iterations and elapsed >= time_budget:
                say(f"fuzz: time budget ({time_budget:.0f}s) reached")
                break
            wave = [
                plan()
                for __ in range(min(max(1, jobs), iterations - stats.iterations))
            ]
            if executor is None:
                _WORKER_CACHE = cache
                results = [
                    _evaluate_task(seed, dataclasses.asdict(config), max_instructions)
                    for seed, config in wave
                ]
            else:
                futures = [
                    executor.submit(
                        _evaluate_task,
                        seed,
                        dataclasses.asdict(config),
                        max_instructions,
                    )
                    for seed, config in wave
                ]
                results = [future.result() for future in futures]
            for result in results:
                fold(result)
    finally:
        if executor is not None:
            executor.shutdown()
        if jobs <= 1:
            _WORKER_CACHE = None

    if stats.corpus_paths:
        entry = corpus_store.load_entry(sorted(stats.corpus_paths)[0])
        __, matches = corpus_store.replay_entry(entry)
        stats.replay_entry = entry.name
        stats.replay_ok = matches

    stats.wall = time.perf_counter() - started
    if cache:
        hits1, misses1 = cache.stats.snapshot()
        stats.cache_hits += hits1 - hits0
        stats.cache_misses += misses1 - misses0
    if trace is not None:
        trace.counter(
            "fuzz-coverage",
            cat="fuzz",
            pairs=len(stats.coverage.counts),
            programs=stats.coverage.programs,
        )
    return stats
