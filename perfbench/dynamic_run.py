"""dynamic-run: executables run to completion on the timing model.

Setup prebuilds each program of ``PROGRAMS`` at SCALE 1 under ``ld`` and
``om-full`` (compile-each).  One op loads one executable with
``machine_for`` and runs it with ``timed=True``, as Fig. 6 measures it.
A pass runs every executable once on ``interp`` and once on ``jit``;
the JIT translation cache is cleared before every JIT op, because every
Fig. 6 cell and every served ``run`` job executes a distinct executable
once.  The seed orders the pass.

The seed orders the executables but does not select them: scale-1 runs
differ 100x in cycles between programs, so a seeded selection would
spread ``sim_cycles`` and the latencies across seeds far beyond any
bound.  The set was chosen so one pass takes about 12 s on a 2-core
box and covers MiniC and Decaf code.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from perfbench import builds, core, layers
from perfbench.layers import Tracer

PROGRAMS = ("eqntott", "espresso", "fpppp", "mdljsp2", "shapes", "dlist", "mixcall")
VARIANTS = ("ld", "om-full")
BACKENDS = ("interp", "jit")
MODE = "each"
#: One pass (28 ops) is too few for a tail with 10 ops beyond p75.  A
#: pass is about 14 s at nominal speed, so a 30-s run does exactly two.
MIN_PASSES = 2

LAYER_METRICS = (
    "machine.load_ms", "machine.interp_ms", "machine.jit_ms",
    "machine.interp_mips", "machine.jit_mips", "machine.jit_translate_ms",
    "machine.jit_regions", "machine.jit_words", "machine.jit_fallback_steps",
    "machine.icache_misses", "machine.dcache_misses", "machine.dual_issues",
    "op.wall_ms", "op.residual_ms", "trace.overhead_pct",
)

_RUN_FIELDS = ("instructions", "cycles", "icache_misses", "dcache_misses",
               "dual_issues")


@dataclass
class Config:
    programs: tuple = PROGRAMS


@dataclass
class Built:
    executable: object
    addr_loads: int


def _setup(config: Config) -> dict:
    from repro.frontend import compile_sources

    stdlib = builds.build_stdlib()
    built = {}
    for program in config.programs:
        sources = builds.sources_for(program, core.RUN_SCALE)
        before = None
        for variant in reversed(VARIANTS):  # om-full first: it counts ld's loads
            objects = compile_sources(sources, MODE, builds.OPTIONS)
            exe, om = builds.link_variant(variant, objects, builds.private_copy(stdlib))
            if om is not None:
                before = om.stats.before.addr_loads
            built[program, variant] = Built(
                exe, om.stats.after.addr_loads if om is not None else before)
    return built


def _pass_ops(config: Config, seed: int) -> list[tuple]:
    ops = [(p, v, b) for p in config.programs for v in VARIANTS for b in BACKENDS]
    random.Random(f"dynamic-run-order-{seed}").shuffle(ops)
    return ops


class Runner:
    def __init__(self, built: dict, tracer: Tracer | None = None):
        self.built = built
        self.tracer = tracer
        self.translate_s: list[float] = []

    def execute(self, op: tuple) -> core.OpSample:
        import repro.machine
        from repro.machine.jit import clear_jit_cache

        program, variant, backend = op
        exe = self.built[program, variant].executable
        tracer = self.tracer

        def load_and_run():
            if backend == "jit":
                clear_jit_cache()
            machine = repro.machine.machine_for(exe, backend=backend)
            with builds.span(tracer, f"machine.{backend}") as span:
                result = machine.run(timed=True)
            out = {f: getattr(result, f) for f in _RUN_FIELDS}
            out["output"] = result.output
            if backend == "jit":
                stats = machine.jit_program().stats
                out["jit"] = [stats.regions, stats.words, stats.fallback_steps]
            return out, span

        key = ":".join(op)
        with builds.span(tracer, "op", op=key):
            sample = core.run_op(key, backend, load_and_run)
        if sample.ok:
            sample.out, span = sample.out
            if tracer is not None and backend == "jit":
                # Translation cost: the cold run minus a warm rerun.
                warm = repro.machine.machine_for(exe, backend="jit")
                start = time.perf_counter()
                warm.run(timed=True)
                self.translate_s.append(span.dur - (time.perf_counter() - start))
        return sample


def _check(samples, ctx, ledger: core.DriftLedger) -> None:
    expected = {}
    reference = {}
    for sample in samples:
        if not sample.ok:
            continue
        program, variant, _ = sample.op.split(":")
        if program not in expected:
            expected[program] = core.load_expected(ctx.expected_dir, program, MODE,
                                                   core.RUN_SCALE)
        out = sample.out
        if out["output"] != expected[program]:
            sample.fail("output differs from expected file")
        agreed = [out["output"], out["instructions"], out["cycles"]]
        if reference.setdefault((program, variant), agreed) != agreed:
            sample.fail("interp and jit disagree on output, instructions or cycles")
        recorded = {k: v for k, v in out.items() if k != "output"}
        recorded["output"] = core.digest(out["output"].encode())
        if not ledger.check(f"dynamic-run:{sample.op}", recorded):
            sample.fail("deterministic output drifted")


def _deterministic(samples, built: dict) -> dict:
    cycles = {}
    for s in samples:
        if s.ok and s.kind == "interp":
            program, variant, _ = s.op.split(":")
            cycles[program, variant] = s.out["cycles"]
    return {
        "sim_cycles": sum(cycles.values()),
        "text_bytes": sum(b.executable.text_size for b in built.values()),
        "gat_bytes": sum(b.executable.gat_size for b in built.values()),
        "addr_loads": sum(b.addr_loads for b in built.values()),
    }


def _layer_metrics(tracer: Tracer, runner: Runner, samples, untraced, ops_per_pass):
    self_time = tracer.self_times()
    # Warm reruns (translation cost) run outside any op: not counted.
    totals: dict[str, float] = {}
    for s in tracer.spans:
        if s.op is not None:
            totals[s.name] = totals.get(s.name, 0.0) + self_time[s.id]
    passes = max(1, len(samples) // ops_per_pass)
    metrics = {"machine.load_ms": 1e3 * totals.get("machine.load", 0.0) / len(samples)}
    for backend in BACKENDS:
        spans = [s for s in tracer.spans if s.name == f"machine.{backend}"]
        ran = [s for s in samples if s.ok and s.kind == backend]
        seconds = sum(s.dur for s in spans)
        metrics[f"machine.{backend}_ms"] = 1e3 * core.mean(s.dur for s in spans)
        metrics[f"machine.{backend}_mips"] = (
            sum(s.out["instructions"] for s in ran) / seconds / 1e6 if seconds else 0.0)
    metrics["machine.jit_translate_ms"] = 1e3 * core.mean(runner.translate_s)
    jit = [s.out["jit"] for s in samples if s.ok and s.kind == "jit"]
    for index, name in enumerate(("regions", "words", "fallback_steps")):
        metrics[f"machine.jit_{name}"] = sum(j[index] for j in jit) / passes
    interp = [s.out for s in samples if s.ok and s.kind == "interp"]
    for name in ("icache_misses", "dcache_misses", "dual_issues"):
        metrics[f"machine.{name}"] = sum(o[name] for o in interp) / passes
    op_spans = [s for s in tracer.spans if s.name == "op"]
    metrics["op.wall_ms"] = 1e3 * core.mean(s.dur for s in op_spans)
    metrics["op.residual_ms"] = 1e3 * core.mean(self_time[s.id] for s in op_spans)
    metrics = core.to_nominal(metrics, samples)
    metrics["trace.overhead_pct"] = core.overhead_pct(samples, untraced)
    return metrics, totals


def run(ctx: core.RunContext, config: Config | None = None) -> core.WorkloadResult:
    from repro.cache import compute_toolchain_stamp

    config = config or Config()
    host = core.HostSpeed()
    built, setup_raw, setup_norm = core.timed_setup(lambda: _setup(config), host)
    stamp = compute_toolchain_stamp()
    ledger = core.DriftLedger(ctx.out_dir, stamp)
    ops = _pass_ops(config, ctx.seed)
    measured = layers.measure(ctx, ops, lambda tracer: Runner(built, tracer), host,
                              MIN_PASSES)
    samples, untraced = measured.samples, measured.untraced
    everything = untraced + samples
    _check(everything, ctx, ledger)
    ledger.save()
    failed = sum(1 for s in everything if not s.ok)
    report = {
        "workload": ctx.workload, "seed": ctx.seed, "stamp": stamp,
        "inputs": {
            "programs": core.digest({p: builds.sources_for(p, core.RUN_SCALE)
                                     for p in config.programs}),
            "order": core.digest([list(op) for op in ops]),
        },
        "setup_raw_s": setup_raw, "setup_s": setup_norm, "import_s": ctx.import_s,
        "host_factor": host.run_factor(), "passes": measured.passes,
        "ops_per_pass": len(ops), "elapsed_s": measured.elapsed,
        "drifts": ledger.drifts[:10], **core.failure_summary(everything),
    }
    if ctx.trace:
        tracer = measured.tracer
        runner = measured.halves[-1][0]
        metrics, totals = _layer_metrics(tracer, runner, samples, untraced, len(ops))
        report["self_time_s"] = totals
        layers.write_artifacts(ctx, tracer.chrome_events(), totals, samples)
    else:
        latency, info = core.latency_metrics(samples)
        report["latency"] = info
        metrics = {
            "setup_s": ctx.import_s + statistics.median(setup_norm),
            "ops_per_s": len(samples) / sum(s.norm_s for s in samples),
            **latency,
            "success_ratio": 1.0 - failed / len(everything),
            "peak_rss_mb": core.self_rss_mb(),
            **_deterministic(samples[: len(ops)], built),
        }
    correct = failed == 0 and not ledger.drifts
    return core.WorkloadResult(metrics, len(everything), failed, correct, report)
