"""static-link: source to executable, with no simulation.

One op compiles one program and links it with one variant.  A pass is
every benchsuite program in both modes under every link variant, the
128-module chain program under ``ld``, ``om-full`` and
``om-full-layout``, and ``EDITS`` chain edits: each edits one module,
recompiles only that module and relinks through ``om-full-wpo``
against a shard cache that lasts the whole run.  The seed orders the
pass and draws the edits.
"""

from __future__ import annotations

import random
import shutil
import statistics
from dataclasses import asdict, dataclass, field

from perfbench import builds, core, layers
from perfbench.layers import Tracer

CHAIN_MODULES = 128
#: Fixed, so the chain's unedited text is the same under every seed.
CHAIN_SEED = 11
CHAIN_VARIANTS = ("ld", "om-full", "om-full-layout")
EDITS = 12
#: Edit salts stay small so the edited constant keeps its encoding.
MAX_SALT = 150

COUNTERS = ("loads_converted", "loads_nullified", "pv_loads_removed",
            "gp_resets_removed", "jsr_to_bsr", "instructions_deleted")

LAYER_METRICS = (
    "frontend.minicc_ms", "frontend.decafc_ms", "objfile.copy_ms",
    "linker.resolve_ms", "linker.layout_ms", "linker.relocate_ms",
    "linker.driver_ms", "om.translate_ms", "om.program_ms",
    "om.transform_ms", "om.reassemble_ms", "om.sched_ms", "om.driver_ms",
    "om.rounds", *(f"om.{c}" for c in COUNTERS),
    "wpo.rounds_ms", "wpo.partition_ms", "wpo.shard_hit_ratio",
    "cache.get_ms", "cache.put_ms", "layout.plan_ms", "layout.relax_ms",
    "layout.relax_iterations", "layout.relax_demoted",
    *(f"link.{v}_ms" for v in core.LINK_VARIANTS),
    *(f"link.chain-{v}_ms" for v in CHAIN_VARIANTS), "link.chain-edit_ms",
    "om.ld_ratio", "op.wall_ms", "op.residual_ms", "trace.overhead_pct",
)

#: Span names whose self time is one per-layer metric.
_SELF_TIME_LAYERS = (
    "frontend.minicc", "frontend.decafc", "objfile.copy", "linker.resolve",
    "linker.layout", "linker.relocate", "om.translate", "om.program",
    "om.transform", "om.reassemble", "om.sched", "wpo.rounds",
    "wpo.partition", "layout.plan", "layout.relax",
)


@dataclass
class Config:
    """The workload's size; tests shrink it."""

    programs: tuple = builds.ALL_PROGRAMS
    edits: int = EDITS


@dataclass
class State:
    stdlib: object
    sources: dict
    chain_sources: list
    chain_blob: bytes
    chain_profile: object
    cache: object
    cache_dir: object
    salts: dict = field(default_factory=dict)


CHAIN = f"chain{CHAIN_MODULES}"


def chain_sources(salts=None) -> list[tuple[str, str]]:
    from repro.fuzz.generate import generate_scale_program

    program = generate_scale_program(CHAIN_SEED, CHAIN_MODULES, salts=salts)
    return list(program.modules)


def _setup(ctx: core.RunContext, config: Config) -> State:
    from repro.cache import ArtifactCache
    from repro.frontend import compile_sources
    from repro.machine.profile import profile
    from repro.objfile.serialize import dump_archive, load_archive

    stdlib = builds.build_stdlib()
    sources = {p: builds.sources_for(p) for p in config.programs}
    chain = chain_sources()
    objects = compile_sources(chain, "each", builds.OPTIONS)
    blob = dump_archive(objects)
    exe, _ = builds.link_variant("om-full", objects, builds.private_copy(stdlib))
    chain_profile = profile(exe)
    cache_dir = ctx.out_dir / f"work-{ctx.tag}" / "shards"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ArtifactCache(cache_dir)
    # Prime the shard cache with the unedited chain, as a developer's
    # first full link would, so every edit op is an incremental relink.
    builds.link_variant("om-full-wpo", load_archive(blob), builds.private_copy(stdlib),
                        cache=cache)
    return State(stdlib, sources, chain, blob, chain_profile, cache, cache_dir)


def _pass_ops(config: Config, seed: int) -> list[tuple]:
    ops = [("cell", p, m, v) for p in config.programs for m in core.MODES
           for v in core.LINK_VARIANTS]
    ops += [("chain", CHAIN, "each", v) for v in CHAIN_VARIANTS]
    ops += [("edit", CHAIN, "each", "om-full-wpo", k)
            for k in range(config.edits)]
    random.Random(f"static-link-order-{seed}").shuffle(ops)
    return ops


def _om_out(exe, om) -> dict:
    out = {"exe": builds.exe_digest(exe), "text": exe.text_size,
           "gat": exe.gat_size}
    if om is not None:
        out.update(
            addr_before=om.stats.before.addr_loads,
            addr_after=om.stats.after.addr_loads,
            counters=asdict(om.counters),
            relax=[om.stats.relax_iterations, om.stats.relax_demoted],
        )
        if om.wpo is not None:
            out["wpo"] = [om.wpo.hits, om.wpo.misses, om.wpo.rounds]
    return out


class Runner:
    """Executes ops against one setup state; keeps edit evidence."""

    def __init__(self, seed: int, state: State, tracer=None):
        self.state = state
        self.tracer = tracer
        self.edit_rng = random.Random(f"static-link-edits-{seed}")
        self.edit_states: list[tuple[core.OpSample, bytes]] = []
        self._pending_blob = b""

    def execute(self, op: tuple) -> core.OpSample:
        from repro.frontend import compile_sources

        state, tracer = self.state, self.tracer
        kind, program, mode, variant = op[:4]

        def compile_and_link():
            if kind == "edit":
                return self._edit()
            sources = state.chain_sources if kind == "chain" else state.sources[program]
            objects = compile_sources(sources, mode, builds.OPTIONS)
            lib = builds.private_copy(state.stdlib)
            name = f"link.chain-{variant}" if kind == "chain" else f"link.{variant}"
            profile = state.chain_profile if variant == "om-full-layout" else None
            with builds.span(tracer, name):
                return builds.link_variant(variant, objects, lib, profile=profile)

        key = ":".join(str(part) for part in op)
        with builds.span(tracer, "op", op=key):
            sample = core.run_op(key, kind, compile_and_link)
        if sample.ok:
            exe, om = sample.out
            sample.out = _om_out(exe, om)
            if kind == "edit":
                self.edit_states.append((sample, self._pending_blob))
        return sample

    def _edit(self):
        from repro.frontend import compile_sources
        from repro.objfile import serialize

        state = self.state
        module = self.edit_rng.randrange(1, CHAIN_MODULES)
        salt = self.edit_rng.randrange(1, MAX_SALT)
        if salt == state.salts.get(module, 0):
            salt = salt % (MAX_SALT - 1) + 1
        state.salts[module] = salt
        text = chain_sources({module: salt})[module]
        obj = compile_sources([text], "each", builds.OPTIONS)[0]
        objects = serialize.load_archive(state.chain_blob)
        objects[module] = obj
        # The link may rewrite its inputs; the kept state is a copy.
        self._pending_blob = state.chain_blob = serialize.dump_archive(objects)
        lib = builds.private_copy(state.stdlib)
        with builds.span(self.tracer, "link.chain-edit"):
            return builds.link_variant("om-full-wpo", objects, lib, cache=state.cache)


def _check(samples, runner: Runner, ledger: core.DriftLedger) -> None:
    """Mark failed samples: wpo bytes, edit bytes, drift across passes/runs."""
    from repro.objfile.serialize import load_archive

    full = {}
    for sample in samples:
        if sample.ok and sample.op.startswith("cell:") and sample.op.endswith(":om-full"):
            full.setdefault(sample.op.rsplit(":", 1)[0], sample.out["exe"])
    for sample in samples:
        if not sample.ok:
            continue
        if sample.op.startswith("cell:") and sample.op.endswith(":om-full-wpo"):
            if sample.out["exe"] != full.get(sample.op.rsplit(":", 1)[0]):
                sample.fail("om-full-wpo bytes differ from om-full")
        if sample.kind in ("cell", "chain"):
            if not ledger.check(f"static-link:{sample.op}", sample.out):
                sample.fail("deterministic output drifted")
    stdlib = runner.state.stdlib
    for sample, blob in runner.edit_states:
        exe, _ = builds.link_variant("om-full", load_archive(blob),
                                     builds.private_copy(stdlib))
        if builds.exe_digest(exe) != sample.out["exe"]:
            sample.fail("edited om-full-wpo bytes differ from om-full")


def _deterministic(samples) -> dict:
    """text_bytes, gat_bytes, addr_loads over one pass of the fixed ops."""
    fixed = [s for s in samples if s.ok and s.kind in ("cell", "chain")]
    before = {}
    for s in fixed:
        if "addr_before" in s.out:
            before[s.op.rsplit(":", 1)[0]] = s.out["addr_before"]
    addr = 0
    for s in fixed:
        addr += s.out["addr_after"] if "addr_after" in s.out else before.get(
            s.op.rsplit(":", 1)[0], 0)
    return {
        "text_bytes": sum(s.out["text"] for s in fixed),
        "gat_bytes": sum(s.out["gat"] for s in fixed),
        "addr_loads": addr,
    }


def _layer_metrics(tracer: Tracer, samples, untraced_samples) -> tuple[dict, dict]:
    spans = tracer.spans
    self_time = tracer.self_times()
    totals = tracer.self_totals()
    n_ops = len(samples)
    n_edits = sum(1 for s in samples if s.kind == "edit") or 1
    metrics = {f"{name}_ms": 1e3 * totals.get(name, 0.0) / n_ops
               for name in _SELF_TIME_LAYERS}
    metrics["cache.get_ms"] = 1e3 * totals.get("cache.get", 0.0) / n_edits
    metrics["cache.put_ms"] = 1e3 * totals.get("cache.put", 0.0) / n_edits
    link_self = {n: t for n, t in totals.items() if n.startswith("link.")}
    ld_names = ("link.ld", "link.chain-ld")
    metrics["linker.driver_ms"] = 1e3 * sum(
        t for n, t in link_self.items() if n in ld_names) / n_ops
    metrics["om.driver_ms"] = 1e3 * sum(
        t for n, t in link_self.items() if n not in ld_names) / n_ops

    durations: dict[str, list[float]] = {}
    for s in spans:
        if s.name.startswith("link."):
            durations.setdefault(s.name, []).append(s.dur)
    for name in [f"link.{v}" for v in core.LINK_VARIANTS] + [
            f"link.chain-{v}" for v in CHAIN_VARIANTS] + ["link.chain-edit"]:
        metrics[f"{name}_ms"] = 1e3 * core.mean(durations.get(name, []))
    ld = metrics["link.ld_ms"]
    metrics["om.ld_ratio"] = metrics["link.om-full_ms"] / ld if ld else 0.0

    passes = max(1, sum(1 for s in samples if s.kind == "chain") // len(CHAIN_VARIANTS))
    transforms_by_op: dict[str, int] = {}
    for s in spans:
        if s.name == "om.transform":
            transforms_by_op[s.op] = transforms_by_op.get(s.op, 0) + 1
    counts = {f"om.{c}": 0 for c in COUNTERS}
    rounds = relax_it = relax_dem = 0
    hits = misses = 0
    for s in samples:
        if not s.ok or "counters" not in s.out:
            continue
        if s.kind == "edit":
            hits += s.out["wpo"][0]
            misses += s.out["wpo"][1]
            continue
        for c in COUNTERS:
            counts[f"om.{c}"] += s.out["counters"][c]
        rounds += s.out["wpo"][2] if "wpo" in s.out else transforms_by_op.get(s.op, 0)
        relax_it += s.out["relax"][0]
        relax_dem += s.out["relax"][1]
    metrics.update({k: v / passes for k, v in counts.items()})
    metrics["om.rounds"] = rounds / passes
    metrics["layout.relax_iterations"] = relax_it / passes
    metrics["layout.relax_demoted"] = relax_dem / passes
    metrics["wpo.shard_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    op_spans = [s for s in spans if s.name == "op"]
    metrics["op.wall_ms"] = 1e3 * core.mean(s.dur for s in op_spans)
    metrics["op.residual_ms"] = 1e3 * core.mean(self_time[s.id] for s in op_spans)
    metrics = core.to_nominal(metrics, samples)
    metrics["trace.overhead_pct"] = core.overhead_pct(samples, untraced_samples)
    return metrics, totals


def fig7_rows(tracer: Tracer, programs, scale: float) -> list[dict]:
    """Per program: mean ld and om-full link ms (both modes, scaled to
    nominal host speed by ``scale``), ratio, and the OM layer with the
    most self time inside its om-full links."""
    self_time = tracer.self_times()
    children: dict[int, list] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)

    def subtree_self(span, into):
        for child in children.get(span.id, []):
            into[child.name] = into.get(child.name, 0.0) + self_time[child.id]
            subtree_self(child, into)

    rows = []
    for program in programs:
        ld, full, layers = [], [], {}
        for s in tracer.spans:
            if s.op is None or not s.op.startswith(f"cell:{program}:"):
                continue
            if s.name == "link.ld":
                ld.append(s.dur)
            elif s.name == "link.om-full":
                full.append(s.dur)
                layers["om.driver"] = layers.get("om.driver", 0.0) + self_time[s.id]
                subtree_self(s, layers)
        if not ld or not full:
            continue
        dominant = max(layers, key=layers.get)
        rows.append({
            "program": program,
            "ld_ms": 1e3 * scale * core.mean(ld),
            "om_full_ms": 1e3 * scale * core.mean(full),
            "ratio": core.mean(full) / core.mean(ld),
            "dominant": dominant,
            "dominant_share": layers[dominant] / sum(full),
        })
    return rows


def format_fig7(rows) -> str:
    lines = ["| program | ld ms | om-full ms | om-full / ld | dominant OM layer (share of om-full) |",
             "|---|---:|---:|---:|---|"]
    for r in rows:
        lines.append(
            f"| {r['program']} | {r['ld_ms']:.2f} | {r['om_full_ms']:.1f} | "
            f"{r['ratio']:.1f}x | {r['dominant']} ({100 * r['dominant_share']:.0f}%) |"
        )
    return "\n".join(lines)


def run(ctx: core.RunContext, config: Config | None = None) -> core.WorkloadResult:
    from repro.cache import compute_toolchain_stamp

    config = config or Config()
    host = core.HostSpeed()
    state, setup_raw, setup_norm = core.timed_setup(lambda: _setup(ctx, config), host)
    expected = core.load_expected(ctx.expected_dir, CHAIN, "each",
                                  f"gen{CHAIN_SEED}")
    chain_run = state.chain_profile.run
    setup_failures = []
    if chain_run.output != expected:
        setup_failures.append("chain program output differs from expected file")

    stamp = compute_toolchain_stamp()
    ledger = core.DriftLedger(ctx.out_dir, stamp)
    ops = _pass_ops(config, ctx.seed)
    try:
        measured = layers.measure(
            ctx, ops, lambda tracer: Runner(ctx.seed, state, tracer), host)
        for runner, half in measured.halves:
            _check(half, runner, ledger)
    finally:
        shutil.rmtree(state.cache_dir.parent, ignore_errors=True)
    ledger.save()

    samples = measured.samples
    everything = measured.untraced + samples
    failed = sum(1 for s in everything if not s.ok) + len(setup_failures)
    attempted = len(everything)
    report = {
        "workload": ctx.workload, "seed": ctx.seed, "stamp": stamp,
        "inputs": {
            "programs": core.digest({p: state.sources[p] for p in config.programs}),
            "chain": core.digest(state.chain_sources),
            "order": core.digest([list(op) for op in ops]),
        },
        "setup_raw_s": setup_raw, "setup_s": setup_norm, "import_s": ctx.import_s,
        "host_factor": host.run_factor(), "passes": measured.passes,
        "ops_per_pass": len(ops), "elapsed_s": measured.elapsed,
        "setup_failures": setup_failures, "drifts": ledger.drifts[:10],
        **core.failure_summary(everything),
    }
    if ctx.trace:
        tracer = measured.tracer
        metrics, totals = _layer_metrics(tracer, samples, measured.untraced)
        rows = fig7_rows(tracer, config.programs, core.nominal_scale(samples))
        report["fig7"] = rows
        report["self_time_s"] = totals
        layers.write_artifacts(ctx, tracer.chrome_events(), totals, samples,
                               extra=format_fig7(rows))
    else:
        latency, info = core.latency_metrics(samples)
        report["latency"] = info
        metrics = {
            "setup_s": ctx.import_s + statistics.median(setup_norm),
            "ops_per_s": len(samples) / sum(s.norm_s for s in samples),
            **latency,
            "success_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": core.self_rss_mb(),
            "sim_cycles": chain_run.cycles,
            **_deterministic(samples[: len(ops)]),
        }
    wpo = [s.out["wpo"] for s in samples if s.ok and s.kind == "edit"]
    report["edit_shards"] = {"hits": sum(w[0] for w in wpo),
                             "misses": sum(w[1] for w in wpo)}
    correct = failed == 0 and not ledger.drifts
    return core.WorkloadResult(metrics, attempted, failed, correct, report)
