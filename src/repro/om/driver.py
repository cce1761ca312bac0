"""The OM optimizing-linker driver.

``om_link`` mirrors the standard linker's interface but routes every
module through symbolic translation, the requested optimization level,
optional rescheduling, and reassembly; the finish is a normal layout +
relocation pass over the transformed modules.  GAT reduction is
emergent: the final GAT is built from the literal relocations that
survive, and a smaller GAT brings data closer to GP, "perhaps enabling
a fresh round of the other improvements".

The rounds run in :func:`~repro.om.transform.run_rounds`.  Each lays
out from :func:`~repro.om.symbolic.layout_object` (sizes, symbols and
literals at the placed offsets, nothing encoded) and records a layout
fact for every candidate it declines because of the layout.  After a
round that changed something the program is laid out once more, and a
fresh round runs only when that layout flips one of the facts: the
convergence certificate replaces the round that used to run only to
find nothing changed.  The finish encodes each module once, at the
placement of that last layout, unless rescheduling or dead-procedure
removal changed the modules after the rounds, or the last round
allowed changed something (OM-simple's one round, for one), which
leaves no layout to reuse.  With ``OMOptions.verify`` the round the
certificate skipped runs anyway, and a change in it raises
``VerificationError("unconverged: ...")``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.linker.executable import Executable
from repro.linker.layout import DEFAULT_GAT_CAPACITY, LayoutOptions, compute_layout
from repro.linker.relocate import build_executable
from repro.linker.resolve import resolve_inputs
from repro.obs.trace import TraceLog, span_or_null
from repro.objfile.archive import Archive
from repro.objfile.objfile import ObjectFile
from repro.om.sched import om_schedule
from repro.om.stats import OMStats, count_code
from repro.om.symbolic import reassemble_module, translate_module
from repro.om.transform import (
    PassCounters,
    Program,
    Transformer,
    lay_out,
    run_rounds,
)
from repro.om.verify import VerifyReport


class OMLevel(enum.Enum):
    """Optimization level, as in the paper's study."""

    NONE = "none"  # translate and regenerate only (overhead baseline)
    SIMPLE = "simple"  # no code motion; 1-for-1 replacement with no-ops
    FULL = "full"  # motion, deletion, GAT-reduction rounds


@dataclass
class OMOptions:
    """Knobs, including the ablations DESIGN.md calls out."""

    schedule: bool = False  # link-time rescheduling (OM-full only)
    align_loop_targets: bool = True  # quadword-align backward-branch targets
    rounds: int = 3  # bound on the transformation rounds
    sort_commons: bool = True  # place size-sorted COMMONs near the GAT
    convert_escaped: bool = False  # 2-for-1 ldah+lda for far escaped literals
    remove_dead_procs: bool = False  # extension: link-time procedure GC
    verify: bool = False  # run the structural verifier on the output
    gat_capacity: int = DEFAULT_GAT_CAPACITY
    entry: str = "__start"
    # -- layout subsystem (repro.layout): the closed PGO loop ---------
    layout: bool = False  # Pettis-Hansen reordering + hot COMMONs (FULL)
    relax: bool = False  # optimistic jsr->bsr span-dependent relaxation
    relax_slack: int = 0  # extra modelled-growth headroom, bytes
    relax_max_iterations: int = 64  # fixpoint ceiling (backstop)
    bsr_range_words: int = 1 << 20  # 21-bit word displacement reach
    # -- partitioned whole-program optimization (repro.wpo) -----------
    partitions: int = 0  # >1: shard the transform rounds (byte-identical)


@dataclass
class OMResult:
    executable: Executable
    stats: OMStats
    counters: PassCounters = field(default_factory=PassCounters)
    #: Structural-verification counters when ``OMOptions.verify`` ran.
    verify: VerifyReport | None = None
    #: The link's trace/provenance log when one was attached.
    trace: TraceLog | None = None
    #: :class:`repro.wpo.WPOStats` when ``OMOptions.partitions`` > 1.
    wpo: object | None = None


def om_link(
    objects: list[ObjectFile],
    libraries: list[Archive] = (),
    *,
    level: OMLevel = OMLevel.FULL,
    options: OMOptions | None = None,
    trace: TraceLog | None = None,
    profile=None,
    cache=None,
) -> OMResult:
    """Optimizing link: the paper's OM-simple / OM-full, or the
    translate-only OM-none baseline.

    With a ``trace`` attached, every phase records a span and every
    transformation decision records a provenance event (see
    :mod:`repro.obs.provenance`).

    With ``options.layout`` set, a :class:`~repro.machine.profile.
    ProfileResult` of a previous run of the same program (``profile``)
    closes the PGO loop: procedures are reordered along the profiled
    call graph and COMMON placement is steered by symbol heat.  Without
    a profile the layout planner falls back to static estimates.

    With ``options.partitions`` > 1 the transformation rounds run
    partitioned (:mod:`repro.wpo`): balanced shards around a serial
    whole-program phase, producing a byte-identical executable.
    ``cache`` (an :class:`repro.cache.ArtifactCache`) then
    content-addresses each shard's transform, so relinking after a
    one-module edit only translates and recomputes the changed shard.
    """
    options = options or OMOptions()
    inputs = resolve_inputs(objects, list(libraries))

    # A partitioned link translates only what its shard cache misses.
    partitioned = options.partitions > 1 and level is not OMLevel.NONE
    pgo = level is OMLevel.FULL and options.layout

    # The rounds lay out exactly as the finish will (a PGO plan adds its
    # symbol weights below).
    layout_options = (
        LayoutOptions()
        if level is OMLevel.NONE
        else LayoutOptions(
            gat_capacity=options.gat_capacity,
            sort_commons=options.sort_commons,
        )
    )
    # Baseline measurements use the standard linker's view.  Round 0
    # lays out the program as given, and when its options differ from
    # the standard linker's only in COMMON sorting, which moves only
    # data, its text end and GAT groups are the standard linker's: such
    # a link reads them off round 0's layout instead of a layout of its
    # own.  A PGO link reorders procedures before round 0.
    baseline_layout = None
    if (level is OMLevel.NONE or pgo
            or replace(layout_options, sort_commons=False) != LayoutOptions()):
        baseline_layout = compute_layout(inputs, LayoutOptions())
    modules = before = None
    if pgo or not partitioned:
        with span_or_null(
            trace, "om.translate", cat="om", modules=len(inputs.modules)
        ):
            modules = [translate_module(module) for module in inputs.modules]
        before = count_code(modules)

    # Profile-guided layout: reorder procedures and weigh symbols
    # before the transformation rounds, so every round's tentative
    # layout (and the relaxation fixpoint) sees the final placement.
    plan = None
    if pgo:
        from repro.layout.plan import apply_plan, plan_layout

        with span_or_null(
            trace, "om.layout", cat="om", profiled=profile is not None
        ):
            plan = plan_layout(
                modules, profile=profile, entry=options.entry, trace=trace
            )
            modules = apply_plan(modules, plan, trace=trace)
        if plan.symbol_weights:
            layout_options = replace(
                layout_options, symbol_weights=plan.symbol_weights
            )

    relax_options = None
    if options.relax and level is not OMLevel.NONE:
        from repro.layout.relax import RelaxOptions

        # Rescheduling (alignment padding) and the escaped 2-for-1
        # ablation can grow code after the decisions; reserve headroom.
        slack = options.relax_slack + (
            32768 if (options.schedule or options.convert_escaped) else 0
        )
        relax_options = RelaxOptions(
            range_words=options.bsr_range_words,
            slack=slack,
            max_iterations=options.relax_max_iterations,
        )

    counters = PassCounters()
    # The relaxation statistics describe the last round's fixpoint.
    relax_iterations = relax_demoted = 0
    wpo = None
    rounds = None
    if level is not OMLevel.NONE:
        max_rounds = 1 if level is OMLevel.SIMPLE else max(1, options.rounds)
        if partitioned:
            from repro.wpo import wpo_rounds

            with span_or_null(
                trace, "om.wpo", cat="om", partitions=options.partitions
            ):
                wpo = wpo_rounds(
                    inputs,
                    modules,
                    level=level,
                    options=options,
                    relax_options=relax_options,
                    layout_options=layout_options,
                    max_rounds=max_rounds,
                    cache=cache,
                    trace=trace,
                )
            counters.merge(wpo.counters)
            relax_iterations = wpo.relax_iterations
            relax_demoted = wpo.relax_demoted
            rounds = wpo.rounds
            # ``None`` stands for each module whose body it built none of.
            modules = wpo.members.bodies
            if before is None:
                before = wpo.members.before
        else:

            def run_round(round_index: int, layout) -> tuple[bool, list]:
                nonlocal relax_iterations, relax_demoted
                with span_or_null(
                    trace, f"om.round{round_index}", cat="om", level=level.value
                ):
                    program = Program.build(modules, layout, entry=options.entry)
                    transformer = Transformer(
                        program,
                        full=level is OMLevel.FULL,
                        convert_escaped=options.convert_escaped,
                        trace=trace,
                        round_index=round_index,
                        relax=relax_options,
                        bsr_range_words=options.bsr_range_words,
                    )
                    counters.merge(transformer.run())
                if transformer.relax_result is not None:
                    relax_iterations = transformer.relax_result.iterations
                    relax_demoted = transformer.relax_result.demoted
                return transformer.changed, transformer.facts

            rounds = run_rounds(
                modules,
                run_round,
                max_rounds=max_rounds,
                lay_out=lambda: lay_out(modules, layout_options),
                full=level is OMLevel.FULL,
                relax=relax_options,
                bsr_range_words=options.bsr_range_words,
                trace=trace,
            )
        # Whatever reads every body reads a partitioned link's bodies
        # once they are all built.
        if wpo is not None and (
            (options.verify and rounds.certified)
            or (level is OMLevel.FULL
                and (options.remove_dead_procs or options.schedule))
        ):
            modules = wpo.members.build_all()
        if options.verify and rounds.certified:
            _run_skipped_round(
                modules, rounds, level=level, options=options, relax=relax_options
            )

    if level is OMLevel.FULL and options.remove_dead_procs:
        from repro.om.gc import remove_dead_procedures

        with span_or_null(trace, "om.gc", cat="om"):
            counters.procs_removed += remove_dead_procedures(
                modules, options.entry, trace=trace
            )

    if level is OMLevel.FULL and options.schedule:
        with span_or_null(trace, "om.sched", cat="om"):
            om_schedule(
                modules,
                align_loop_targets=options.align_loop_targets,
                trace=trace,
            )

    # The rounds' last layout is the finish's, unless a pass changed
    # the modules since.
    final_layout, placements = None, [None] * len(modules)
    changed_since = level is OMLevel.FULL and (
        options.remove_dead_procs or options.schedule
    )
    if rounds is not None and rounds.layout is not None and not changed_since:
        final_layout, placements = rounds.layout, rounds.placements
    with span_or_null(trace, "om.finalize", cat="om"):
        finals = (
            wpo.members.final_objects() if wpo is not None
            else [None] * len(modules)
        )
        final_objs = [
            final or reassemble_module(module, placement)
            for module, placement, final in zip(modules, placements, finals)
        ]
        if wpo is not None:
            wpo.members.store(None if changed_since else final_objs)
            wpo.stats.built = sorted(wpo.members.built)
        final_inputs = resolve_inputs(final_objs, [])
        if final_layout is None:
            final_layout = compute_layout(final_inputs, layout_options)
        executable = build_executable(final_inputs, final_layout, entry=options.entry)

    report: VerifyReport | None = None
    if options.verify:
        from repro.om.verify import verify_executable

        with span_or_null(trace, "om.verify", cat="om"):
            report = verify_executable(executable)
        if trace is not None:
            trace.event(
                "om.verify.report",
                cat="om",
                instructions=report.instructions,
                branches=report.branches,
                calls=report.calls,
                gat_entries=report.gat_entries,
                problems=len(report.problems),
            )

    if baseline_layout is None:
        baseline_layout = rounds.first_layout
    gat_before = sum(group.size for group in baseline_layout.groups)
    text_before = baseline_layout.text_end - baseline_layout.options.text_base
    stats = OMStats(
        level=level.value,
        before=before,
        after=wpo.members.count_after() if wpo is not None else count_code(modules),
        loads_converted=counters.loads_converted,
        loads_nullified=counters.loads_nullified + counters.pv_loads_removed,
        gat_bytes_before=gat_before,
        gat_bytes_after=sum(group.size for group in final_layout.groups),
        text_bytes_before=text_before,
        text_bytes_after=executable.text_size,
        procs_moved=plan.moved if plan else 0,
        relax_iterations=relax_iterations,
        relax_demoted=relax_demoted,
    )
    return OMResult(
        executable, stats, counters, verify=report, trace=trace,
        wpo=wpo.stats if wpo is not None else None,
    )


def _run_skipped_round(
    modules: list, rounds, *, level: OMLevel, options: OMOptions, relax
) -> None:
    """Run the round the convergence certificate skipped, untraced and
    uncounted; raise ``VerificationError`` if it changes anything."""
    from repro.om.verify import VerificationError

    skipped = Transformer(
        Program.build(modules, rounds.layout, entry=options.entry),
        full=level is OMLevel.FULL,
        convert_escaped=options.convert_escaped,
        round_index=rounds.rounds,
        relax=relax,
        bsr_range_words=options.bsr_range_words,
    )
    counters = skipped.run()
    if skipped.changed:
        changes = ", ".join(
            f"{name}={value}" for name, value in vars(counters).items() if value
        )
        raise VerificationError(
            f"unconverged: round {rounds.rounds} changed the program after "
            f"the certificate found no flipped layout fact ({changes})"
        )
