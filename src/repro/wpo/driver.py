"""The partitioned whole-program optimization (WPO) round driver.

Each OM round splits WHOPR-style (Glek & Hubička): a **serial phase**
(layout, GP grouping, callee resolution, the jsr->bsr verdict for every
call site) that reads each module only through its
:class:`~repro.wpo.shard.ModuleSummary`; an **independent per-shard
phase** (the calls and address-load passes, against stub summaries of
out-of-shard callees); and a serial epilogue (skip-label effects, then
dead entry-setup removal over every module's post-shard entry facts).

Each shard keeps one cache entry (kind ``"wpo"``), keyed on its
members' input-object digests (SHA-256 of ``dump_object``): the
members' summaries; round 0's transform, valid under the key of the
shift-stable context the serial phase computed (GP displacements,
canonical groups, site decisions, callee summaries, whether the link is
traced) and holding the counters, effects, events, layout facts and
each member's post-shard value and entry facts; and, after a one-round
link, each member's reassembled object and counts under the members'
final state (that key plus the effects and removals that landed on
each member).  Round 0 partitions and lays out the input objects, so a
shard whose entry matches costs its members a digest and one cache
read: nothing is translated, decoded or reassembled.  A link writes an
entry only where it learned something new.

Whatever reads every body — a later round (rounds after the first are
not cached), ``verify``'s skipped round, PGO layout, rescheduling,
dead-procedure removal, relaxation, a traced link's pcs, or a final
state its entry does not hold — first builds the missing bodies by
decoding each member's post-shard value and replaying what landed on
it.  A link without a cache runs the same code with every lookup a
miss.

Byte identity with the monolithic path is structural: a shard mutates
only its own members (the skip labels it gives out-of-shard callees are
harvested as effects and replayed serially), and every cross-module
read is answered from the post-canonicalize serial snapshot the
monolithic pass order exposes.  So shards run on the driver's live
modules once every job is built.  The rounds run in
:func:`~repro.om.transform.run_rounds` with the monolithic driver's
convergence certificate; shard layout facts are cached with the shard
in shard-local module indices.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field

from repro.layout.callgraph import direct_jsrs, proc_directory, resolve_callee
from repro.linker.layout import Layout, LayoutOptions, compute_layout
from repro.linker.resolve import LinkError, ResolvedInputs, resolve_inputs
from repro.obs import provenance
from repro.obs.trace import TraceLog, span_or_null
from repro.om.stats import total_counts
from repro.om.symbolic import SymbolicModule, decode_module, reassemble_module
from repro.om.transform import (
    PassCounters,
    Program,
    Rounds,
    Transformer,
    dead_entry_setups,
    run_rounds,
)
from repro.wpo.members import _KEY_VERSION, Entry, Members, apply_skip_effect
from repro.wpo.partition import Shard, partition_modules
from repro.wpo.shard import (
    ModuleSummary,
    ShardResult,
    StubInfo,
    run_shard_job,
    summarize,
)

@dataclass
class WPOStats:
    """Telemetry of one partitioned link (exposed on ``OMResult.wpo``)."""

    partitions: int = 0  # requested
    shards: int = 0  # actual (never more than modules)
    rounds: int = 0
    hits: int = 0  # shard executions served from the cache
    misses: int = 0  # shard executions actually run
    #: Shard indices that missed in any round (the incremental-relink
    #: acceptance check: after a one-module edit this must only name
    #: shards containing edited modules).
    missed_shards: list[int] = field(default_factory=list)
    #: Module names per shard, for mapping edits to shards.
    members: list[list[str]] = field(default_factory=list)
    #: Indices of the modules whose bodies the link built, translated
    #: or decoded from a shard entry: none for a relink whose shards
    #: all hit, only the missed shards' members after an edit.
    built: list[int] = field(default_factory=list)


def _replay_events(
    trace: TraceLog | None, events: list[dict], round_index: int
) -> None:
    """Re-emit a shard's provenance events on the driver's trace.

    Cached events may carry stale pcs/round numbers from the run that
    produced them; the decisions they record are identical, so the
    audit trail still reconciles against the counters exactly.
    """
    if trace is None:
        return
    for args in events:
        provenance.emit(
            trace,
            action=args.get("action", ""),
            pass_name=args.get("pass_name", ""),
            module=args.get("module", ""),
            proc=args.get("proc", ""),
            pc=args.get("pc"),
            before=args.get("before", ""),
            after=args.get("after", ""),
            reason=args.get("reason", ""),
            counter=args.get("counter"),
            round_index=round_index,
        )


@dataclass
class WPORun:
    """Everything ``om_link`` folds back out of the partitioned rounds."""

    counters: PassCounters = field(default_factory=PassCounters)
    #: The last round's relaxation fixpoint.
    relax_iterations: int = 0
    relax_demoted: int = 0
    stats: WPOStats = field(default_factory=WPOStats)
    rounds: Rounds | None = None
    #: Each module's input object and body, for the finish.
    members: Members | None = None


def wpo_rounds(
    inputs: ResolvedInputs,
    modules: list[SymbolicModule] | None = None,
    *,
    level,
    options,
    relax_slack: int | None,
    layout_options: LayoutOptions,
    max_rounds: int,
    cache=None,
    trace: TraceLog | None = None,
) -> WPORun:
    """Run the OM transformation rounds partitioned into shards.

    ``inputs`` are the link's resolved input objects.  ``modules``, when
    given, are their bodies as a profile-guided layout reordered them;
    otherwise the rounds translate only the members of shards that
    miss.  Returns the merged counters and telemetry, and the members'
    bodies and final objects for the finish.
    """
    from repro.om.driver import OMLevel  # circular-safe: driver imports us lazily

    full = level is OMLevel.FULL
    convert_escaped = bool(options.convert_escaped and full)
    objects = (
        inputs.modules if modules is None
        else [reassemble_module(module) for module in modules]
    )
    shards = partition_modules(objects, options.partitions)
    members = Members(objects, modules, shards, cache, trace, full)
    run = WPORun(members=members)
    run.stats = WPOStats(
        partitions=options.partitions,
        shards=len(shards),
        members=[[objects[g].name for g in shard.members] for shard in shards],
    )
    # Bodies come first where a round-0 step reads every one of them:
    # relaxation models every body's addresses, and a traced link's
    # events carry each body's pcs.
    eager = (
        cache is None or modules is not None or trace is not None
        or relax_slack is not None
    )
    missed: set[int] = set()

    def run_round(round_index: int, layout) -> tuple[bool, list]:
        with span_or_null(
            trace,
            f"om.round{round_index}",
            cat="om",
            level=level.value,
            wpo=len(shards),
        ):
            return _run_round(
                members,
                layout,
                options=options,
                relax_slack=relax_slack,
                round_index=round_index,
                eager=eager,
                full=full,
                convert_escaped=convert_escaped,
                cache=cache,
                trace=trace,
                run=run,
                missed=missed,
            )

    laid_out = False

    def lay_out_program() -> tuple[Layout, list]:
        # Round 0 lays out from the input objects, which place exactly
        # as their translations do.
        nonlocal laid_out
        if not laid_out:
            laid_out = True
            resolved = inputs if modules is None else resolve_inputs(objects, [])
            return compute_layout(resolved, layout_options), [None] * len(objects)
        return members.lay_out(layout_options)

    run.rounds = run_rounds(
        members.bodies,
        run_round,
        max_rounds=max_rounds,
        lay_out=lay_out_program,
        full=full,
        relax_slack=relax_slack,
        bsr_range_words=options.bsr_range_words,
        trace=trace,
    )
    run.stats.rounds = run.rounds.rounds
    run.stats.missed_shards = sorted(missed)
    run.stats.built = sorted(members.built)
    return run


def _canonicalize(prologue: Transformer, index: int, body: SymbolicModule) -> None:
    for proc in body.procs:
        prologue._canonicalize_gp_pairs(index, proc)


def _summarize_shards(
    members: Members,
    prologue: Transformer,
    *,
    round_index: int,
    eager: bool,
    full: bool,
) -> bool:
    """Give every member its summary; whether canonicalization moved
    anything.  A body is canonicalized, then summarized; an unbuilt
    member's summary comes from its shard's entry, and a shard whose
    entry misses translates its members.  Round 0 reads each shard's
    entry."""
    changed = False
    for shard in members.shards:
        if round_index == 0 and members.cache is not None:
            stored = members.load(shard)
            if stored is not None and not eager:
                for g, summary in zip(shard.members, stored.summaries):
                    members.summaries[g] = summary
                members.entries[shard.index] = Entry(
                    stored.summaries, stored.canonicalized
                )
                changed = changed or stored.canonicalized
                continue
            members.translate(shard.members)
        prologue.changed = False
        for g in shard.members:
            body = members.bodies[g]
            if full:
                _canonicalize(prologue, g, body)
            members.summaries[g] = summarize(body)
        changed = changed or prologue.changed
        if round_index == 0:
            members.entries[shard.index] = Entry(
                tuple(members.summaries[g] for g in shard.members),
                prologue.changed,
            )
    if round_index == 0:
        members.before = total_counts(
            (summary.counts for summary in members.summaries),
            (proc.name for summary in members.summaries for proc in summary.procs),
        )
    return changed


def _resolve_sites(
    summaries: list[ModuleSummary],
) -> list[list[tuple | None]]:
    """Per module, each direct-call candidate of its summary resolved
    to (caller, callee module, callee's procedure facts), or ``None``,
    as :func:`~repro.layout.callgraph.resolve_callee` resolves a body's."""
    directory = proc_directory(summaries)
    resolved = []
    for index, summary in enumerate(summaries):
        sites = []
        for caller, name in summary.sites:
            target = resolve_callee(summaries, directory, index, name)
            sites.append(None if target is None else (caller, *target))
        resolved.append(sites)
    return resolved


class _ShardJob:
    """One shard's job, cache key, and driver-side stub directory."""

    def __init__(self, shard: Shard, job: dict, key_payload: dict | None,
                 stub_modules: dict[int, int], stub_names: dict[int, str]):
        self.shard = shard
        #: The job dict; its modules are the driver's live members,
        #: filled in when the shard runs.
        self.job = job
        #: Cache-key payload (``None`` when no cache is attached).
        self.key_payload = key_payload
        #: Stub id -> global module index (for applying effects).
        self.stub_modules = stub_modules
        #: Stub id -> callee procedure name.
        self.stub_names = stub_names


def _build_shard_job(
    shard: Shard,
    summaries: list[ModuleSummary],
    digests: list[str] | None,
    layout,
    resolved: list[list[tuple | None]],
    decisions: list[list[bool]],
    *,
    full: bool,
    convert_escaped: bool,
    round_index: int,
    record: bool,
) -> _ShardJob:
    members = shard.members
    local_of = {g: i for i, g in enumerate(members)}
    single_group = len(layout.groups) <= 1

    # Canonical group ids: first appearance over members, then stubs.
    # Execution only ever compares groups for equality, and the cache
    # key must not depend on which absolute group index the layout
    # happened to assign.
    canon: dict[int, int] = {}

    def canon_group(raw: int) -> int:
        return canon.setdefault(raw, len(canon))

    gp = [layout.gp_for_module(g) for g in members]
    group = [canon_group(layout.module_group[g]) for g in members]

    addr: dict[tuple[int, str], int] = {}
    for local, g in enumerate(members):
        summary = summaries[g]
        for symbol in sorted({*summary.literals, *(p.name for p in summary.procs)}):
            try:
                addr[(local, symbol)] = layout.symbol_addr(g, symbol)
            except LinkError:
                pass

    resolutions: dict[tuple[int, str], tuple] = {}
    stubs: dict[int, StubInfo] = {}
    stub_of: dict[tuple[int, str], int] = {}
    stub_modules: dict[int, int] = {}
    key_sites: list[list] = []
    for local, g in enumerate(members):
        for site, decision in zip(resolved[g], decisions[g]):
            if site is None:
                continue
            caller, callee_module, callee = site
            name = callee.name
            if callee_module in local_of:
                resolutions[(local, name)] = ("shard", local_of[callee_module])
                ref = ["shard", local_of[callee_module]]
            else:
                skey = (callee_module, name)
                sid = stub_of.get(skey)
                if sid is None:
                    sid = len(stubs)
                    stub_of[skey] = sid
                    stub_modules[sid] = callee_module
                    stubs[sid] = StubInfo(
                        group=canon_group(layout.module_group[callee_module]),
                        **callee._asdict(),
                    )
                resolutions[(local, name)] = ("stub", sid)
                ref = ["stub"] + stubs[sid].summary()
            key_sites.append([local, caller, decision, ref])

    job = {
        "full": full,
        "convert_escaped": convert_escaped,
        "round_index": round_index,
        "gp": gp,
        "group": group,
        "single_group": single_group,
        "addr": addr,
        "resolutions": resolutions,
        "stubs": stubs,
        "decisions": [decisions[g] for g in members],
        "store": digests is not None,
    }
    key_payload = None
    if digests is not None:
        key_payload = {
            "v": _KEY_VERSION,
            "record": record,
            "full": full,
            "convert_escaped": convert_escaped,
            "members": [digests[g] for g in members],
            "single": single_group,
            "groups": group,
            # Per member: [[symbol, d-or-None], ...] over its literals.
            "d": [
                [
                    [
                        symbol,
                        (addr[(local, symbol)] - gp[local])
                        if (local, symbol) in addr
                        else None,
                    ]
                    for symbol in summaries[g].literals
                ]
                for local, g in enumerate(members)
            ],
            "sites": key_sites,
        }
    stub_names = {sid: info.name for sid, info in stubs.items()}
    return _ShardJob(shard, job, key_payload, stub_modules, stub_names)


def _run_round(
    members: Members,
    layout,
    *,
    options,
    relax_slack: int | None,
    round_index: int,
    eager: bool,
    full: bool,
    convert_escaped: bool,
    cache,
    trace: TraceLog | None,
    run: WPORun,
    missed: set[int],
) -> tuple[bool, list[tuple]]:
    """One partitioned round on ``layout``: whether it changed anything,
    and the layout facts it recorded (in global module indices).  Only
    round 0 reads and writes the shard cache: a later round runs on
    every body."""
    bodies = members.bodies
    shards = members.shards
    if round_index > 0:
        members.build_all()
    elif eager:
        members.translate(list(range(len(bodies))))
    cached = round_index == 0 and cache is not None

    # ---- serial whole-program phase -----------------------------------
    prog = Program(bodies, layout, entry=options.entry)
    prologue = Transformer(
        prog,
        full=full,
        convert_escaped=convert_escaped,
        trace=trace,
        round_index=round_index,
        relax_slack=relax_slack,
        bsr_range_words=options.bsr_range_words,
    )
    changed = _summarize_shards(
        members, prologue, round_index=round_index, eager=eager, full=full,
    )
    summaries = members.summaries
    resolved = _resolve_sites(summaries)
    address_taken = set()
    proc_names = {proc.name for summary in summaries for proc in summary.procs}
    for summary in summaries:
        address_taken.update(summary.taken & proc_names)

    if relax_slack is not None:
        # The fixpoint models every body's addresses (relaxation keeps
        # every body built).
        prologue.run_passes(
            canonicalize=False, calls=False, address_loads=False,
            entry_setups=False,
        )
        run.relax_iterations = prologue.relax_result.iterations
        run.relax_demoted = prologue.relax_result.demoted
        by_uid = prologue.relax_result.decisions
        decisions = [
            [
                by_uid.get(jsr.uid, False)
                for proc in body.procs
                for jsr, __, __ in direct_jsrs(proc)
            ]
            for body in bodies
        ]
    else:
        decisions = [
            [
                site is not None and prologue.bsr_site_in_range(
                    g, site[0], site[1], site[2].name
                )
                for site in sites
            ]
            for g, sites in enumerate(resolved)
        ]
    run.counters.merge(prologue.counters)

    # Shards record provenance only for a traced link to replay.  It is
    # part of the key: a traced link never reuses an entry without
    # events, and an untraced one never pays to record them.
    record = trace is not None
    jobs = [
        _build_shard_job(
            shard,
            summaries,
            members.digests if cached else None,
            layout,
            resolved,
            decisions,
            full=full,
            convert_escaped=convert_escaped,
            round_index=round_index,
            record=record,
        )
        for shard in shards
    ]

    # ---- per-shard phase ----------------------------------------------
    # Shards transform the live modules in place (every cross-module
    # fact they read was computed above, before any shard ran).  Only
    # cache hits arrive as stored values.
    results: list[ShardResult | None] = [None] * len(jobs)
    pending: list[int] = []
    for index, job in enumerate(jobs):
        if cached:
            entry = members.entries[index]
            entry.context = cache.key(job.key_payload)
            stored = members.stored[index]
            if stored is not None and stored.context == entry.context:
                run.stats.hits += 1
                entry.result = stored.result
                results[index] = ShardResult.from_entry(marshal.loads(stored.result))
                continue
        pending.append(index)

    for index in pending:
        job = jobs[index]
        unbuilt = [g for g in job.shard.members if bodies[g] is None]
        members.translate(unbuilt)
        if full:
            # The canonicalization their summaries describe.
            for g in unbuilt:
                _canonicalize(prologue, g, bodies[g])
        job.job["modules"] = [bodies[g] for g in job.shard.members]
        with span_or_null(
            trace, "om.wpo.shard", cat="om",
            round=round_index, shard=job.shard.index,
            members=len(job.shard.members),
        ):
            results[index] = run_shard_job(
                job.job, TraceLog() if record else None
            )
        run.stats.misses += 1
        missed.add(job.shard.index)
        if cached:
            # Held as bytes until the link stores it: the values of a
            # whole program's members, as tuples, outweigh what the finish
            # allocates.
            members.entries[index].result = marshal.dumps(results[index].entry())
            results[index].values = []
    if trace is not None:
        trace.event(
            "om.wpo.round",
            cat="om",
            round=round_index,
            shards=len(jobs),
            hits=len(jobs) - len(pending),
            misses=len(pending),
            built=len(members.built),
        )

    # ---- serial merge + epilogue --------------------------------------
    facts = prologue.facts
    posts: list[tuple] = [None] * len(bodies)
    for index, job in enumerate(jobs):
        result = results[index]
        shard_members = job.shard.members
        if index not in pending:
            for local, g in enumerate(shard_members):
                if bodies[g] is not None:
                    # A hit on a built member replaces its body.
                    bodies[g] = decode_module(result.values[local])
                    members.built.add(g)
                else:
                    members.values[g] = result.values[local]
        for local, g in enumerate(shard_members):
            posts[g] = result.entry_facts[local]
        run.counters.merge(result.counters)
        changed = changed or result.changed
        facts.extend(
            (fact[0], shard_members[fact[1]], *fact[2:]) for fact in result.facts
        )
    # Effects after every replacement, so they land on the merged
    # modules; insertion is idempotent and position-deterministic.
    landed: list[set[str]] = [set() for __ in bodies]
    for index, job in enumerate(jobs):
        result = results[index]
        for sid in result.effects:
            g = job.stub_modules[sid]
            name = job.stub_names[sid]
            landed[g].add(name)
            if bodies[g] is not None:
                apply_skip_effect(bodies[g], name)
            else:
                members.effects[g].add(name)
        _replay_events(trace, result.events, round_index)

    # The epilogue reads every module's post-shard entry facts, and the
    # address-taken set computed before any transform, which is exactly
    # what the monolithic round's entry-setup pass reads.
    epilogue = Transformer(
        prog,
        full=full,
        convert_escaped=convert_escaped,
        trace=trace,
        round_index=round_index,
    )
    removed: list[list[str]] = [[] for __ in bodies]
    if full:
        for g, name in dead_entry_setups(options.entry, posts, address_taken, facts):
            removed[g].append(name)
            body = bodies[g]
            if body is not None:
                epilogue.remove_entry_setup(g, body.proc_named(name))
            else:
                # What remove_entry_setup counts for a deleted pair.
                epilogue.counters.entry_setups_removed += 1
                epilogue.counters.instructions_deleted += 2
                epilogue.changed = True
                members.removals[g].append(name)
    run.counters.merge(epilogue.counters)

    # The members' state after round 0 is its transform and what landed
    # on each member; a final object is stored only for that state.
    for index, job in enumerate(jobs):
        entry = members.entries[index]
        if entry is not None:
            entry.final = None if round_index else hashlib.sha256(repr((
                entry.context,
                [(sorted(landed[g]), removed[g]) for g in job.shard.members],
            )).encode()).hexdigest()
    return changed or epilogue.changed, facts
