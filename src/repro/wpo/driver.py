"""The partitioned whole-program optimization (WPO) round driver.

Replaces the monolithic per-round transform of ``om_link`` with the
WHOPR-style split the LTO literature converged on (Glek & Hubička):

* a **serial whole-program phase** per round — layout from the
  placement, GP-range/GAT grouping, GP-pair canonicalization, the
  jsr->bsr range/relaxation verdict for every call site, and
  cross-shard relocation patching (skip-label effects);
* an **independent per-shard phase** — the calls and address-load
  passes over each shard, against summaries of everything outside it;
* a serial epilogue — dead entry-setup removal over the merged
  program (it needs the global blocked-set).

Each shard execution is content-addressed through
:class:`repro.cache.ArtifactCache` under kind ``"wpo"``: the key
covers the member modules' object bytes plus the shift-stable context
(GP displacements, canonical group pattern, per-site decisions, callee
summaries) — and nothing position-dependent, so unchanged shards hit
across edits *and* across rounds once they converge.  Editing one
module therefore relinks in O(changed shard): every other shard's
transform is a cache read.

Byte identity with the monolithic path is structural, not aspirational:
the per-shard passes mutate only their own modules except for the
idempotent skip-label/export insertion into callees, which is
harvested as an effect and replayed serially; every cross-module
*read* is answered from the post-canonicalize serial snapshot, which
is exactly the state the monolithic pass order exposes.

That same argument lets shards run on the driver's live modules:
every job (GP values, addresses, groups, call decisions, stub
summaries) is built before the first shard runs, a shard mutates only
its own members and private stubs, and the effects land after all
shards have run.  A shard records provenance into a log of its own
only when the link is traced.  Whether it records is part of its
cache key, so a traced link never replays an entry without events,
and an untraced link records nothing.

The rounds run in :func:`~repro.om.transform.run_rounds`, the loop
the monolithic driver uses, with the same convergence certificate.
Each round collects the layout facts of its serial phase (declined
call sites), of its shards (declined address loads and GP resets, in
shard-local module indices, cached with the shard) and of its
epilogue (entry setups); after a round that changed something, the
program is laid out once more and another round runs only when that
layout flips one of them.  So a link whose first round converges runs
one round, and an edit relink keys, encodes and digests each shard
once.

Every round lays out from :func:`~repro.om.symbolic.layout_object`.
A round without a cache encodes and pickles nothing.  With one, the
round encodes each module after the serial prologue into the uid-free
value of :func:`~repro.om.symbolic.encode_module`, exactly the input
its shard transforms, and a shard key hashes its members' values.  A
miss pickles one entry of plain values: ``None`` for each member the
shard left equal, the encoded value of each member it changed.  A hit
unpickles the entry, decodes only the changed members and keeps the
live objects of the others, so a shard that changed nothing decodes
nothing.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.layout.callgraph import iter_direct_call_sites
from repro.linker.layout import LayoutOptions
from repro.linker.resolve import LinkError
from repro.minicc.mcode import MLabel
from repro.obs import provenance
from repro.obs.trace import TraceLog, span_or_null
from repro.om.symbolic import SymbolicModule, encode_module, module_digest
from repro.om.transform import (
    PassCounters,
    Program,
    Rounds,
    Transformer,
    _entry_pair_at_top,
    _find_skip_label,
    _is_reset_free_leaf,
    run_rounds,
)
from repro.wpo.partition import Shard, partition_modules
from repro.wpo.shard import ShardResult, StubInfo, run_shard_job

#: Bump to invalidate shard artifacts when the key or entry format changes.
_KEY_VERSION = 3


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


@dataclass
class WPORun:
    """Everything ``om_link`` folds back out of the partitioned rounds."""

    counters: PassCounters = field(default_factory=PassCounters)
    #: The last round's relaxation fixpoint.
    relax_iterations: int = 0
    relax_demoted: int = 0
    stats: WPOStats = field(default_factory=WPOStats)
    rounds: Rounds | None = None


def _site_decisions(prologue: Transformer, sites: list) -> dict[int, bool]:
    """The jsr->bsr verdict for every direct call site, by jsr uid.

    Mirrors ``Transformer._convert_call_site`` exactly: the relaxation
    fixpoint's decision when one ran, otherwise the one-shot range
    check against this round's layout, which records every site it
    declines as a layout fact of the prologue.
    """
    relax_result = prologue.relax_result
    if relax_result is not None:
        return {
            site.jsr.uid: relax_result.decisions.get(site.jsr.uid, False)
            for site in sites
        }
    return {
        site.jsr.uid: prologue.bsr_site_in_range(
            site.caller_module, site.caller.name,
            site.callee_module, site.callee.name,
        )
        for site in sites
    }


def _apply_skip_effect(module: SymbolicModule, proc_name: str) -> None:
    """Idempotently give ``proc_name`` a skip label past its GP setup
    and export it (the only cross-module mutation the calls pass makes)."""
    proc = module.proc_named(proc_name)
    label = f"{proc.name}$skipgp"
    if _find_skip_label(proc) is None:
        pair = _entry_pair_at_top(proc)
        proc.items.insert(
            proc.items.index(pair[1]) + 1, MLabel(label, is_target=True)
        )
    proc.export_labels.add(label)


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


class _ShardJob:
    """One shard's job, cache key, and driver-side stub directory."""

    def __init__(self, shard: Shard, job: dict, key_payload: dict | None,
                 stub_modules: dict[int, int], stub_names: dict[int, str]):
        self.shard = shard
        #: The job dict; its modules are the driver's live members.
        self.job = job
        #: Cache-key payload (``None`` when no cache is attached).
        self.key_payload = key_payload
        #: Stub id -> global module index (for applying effects).
        self.stub_modules = stub_modules
        #: Stub id -> callee procedure name.
        self.stub_names = stub_names


def _build_shard_job(
    shard: Shard,
    modules: list[SymbolicModule],
    digests: list[str] | None,
    layout,
    prog: Program,
    sites_by_module: dict[int, list],
    decisions: dict[int, bool],
    *,
    full: bool,
    convert_escaped: bool,
    round_index: int,
    record: bool,
) -> _ShardJob:
    members = shard.members
    local_of = {g: i for i, g in enumerate(members)}
    single_group = prog.single_group()

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
    literal_syms: list[set[str]] = []  # per member
    for local, g in enumerate(members):
        module = modules[g]
        syms = {
            item.literal[0]
            for item in module.all_items()
            if getattr(item, "literal", None) is not None
        }
        literal_syms.append(syms)
        for symbol in sorted(syms | {proc.name for proc in module.procs}):
            try:
                addr[(local, symbol)] = layout.symbol_addr(g, symbol)
            except LinkError:
                pass

    resolutions: dict[tuple[int, str], tuple] = {}
    stubs: dict[int, StubInfo] = {}
    stub_of: dict[tuple[int, str], int] = {}
    stub_modules: dict[int, int] = {}
    key_sites: list[list] = []
    member_set = set(members)
    for g in members:
        for site in sites_by_module.get(g, ()):
            local = local_of[site.caller_module]
            name = site.callee.name
            decision = decisions.get(site.jsr.uid, False)
            if site.callee_module in member_set:
                resolutions[(local, name)] = (
                    "shard",
                    local_of[site.callee_module],
                )
                ref = ["shard", local_of[site.callee_module]]
            else:
                skey = (site.callee_module, name)
                sid = stub_of.get(skey)
                if sid is None:
                    sid = len(stubs)
                    stub_of[skey] = sid
                    stub_modules[sid] = site.callee_module
                    callee = site.callee
                    stubs[sid] = StubInfo(
                        name=name,
                        exported=callee.exported,
                        uses_gp=callee.uses_gp,
                        group=canon_group(
                            layout.module_group[site.callee_module]
                        ),
                        entry_pair=_entry_pair_at_top(callee) is not None,
                        has_skip=_find_skip_label(callee) is not None,
                        reset_free_leaf=_is_reset_free_leaf(callee),
                    )
                resolutions[(local, name)] = ("stub", sid)
                ref = ["stub"] + stubs[sid].summary()
            key_sites.append([local, site.caller.name, decision, ref])

    shard_uids = {
        site.jsr.uid for g in members for site in sites_by_module.get(g, ())
    }
    job = {
        "modules": [modules[g] for g in members],
        "full": full,
        "convert_escaped": convert_escaped,
        "round_index": round_index,
        "gp": gp,
        "group": group,
        "single_group": single_group,
        "addr": addr,
        "resolutions": resolutions,
        "stubs": stubs,
        "decisions": {
            uid: decisions.get(uid, False) for uid in shard_uids
        },
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
                    for symbol in sorted(syms)
                ]
                for local, syms in enumerate(literal_syms)
            ],
            "sites": key_sites,
        }
    stub_names = {sid: info.name for sid, info in stubs.items()}
    return _ShardJob(shard, job, key_payload, stub_modules, stub_names)


def wpo_rounds(
    modules: list[SymbolicModule],
    *,
    level,
    options,
    relax_options,
    layout_options: LayoutOptions,
    max_rounds: int,
    cache=None,
    trace: TraceLog | None = None,
) -> WPORun:
    """Run the OM transformation rounds partitioned into shards.

    Mutates ``modules`` in place (shards transform their entries; cache
    hits replace them), exactly like the monolithic round loop mutates
    them, and returns the merged counters and telemetry.
    """
    from repro.om.driver import OMLevel  # circular-safe: driver imports us lazily

    full = level is OMLevel.FULL
    convert_escaped = bool(options.convert_escaped and full)
    shards = partition_modules(modules, options.partitions)
    run = WPORun()
    run.stats = WPOStats(
        partitions=options.partitions,
        shards=len(shards),
        members=[[modules[g].name for g in shard.members] for shard in shards],
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
                modules,
                shards,
                layout,
                options=options,
                relax_options=relax_options,
                round_index=round_index,
                full=full,
                convert_escaped=convert_escaped,
                cache=cache,
                trace=trace,
                run=run,
                missed=missed,
            )

    run.rounds = run_rounds(
        modules,
        run_round,
        max_rounds=max_rounds,
        layout_options=layout_options,
        full=full,
        relax=relax_options,
        bsr_range_words=options.bsr_range_words,
        trace=trace,
    )
    run.stats.rounds = run.rounds.rounds
    run.stats.missed_shards = sorted(missed)
    return run


def _run_round(
    modules: list[SymbolicModule],
    shards: list[Shard],
    layout,
    *,
    options,
    relax_options,
    round_index: int,
    full: bool,
    convert_escaped: bool,
    cache,
    trace: TraceLog | None,
    run: WPORun,
    missed: set[int],
) -> tuple[bool, list[tuple]]:
    """One partitioned round on ``layout``: whether it changed anything,
    and the layout facts it recorded (in global module indices)."""
    # ---- serial whole-program phase -----------------------------------
    prog = Program.build(modules, layout, entry=options.entry)

    prologue = Transformer(
        prog,
        full=full,
        convert_escaped=convert_escaped,
        trace=trace,
        round_index=round_index,
        relax=relax_options,
        bsr_range_words=options.bsr_range_words,
    )
    prologue.run_passes(calls=False, address_loads=False, entry_setups=False)
    run.counters.merge(prologue.counters)
    if prologue.relax_result is not None:
        run.relax_iterations = prologue.relax_result.iterations
        run.relax_demoted = prologue.relax_result.demoted
    sites = iter_direct_call_sites(modules)
    decisions = _site_decisions(prologue, sites)

    sites_by_module: dict[int, list] = {}
    for site in sites:
        sites_by_module.setdefault(site.caller_module, []).append(site)

    # A shard key hashes its members as the prologue left them, which
    # is exactly what the shard transforms.
    encoded = digests = None
    if cache is not None:
        encoded = [encode_module(module) for module in modules]
        digests = [module_digest(value) for value in encoded]

    # Shards record provenance only for a traced link to replay.  It is
    # part of the key: a traced link never reuses an entry without
    # events, and an untraced one never pays to record them.
    record = trace is not None
    jobs = [
        _build_shard_job(
            shard,
            modules,
            digests,
            layout,
            prog,
            sites_by_module,
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
    # cache hits arrive as bytes; an entry is pickled only to be
    # cached.
    results: list[ShardResult | None] = [None] * len(jobs)
    blobs: list[bytes | None] = [None] * len(jobs)
    keys: list[str | None] = [None] * len(jobs)
    pending: list[int] = []
    for index, job in enumerate(jobs):
        if cache is not None:
            keys[index] = cache.key(job.key_payload)
            blobs[index] = cache.get("wpo", keys[index])
            if blobs[index] is not None:
                run.stats.hits += 1
                continue
        pending.append(index)

    for index in pending:
        with span_or_null(
            trace, "om.wpo.shard", cat="om",
            round=round_index, shard=jobs[index].shard.index,
            members=len(jobs[index].shard.members),
        ):
            results[index] = run_shard_job(
                jobs[index].job, TraceLog() if record else None
            )
        run.stats.misses += 1
        missed.add(jobs[index].shard.index)
        if cache is not None:
            entry = results[index].entry(
                [encoded[g] for g in jobs[index].shard.members]
            )
            cache.put(
                "wpo",
                keys[index],
                pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
            )
    if trace is not None:
        trace.event(
            "om.wpo.round",
            cat="om",
            round=round_index,
            shards=len(jobs),
            hits=len(jobs) - len(pending),
            misses=len(pending),
        )

    # ---- serial merge + epilogue --------------------------------------
    changed = prologue.changed
    facts = prologue.facts
    for index, job in enumerate(jobs):
        result = results[index]
        if result is None:
            result = results[index] = ShardResult.from_entry(
                pickle.loads(blobs[index]),
                [modules[g] for g in job.shard.members],
            )
        members = job.shard.members
        for local, g in enumerate(members):
            modules[g] = result.modules[local]
        run.counters.merge(result.counters)
        changed = changed or result.changed
        facts.extend(
            (fact[0], members[fact[1]], *fact[2:]) for fact in result.facts
        )
    # Effects after every replacement, so they land on the merged
    # modules; insertion is idempotent and position-deterministic.
    for index, job in enumerate(jobs):
        result = results[index]
        for sid in result.effects:
            _apply_skip_effect(
                modules[job.stub_modules[sid]], job.stub_names[sid]
            )
        _replay_events(trace, result.events, round_index)

    # The epilogue reads the merged modules (``prog.modules`` is this
    # same list), the layout, and the address-taken set computed before
    # any transform, which is exactly what the monolithic round's
    # entry-setup pass reads.
    epilogue = Transformer(
        prog,
        full=full,
        convert_escaped=convert_escaped,
        trace=trace,
        round_index=round_index,
    )
    epilogue.run_passes(
        canonicalize=False, relax=False, calls=False, address_loads=False
    )
    run.counters.merge(epilogue.counters)
    facts.extend(epilogue.facts)
    return changed or epilogue.changed, facts
