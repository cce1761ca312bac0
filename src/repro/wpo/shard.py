"""The per-shard worker of the partitioned whole-program optimizer.

A shard job is a self-contained dict: the shard's member modules
(post-canonicalization) plus a *shift-stable context* — everything the
calls and address-load passes would otherwise read from the rest of
the program, precomputed by the serial phase:

* per-member GP value, canonical GP-group id, and a symbol-address
  table (so ``d = addr - gp`` computes exactly as in the monolithic
  round);
* per-site call decisions (the jsr->bsr range/relaxation verdicts,
  which need whole-program layout and are therefore serial);
* summaries of out-of-shard callees, realized here as *stub
  procedures* shaped so that every predicate the transformer applies
  to a callee (``uses_gp``, entry pair at top, existing skip label,
  reset-free leaf) answers exactly as it would on the real procedure.

The worker runs the real :class:`repro.om.transform.Transformer` over
a duck-typed :class:`ShardProgram` and returns the transformed
members, pass counters, the provenance events it recorded, the layout
facts of the candidates it declined (in shard-local module indices,
so they are as shift-stable as the key), and the *effects* it could
not apply itself — skip labels that belong in out-of-shard callees,
which the serial phase applies idempotently.

A shard runs :func:`run_shard_job` on the driver's live modules and
transforms them in place.  Because the job depends only on member
content and the context, its result is cacheable under a content key,
and a cache hit is byte-equivalent to re-running the shard.  The cache
entry (:meth:`ShardResult.entry`) holds plain values: the counters,
effects, events and layout facts, and per member its
:func:`~repro.om.symbolic.encode_module` value after the shard (from
which the driver builds the member's body only when a later step reads
it) and its :func:`~repro.om.transform.entry_facts`, which the serial
epilogue reads instead of the body.

The serial phase reads every other module only through its
:class:`ModuleSummary` (:func:`summarize`), which the driver caches with
the shard under its members' input digests.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import NamedTuple

from repro.isa.instruction import Instruction
from repro.isa.registers import Reg
from repro.layout.callgraph import direct_jsrs
from repro.linker.resolve import LinkError
from repro.minicc.mcode import MInstr, MLabel
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om.stats import ModuleCounts, module_counts
from repro.om.symbolic import SymbolicModule, SymbolicProc, encode_module
from repro.om.transform import (
    PassCounters,
    Transformer,
    _entry_pair_at_top,
    _find_skip_label,
    _is_reset_free_leaf,
    address_refs,
    entry_facts,
)


@dataclass(frozen=True)
class StubInfo:
    """Shift-stable summary of an out-of-shard callee.

    Everything the calls pass may ask about a callee, captured from
    the post-canonicalize serial snapshot.  These fields (not the
    callee's full content) are what enters the shard cache key, so an
    edit to a callee that does not change them cannot invalidate its
    callers' shards.
    """

    name: str
    exported: bool
    uses_gp: bool
    group: int  # canonical GP-group id (shard-local numbering)
    entry_pair: bool  # GPDISP pair sits in the first two slots
    has_skip: bool  # a $skipgp label already exists
    reset_free_leaf: bool  # cannot change GP (no gpdisp, no calls)

    def summary(self) -> list:
        return [
            self.name,
            self.exported,
            self.uses_gp,
            self.group,
            self.entry_pair,
            self.has_skip,
            self.reset_free_leaf,
        ]


def build_stub(info: StubInfo) -> SymbolicProc:
    """A minimal procedure that answers the transformer's callee
    predicates exactly as the summarized real procedure would."""
    proc = SymbolicProc(
        info.name, exported=info.exported, uses_gp=info.uses_gp
    )
    proc.items.append(MLabel(info.name, is_target=False))
    if info.entry_pair:
        ldah = MInstr(
            Instruction.mem("ldah", Reg.GP, Reg.PV, 0),
            gpdisp_base=info.name,
        )
        lda = MInstr(
            Instruction.mem("lda", Reg.GP, Reg.GP, 0),
            gpdisp_pair=ldah.uid,
        )
        proc.items.extend([ldah, lda])
    if info.has_skip:
        proc.items.append(MLabel(f"{info.name}$skipgp", is_target=True))
    if not info.entry_pair and not info.reset_free_leaf:
        # A call instruction defeats _is_reset_free_leaf, matching a
        # real callee that might clobber GP.
        proc.items.append(MInstr(Instruction.branch("bsr", Reg.RA, 0)))
    return proc


class ShardProgram:
    """Duck-typed stand-in for :class:`repro.om.transform.Program`.

    ``modules`` holds only the shard's members (local indices); every
    whole-program question is answered from the precomputed context.
    Out-of-shard callees resolve to stubs under pseudo module indices
    past the member range, so cross-module checks (group equality,
    ``callee_module != module_index``) behave as in the full program.
    """

    def __init__(
        self,
        modules: list[SymbolicModule],
        *,
        gp: list[int],
        group: dict[int, int],
        single: bool,
        addr: dict[tuple[int, str], int],
        resolutions: dict[tuple[int, str], tuple],
        stubs: dict[int, tuple[int, SymbolicProc]],
    ):
        self.modules = modules
        self._gp = gp
        self._group = group
        self._single = single
        self._addr = addr
        self._resolutions = resolutions
        self._stubs = stubs

    def addr(self, module_index: int, symbol: str, addend: int = 0) -> int:
        # A symbol without an address raises LinkError, as
        # Layout.symbol_addr does; the transformer catches only that.
        address = self._addr.get((module_index, symbol))
        if address is None:
            raise LinkError(f"no address for symbol {symbol!r} in the shard")
        return address + addend

    def gp(self, module_index: int) -> int:
        return self._gp[module_index]

    def group(self, module_index: int) -> int:
        return self._group[module_index]

    def single_group(self) -> bool:
        return self._single

    def callee_info(
        self, caller_module: int, name: str
    ) -> tuple[int, SymbolicProc] | None:
        resolution = self._resolutions.get((caller_module, name))
        if resolution is None:
            return None
        kind, ref = resolution
        if kind == "shard":
            return ref, self.modules[ref].proc_named(name)
        return self._stubs[ref]


class _Decisions:
    """Holder giving the transformer its precomputed site decisions
    through the ``relax_result`` seam (the exact per-site verdicts the
    serial phase computed, relaxation-based or one-shot)."""

    def __init__(self, decisions: dict[int, bool]):
        self.decisions = decisions


class ProcFacts(NamedTuple):
    """Every question the calls pass asks of a callee, answered."""

    name: str
    exported: bool
    uses_gp: bool
    entry_pair: bool  # GPDISP pair sits in the first two slots
    has_skip: bool  # a $skipgp label already exists
    reset_free_leaf: bool  # cannot change GP (no gpdisp, no calls)


class ModuleSummary(NamedTuple):
    """What the serial phase reads from one translated, canonicalized
    module: plain values, stored with its shard.

    ``procs`` holds each procedure's :class:`ProcFacts`, in order.
    ``sites`` holds the (caller, callee name) of each direct-call
    candidate in item order (:func:`~repro.layout.callgraph.direct_jsrs`);
    the serial phase resolves the names.  ``literals`` are the symbols the module loads
    from the GAT, ``taken`` the symbols it takes the address of
    (:func:`~repro.om.transform.address_refs`), and ``counts`` its
    :func:`~repro.om.stats.module_counts`.
    """

    procs: tuple[ProcFacts, ...]
    sites: tuple
    literals: tuple
    taken: set
    counts: ModuleCounts

    def proc_named(self, name: str) -> ProcFacts | None:
        for proc in self.procs:
            if proc.name == name:
                return proc
        return None


def summarize(module: SymbolicModule) -> ModuleSummary:
    """The :class:`ModuleSummary` of a module as the round's prologue
    left it."""
    procs = []
    sites = []
    literals: set[str] = set()
    for proc in module.procs:
        procs.append(ProcFacts(
            proc.name, proc.exported, proc.uses_gp,
            _entry_pair_at_top(proc) is not None,
            _find_skip_label(proc) is not None,
            _is_reset_free_leaf(proc),
        ))
        sites.extend((proc.name, callee) for __, __, callee in direct_jsrs(proc))
        literals.update(
            item.literal[0]
            for item in proc.items
            if isinstance(item, MInstr) and item.literal is not None
        )
    return ModuleSummary(
        tuple(procs), tuple(sites), tuple(sorted(literals)),
        address_refs(module), module_counts(module),
    )


@dataclass
class ShardResult:
    """What a shard execution produces, or what a cache hit replays."""

    counters: PassCounters = field(default_factory=PassCounters)
    changed: bool = False
    #: Stub ids whose callee needs a skip label applied serially.
    effects: list[int] = field(default_factory=list)
    #: Provenance event payloads, re-emitted by the driver.
    events: list[dict] = field(default_factory=list)
    #: Layout facts, module indices local to the shard.
    facts: list[tuple] = field(default_factory=list)
    #: Per member, its :func:`~repro.om.symbolic.encode_module` value
    #: after the shard, to build its body from when a later step needs it.
    values: list[tuple] = field(default_factory=list)
    #: Per member, its :func:`~repro.om.transform.entry_facts` after
    #: the shard, which the serial epilogue reads.
    entry_facts: list[tuple] = field(default_factory=list)

    def entry(self) -> tuple:
        """The shard cache's entry for this result: plain values only."""
        return (
            astuple(self.counters),
            self.changed,
            tuple(self.effects),
            self.events,
            tuple(self.facts),
            tuple(self.values),
            tuple(self.entry_facts),
        )

    @classmethod
    def from_entry(cls, entry: tuple) -> ShardResult:
        counters, changed, effects, events, facts, values, entry_facts = entry
        return cls(
            PassCounters(*counters), changed, list(effects), events,
            list(facts), list(values), list(entry_facts),
        )


def run_shard_job(job: dict, trace: TraceLog | None) -> ShardResult:
    """Execute one shard job, transforming its member modules in place.

    ``job["modules"]`` are the driver's live modules: the shard mutates
    only those members and its private stubs, and reads every
    cross-module fact from the job's precomputed context.  Provenance
    is recorded into ``trace`` (the shard's own log, or none).
    """
    modules: list[SymbolicModule] = job["modules"]
    group = {index: g for index, g in enumerate(job["group"])}
    stubs: dict[int, tuple[int, SymbolicProc]] = {}
    for sid, info in job["stubs"].items():
        pseudo = len(modules) + sid
        stubs[sid] = (pseudo, build_stub(info))
        group[pseudo] = info.group

    prog = ShardProgram(
        modules,
        gp=job["gp"],
        group=group,
        single=job["single_group"],
        addr=job["addr"],
        resolutions=job["resolutions"],
        stubs=stubs,
    )
    transformer = Transformer(
        prog,
        full=job["full"],
        convert_escaped=job["convert_escaped"],
        trace=trace,
        round_index=job["round_index"],
    )
    # The serial phase decided each member's direct-call candidates in
    # item order; the transformer looks its verdicts up by jsr uid.
    decisions: dict[int, bool] = {}
    for module, verdicts in zip(modules, job["decisions"]):
        jsrs = [jsr for proc in module.procs for jsr, __, __ in direct_jsrs(proc)]
        decisions.update(zip((jsr.uid for jsr in jsrs), verdicts))
    transformer.relax_result = _Decisions(decisions)
    transformer.run_passes(canonicalize=False, relax=False, entry_setups=False)

    # A stub is always cross-module, so any conversion that skips its
    # GP setup exports the skip label into the stub — the exact set of
    # callee mutations the serial phase must replay on the real procs.
    effects = sorted(
        sid
        for sid, (_, stub) in stubs.items()
        if f"{stub.name}$skipgp" in stub.export_labels
    )
    return ShardResult(
        counters=transformer.counters,
        changed=transformer.changed,
        effects=effects,
        events=provenance.events(trace) if trace is not None else [],
        facts=transformer.facts,
        values=[encode_module(module) for module in modules] if job["store"] else [],
        entry_facts=[entry_facts(module) for module in modules],
    )
