"""What a partitioned link knows of each module: its input object and,
once built, its body; until then, what its shard's cache entry says.

A shard's entry (:class:`Entry`) is keyed on its members' input-object
digests.  :class:`Members` builds a body only when something reads it
(translating the input, or decoding the member's post-shard value and
replaying the effects and removals that landed on it), gives the finish
each unbuilt member's final object from the entry, and writes back only
the entries the link changed.  See :mod:`repro.wpo.driver` for when
each happens.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

from repro.linker.layout import Layout, LayoutOptions, compute_layout
from repro.linker.resolve import resolve_inputs
from repro.minicc.mcode import MLabel
from repro.objfile.objfile import ObjectFile
from repro.objfile.serialize import dump_object, load_object
from repro.obs.trace import TraceLog, span_or_null
from repro.om.stats import CodeCounts, ModuleCounts, module_counts, total_counts
from repro.om.symbolic import (
    SymbolicModule,
    decode_module,
    encode_module,
    layout_object,
    module_digest,
    place_module,
    translate_module,
)
from repro.om.transform import _entry_pair_at_top, _find_skip_label, lay_out
from repro.wpo.partition import Shard
from repro.wpo.shard import ModuleSummary

#: Bump to invalidate shard artifacts when the key or entry format changes.
_KEY_VERSION = 4


def object_digest(obj: ObjectFile) -> str:
    """SHA-256 of an input object's serialized bytes."""
    return hashlib.sha256(dump_object(obj)).hexdigest()


def apply_skip_effect(module: SymbolicModule, proc_name: str) -> None:
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


@dataclass
class Entry:
    """One shard's cache entry, keyed on its members' input digests: what
    a link read, or what it stores."""

    #: Each member's summary, and whether canonicalization moved a pair.
    summaries: tuple
    canonicalized: bool
    #: Round 0's transform: its key, and
    #: :meth:`~repro.wpo.shard.ShardResult.entry` in
    #: ``marshal`` form.
    context: str | None = None
    result: bytes | None = None
    #: The members' state after a link whose only round was round 0 (its
    #: transform key plus what landed on each member), and per member
    #: its reassembled object (``dump_object``) and counts in that state.
    final: str | None = None
    objects: tuple | None = None

    def value(self) -> tuple:
        return (self.summaries, self.canonicalized, self.context,
                self.result, self.final, self.objects)


class Members:
    """Every module of the link: its input object and, when built, its
    body (``bodies``; ``None`` where the link built none); otherwise
    what its shard's entry says about it, which gives the finish its
    final object and counts."""

    def __init__(
        self,
        objects: list[ObjectFile],
        bodies: list[SymbolicModule] | None,
        shards: list[Shard],
        cache,
        trace: TraceLog | None,
        full: bool,
    ):
        count = len(objects)
        self.shards = shards
        self.cache = cache
        self.full = full
        self.trace = trace
        self.objects = objects
        #: Per module, its body, or ``None`` while only its shard's
        #: entry describes it.
        self.bodies: list[SymbolicModule | None] = (
            list(bodies) if bodies is not None else [None] * count
        )
        #: What each shard entry is keyed on: the input objects' digests
        #: (or the values', for bodies handed in).
        self.digests: list[str] | None = None
        if cache is not None:
            self.digests = (
                [module_digest(encode_module(body)) for body in bodies]
                if bodies is not None
                else [object_digest(obj) for obj in objects]
            )
        self.summaries: list[ModuleSummary | None] = [None] * count
        self.before: CodeCounts | None = None
        #: An unbuilt member's post-shard value, and the skip labels and
        #: entry-setup removals that landed on it since.
        self.values: list[tuple | None] = [None] * count
        self.effects: list[set[str]] = [set() for __ in range(count)]
        self.removals: list[list[str]] = [[] for __ in range(count)]
        #: An unbuilt member's final object and counts.
        self.finals: list[tuple[ObjectFile, ModuleCounts] | None] = [None] * count
        self.built: set[int] = set()
        #: Per shard, the entry the cache held and the one this link
        #: stores when it differs.
        self.stored: list[Entry | None] = [None] * len(shards)
        self.entries: list[Entry | None] = [None] * len(shards)
        self._counts: dict[int, ModuleCounts] = {}

    def load(self, shard: Shard) -> Entry | None:
        """The shard's entry as the cache holds it; round 0 reads each
        once."""
        blob = self.cache.get("wpo", self.key(shard))
        entry = self.stored[shard.index] = (
            None if blob is None else Entry(*pickle.loads(blob))
        )
        return entry

    def key(self, shard: Shard) -> str:
        return self.cache.key(
            {"v": _KEY_VERSION, "full": self.full,
             "members": [self.digests[g] for g in shard.members]}
        )

    # -- bodies ------------------------------------------------------------

    def translate(self, indices: list[int]) -> None:
        """Translate the members ``indices`` names that have no body."""
        indices = [g for g in indices if self.bodies[g] is None]
        if not indices:
            return
        with span_or_null(self.trace, "om.translate", cat="om", modules=len(indices)):
            for g in indices:
                self.bodies[g] = translate_module(self.objects[g])
        self.built.update(indices)

    def build(self, index: int) -> SymbolicModule:
        """The member's body, decoded from its post-shard value with the
        effects and removals that landed on it replayed."""
        body = self.bodies[index]
        if body is not None:
            return body
        body = self.bodies[index] = decode_module(self.values[index])
        for name in sorted(self.effects[index]):
            apply_skip_effect(body, name)
        for name in self.removals[index]:
            proc = body.proc_named(name)
            for item in _entry_pair_at_top(proc):
                proc.items.remove(item)
        self.values[index] = self.finals[index] = None
        self.built.add(index)
        return body

    def build_all(self) -> list[SymbolicModule]:
        """Every module's body, building those the link has not."""
        for index in range(len(self.bodies)):
            self.build(index)
        return self.bodies

    # -- the finish ------------------------------------------------------------

    def fetch_finals(self) -> None:
        """Give every unbuilt member its final object: from its shard's
        entry when that holds the members' state, or else by building
        its body."""
        for shard in self.shards:
            first = shard.members[0]
            if self.bodies[first] is not None or self.finals[first] is not None:
                continue
            stored, entry = self.stored[shard.index], self.entries[shard.index]
            if entry.final is None or stored.final != entry.final:
                for g in shard.members:
                    self.build(g)
                continue
            entry.objects = stored.objects
            for g, (data, counts) in zip(shard.members, stored.objects):
                self.finals[g] = (load_object(data), ModuleCounts(*counts))

    def lay_out(self, options: LayoutOptions) -> tuple[Layout, list]:
        """The layout of the program as it stands: from the bodies and
        their placements, and from the final objects of unbuilt members."""
        self.fetch_finals()
        if None not in self.bodies:
            return lay_out(self.bodies, options)
        placements = [
            None if body is None else place_module(body) for body in self.bodies
        ]
        objects = [
            self.finals[g][0] if body is None else layout_object(body, placements[g])
            for g, body in enumerate(self.bodies)
        ]
        return compute_layout(resolve_inputs(objects, []), options), placements

    def final_objects(self) -> list[ObjectFile | None]:
        """Each unbuilt module's final object; ``None`` for each body,
        which the finish reassembles."""
        self.fetch_finals()
        return [
            self.finals[g][0] if body is None else None
            for g, body in enumerate(self.bodies)
        ]

    def store(self, objects: list[ObjectFile] | None) -> None:
        """Put every shard entry that differs from the one the cache
        held.  ``objects`` are the finish's, when they are the members'
        state after the rounds (nothing changed the bodies since)."""
        if self.cache is None:
            return
        for shard in self.shards:
            entry, stored = self.entries[shard.index], self.stored[shard.index]
            if entry.final is not None and entry.objects is None:
                if stored is not None and stored.final == entry.final:
                    entry.objects = stored.objects
                elif objects is None:
                    entry.final = None
                else:
                    entry.objects = tuple(
                        (dump_object(objects[g]), tuple(self.counts(g)))
                        for g in shard.members
                    )
            if stored is not None and stored.value() == entry.value():
                continue
            self.cache.put(
                "wpo", self.key(shard),
                pickle.dumps(entry.value(), protocol=pickle.HIGHEST_PROTOCOL),
            )

    def counts(self, index: int) -> ModuleCounts:
        """A member's counts as the finish emits it."""
        body = self.bodies[index]
        if body is None:
            return self.finals[index][1]
        counts = self._counts.get(index)
        if counts is None:
            counts = self._counts[index] = module_counts(body)
        return counts

    def count_after(self) -> CodeCounts:
        """The program's counts as it stands."""
        names = [
            proc.name for summary in self.summaries for proc in summary.procs
        ] if None in self.bodies else [
            proc.name for body in self.bodies for proc in body.procs
        ]
        return total_counts(
            (self.counts(g) for g in range(len(self.bodies))), names
        )
