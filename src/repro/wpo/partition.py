"""Callgraph-guided partitioning of a link's input objects into shards.

The partition is the unit of parallelism and of incremental reuse for
the whole-program optimizer: each shard's transform work is keyed by
the content of its member modules, so a one-module edit must land in
exactly one shard for the relink to be O(changed shard).  It is decided
from the input objects, before any module is translated, so a relink
whose shards all hit translates nothing.

Two properties matter more than cut quality:

* **Determinism under discovery order** — shard membership is decided
  over the *name-sorted* module list, so permuting the input objects
  (or the order a build system happens to emit them) never moves a
  module between shards and never invalidates warm shard artifacts.
* **Stability under small edits** — weights are static instruction
  counts, which an expression-level edit does not change; the greedy
  assignment below is a pure function of (names, weights, call
  multiplicities) and is unaffected by code *content* changes that
  keep those inputs fixed.

Within those constraints the callgraph still earns its keep: modules
are packed next to their call-affine neighbours, which keeps
caller/callee pairs in one shard and so keeps the cross-shard stub
surface — the summaries the serial phase must ship — small.  The
direct calls are read from the objects' relocations and are exactly
the sites :func:`repro.layout.callgraph.iter_direct_call_sites` finds
in the translated modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.encoding import decode
from repro.isa.opcodes import OPS
from repro.objfile.objfile import ObjectFile
from repro.objfile.relocations import LituseKind, RelocType
from repro.objfile.sections import SectionKind
from repro.objfile.symbols import Binding

_JSR = OPS["jsr"]


@dataclass
class Shard:
    """One partition: member module indices (into the driver's list)."""

    index: int
    #: Global module indices, in canonical (name-sorted) order.  This
    #: order is also the worker's iteration order, so it must be a
    #: pure function of module names.
    members: list[int] = field(default_factory=list)
    weight: int = 0


def _module_weight(obj: ObjectFile) -> int:
    """The module's instruction count plus one (translation makes one
    instruction of every text word)."""
    text = obj.sections.get(SectionKind.TEXT)
    return (text.size // 4 if text else 0) + 1


def _call_pairs(objects: list[ObjectFile]) -> list[tuple[int, int]]:
    """(caller module, callee module) of every direct call: a ``jsr``
    whose JSR-kind LITUSE names a literal load in the same procedure
    with a zero addend, of a procedure a module-local static or the
    directory (exported definitions win) resolves."""
    procs = [obj.procedures() for obj in objects]
    directory: dict[str, int] = {}
    statics: list[set[str]] = []
    for index, syms in enumerate(procs):
        local = set()
        for sym in syms:
            exported = sym.binding is Binding.GLOBAL
            if not exported:
                local.add(sym.name)
            if exported or sym.name not in directory:
                directory[sym.name] = index
        statics.append(local)

    pairs = []
    for index, obj in enumerate(objects):
        text = obj.sections.get(SectionKind.TEXT)
        if text is None:
            continue
        literals = {}
        uses = []
        for reloc in obj.relocations:
            if reloc.section is not SectionKind.TEXT:
                continue
            if reloc.type is RelocType.LITERAL:
                literals[reloc.offset] = reloc
            elif reloc.type is RelocType.LITUSE and reloc.extra == LituseKind.JSR:
                uses.append(reloc)
        bounds = [(sym.offset, sym.offset + sym.size) for sym in procs[index]]
        for use in uses:
            load = literals.get(use.addend)
            if load is None or load.addend:
                continue
            word = int.from_bytes(text.data[use.offset : use.offset + 4], "little")
            if decode(word).op is not _JSR:
                continue
            if not any(
                start <= use.offset < end and start <= use.addend < end
                for start, end in bounds
            ):
                continue
            name = load.symbol
            callee = index if name in statics[index] else directory.get(name)
            if callee is not None:
                pairs.append((index, callee))
    return pairs


def partition_modules(
    modules: list[ObjectFile], partitions: int
) -> list[Shard]:
    """Split the input objects ``modules`` into at most ``partitions``
    balanced shards.

    Modules are considered in name order.  Each is placed on the shard
    it has the highest call affinity with (static cross-module call
    multiplicity against already-placed members), unless that shard is
    already over the balance ceiling, in which case it goes to the
    lightest shard.  Ties break toward the lighter, lower-indexed
    shard, so the result is deterministic.
    """
    partitions = max(1, min(partitions, len(modules)))
    order = sorted(range(len(modules)), key=lambda i: modules[i].name)
    weights = [_module_weight(module) for module in modules]

    # Module-level call affinity, both directions summed: each module's
    # call neighbours with their static cross-module call multiplicity.
    neighbours: list[dict[int, int]] = [{} for _ in modules]
    for caller, callee in _call_pairs(modules):
        if caller != callee:
            neighbours[caller][callee] = neighbours[caller].get(callee, 0) + 1
            neighbours[callee][caller] = neighbours[callee].get(caller, 0) + 1

    shards = [Shard(index) for index in range(partitions)]
    ceiling = (sum(weights) / partitions) * 1.25 + 1
    placed: dict[int, int] = {}  # module index -> shard index

    for module_index in order:
        pull = [0] * partitions
        for neighbour, calls in neighbours[module_index].items():
            shard_index = placed.get(neighbour)
            if shard_index is not None:
                pull[shard_index] += calls
        open_shards = [s for s in shards if s.weight < ceiling] or shards
        best = max(
            open_shards,
            key=lambda s: (pull[s.index], -s.weight, -s.index),
        )
        best.members.append(module_index)
        best.weight += weights[module_index]
        placed[module_index] = best.index

    shards = [shard for shard in shards if shard.members]
    for index, shard in enumerate(shards):
        shard.index = index
    return shards
