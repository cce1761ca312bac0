"""Memory layout: sections, GAT groups, GP values, symbol addresses.

Layout order:

* text segment at ``TEXT_BASE``: modules in link order, 16-aligned;
* data segment at ``DATA_BASE``: the merged GAT group(s) first, then
  (optionally) size-sorted COMMON symbols — the paper's "sort the common
  symbols by size and place them with the small data sections near the
  GAT" — then ``.sdata``, ``.data``, then zero-filled ``.bss``/``.sbss``
  and any remaining COMMONs.

GAT merging: each module's distinct literals are resolved to a
*literal key* (global name, or module-scoped name for statics, plus
addend) and deduplicated.  Keys are packed into groups of at most
``gat_capacity`` slots; each group gets its own GP value (the paper's
"merging into one large GAT will not always be possible").  Every
module is assigned to one group, and all its procedures use that
group's GP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.ranges import DEFAULT_GAT_CAPACITY, GP_BIAS, gp_reaches
from repro.linker.executable import DATA_BASE, TEXT_BASE
from repro.linker.resolve import LinkError, ResolvedInputs
from repro.objfile.relocations import RelocType
from repro.objfile.sections import SectionKind
from repro.objfile.symbols import Binding

LiteralKey = tuple  # ("g", name, addend) | ("l", module_index, name, addend)


@dataclass
class LayoutOptions:
    gat_capacity: int = DEFAULT_GAT_CAPACITY
    sort_commons: bool = False  # OM's small-data sorting
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    #: Escaped-literal heat per symbol (from a profiled run).  When set,
    #: COMMON placement compares the paper's size sort against a
    #: weight-density sort under an explicit out-of-window cost model
    #: and keeps the cheaper order.
    symbol_weights: dict[str, float] | None = None


@dataclass
class GatGroup:
    start: int = 0
    gp: int = 0
    slots: dict[LiteralKey, int] = field(default_factory=dict)  # key -> slot addr

    @property
    def size(self) -> int:
        return 8 * len(self.slots)


@dataclass
class Layout:
    options: LayoutOptions
    inputs: ResolvedInputs
    module_base: dict[tuple[int, SectionKind], int] = field(default_factory=dict)
    common_addr: dict[str, int] = field(default_factory=dict)
    groups: list[GatGroup] = field(default_factory=list)
    module_group: list[int] = field(default_factory=list)
    text_end: int = 0
    data_end: int = 0
    bss_end: int = 0
    sorted_commons_end: int = 0
    #: True when the weight-density COMMON order beat the size sort.
    hot_commons: bool = False
    _defs_cache: dict[int, dict[str, object]] = field(default_factory=dict, repr=False)

    # -- address queries ------------------------------------------------------

    def section_base(self, module_index: int, kind: SectionKind) -> int:
        return self.module_base[(module_index, kind)]

    def symbol_addr(self, module_index: int, name: str) -> int:
        """Resolve ``name`` as seen from ``module_index`` to an address."""
        local = self._definitions(module_index).get(name)
        if local is not None:
            return self.section_base(module_index, local.section) + local.offset
        entry = self.inputs.globals.get(name)
        if entry is not None:
            def_index, sym = entry
            return self.section_base(def_index, sym.section) + sym.offset
        if name in self.common_addr:
            return self.common_addr[name]
        raise LinkError(
            f"no address for symbol {name!r} "
            f"(module {self.inputs.modules[module_index].name})"
        )

    def _definitions(self, module_index: int):
        cached = self._defs_cache.get(module_index)
        if cached is None:
            module = self.inputs.modules[module_index]
            cached = {sym.name: sym for sym in module.symbols if sym.is_defined}
            self._defs_cache[module_index] = cached
        return cached

    def literal_key(self, module_index: int, name: str, addend: int) -> LiteralKey:
        local = self._definitions(module_index).get(name)
        if local is not None and local.binding is Binding.LOCAL:
            return ("l", module_index, name, addend)
        return ("g", name, addend)

    def gat_slot_addr(self, module_index: int, name: str, addend: int) -> int:
        key = self.literal_key(module_index, name, addend)
        group = self.groups[self.module_group[module_index]]
        return group.slots[key]

    def gp_for_module(self, module_index: int) -> int:
        return self.groups[self.module_group[module_index]].gp

    def global_symbols(self) -> dict[str, int]:
        """Every global symbol's final address (for the executable)."""
        out: dict[str, int] = {}
        for name, (index, sym) in self.inputs.globals.items():
            out[name] = self.section_base(index, sym.section) + sym.offset
        out.update(self.common_addr)
        return out


def compute_layout(
    inputs: ResolvedInputs, options: LayoutOptions | None = None
) -> Layout:
    """Lay out all modules, the merged GAT, and COMMON symbols."""
    options = options or LayoutOptions()
    layout = Layout(options, inputs)
    modules = inputs.modules

    # Text segment.
    cursor = options.text_base
    for index, module in enumerate(modules):
        cursor = _align(cursor, 16)
        layout.module_base[(index, SectionKind.TEXT)] = cursor
        text = module.sections.get(SectionKind.TEXT)
        cursor += text.size if text else 0
    layout.text_end = cursor

    # GAT groups: walk modules, deduplicating literal keys, splitting
    # when a group would exceed capacity.
    group_keys: list[list[LiteralKey]] = [[]]
    group_seen: set[LiteralKey] = set()
    layout.module_group = []
    for index, module in enumerate(modules):
        keys = [
            layout.literal_key(index, reloc.symbol, reloc.addend)
            for reloc in module.relocations
            if reloc.type is RelocType.LITERAL
        ]
        fresh = [k for k in dict.fromkeys(keys) if k not in group_seen]
        if len(group_keys[-1]) + len(fresh) > options.gat_capacity and group_keys[-1]:
            group_keys.append([])
            group_seen = set()
            fresh = list(dict.fromkeys(keys))
        layout.module_group.append(len(group_keys) - 1)
        group_keys[-1].extend(fresh)
        group_seen.update(fresh)
        if len(group_keys[-1]) > options.gat_capacity:
            raise LinkError(
                f"module {module.name} alone exceeds GAT capacity "
                f"({len(group_keys[-1])} literals)"
            )

    cursor = options.data_base
    for keys in group_keys:
        group = GatGroup(start=cursor, gp=cursor + GP_BIAS)
        for key in keys:
            group.slots[key] = cursor
            cursor += 8
        layout.groups.append(group)

    # Optionally place size-sorted COMMONs right after the GAT (OM's
    # small-data optimization).  They are zero-initialized but must live
    # inside the initialized data image so GP-relative stores hit RAM we
    # emit; relocate.py zero-fills them.
    sorted_commons_end = cursor
    if options.sort_commons:
        # Deterministic size sort: ties broken by alignment then name,
        # so equal-size symbols never depend on dict insertion order.
        size_order = sorted(
            inputs.commons.items(),
            key=lambda item: (item[1][0], item[1][1], item[0]),
        )
        order = size_order
        if options.symbol_weights:
            dense_order = _density_order(inputs.commons, options.symbol_weights)
            gp = layout.groups[-1].gp
            weights = options.symbol_weights
            if _window_cost(dense_order, cursor, gp, weights) < _window_cost(
                size_order, cursor, gp, weights
            ):
                order = dense_order
                layout.hot_commons = True
        for name, (size, align) in order:
            cursor = _align(cursor, align)
            layout.common_addr[name] = cursor
            cursor += size
        sorted_commons_end = cursor

    # .sdata then .data for each module.
    for kind in (SectionKind.SDATA, SectionKind.DATA):
        for index, module in enumerate(modules):
            section = module.sections.get(kind)
            if section is None:
                continue
            cursor = _align(cursor, section.alignment)
            layout.module_base[(index, kind)] = cursor
            cursor += section.size
    layout.data_end = cursor
    layout.sorted_commons_end = sorted_commons_end

    # Zero-filled: .sbss, .bss, then any COMMONs not already placed.
    cursor = _align(cursor, 16)
    for kind in (SectionKind.SBSS, SectionKind.BSS):
        for index, module in enumerate(modules):
            section = module.sections.get(kind)
            if section is None:
                continue
            cursor = _align(cursor, section.alignment)
            layout.module_base[(index, kind)] = cursor
            cursor += section.size
    if not options.sort_commons:
        for name, (size, align) in inputs.commons.items():
            cursor = _align(cursor, align)
            layout.common_addr[name] = cursor
            cursor += size
    layout.bss_end = cursor
    return layout


def _align(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


def _density_order(
    commons: dict[str, tuple[int, int]], weights: dict[str, float]
) -> list[tuple[str, tuple[int, int]]]:
    """Hottest-per-byte first; cold symbols fall back to the size sort."""
    return sorted(
        commons.items(),
        key=lambda item: (
            -(weights.get(item[0], 0.0) / max(item[1][0], 1)),
            item[1][0],
            item[1][1],
            item[0],
        ),
    )


def _window_cost(
    order: list[tuple[str, tuple[int, int]]],
    start: int,
    gp: int,
    weights: dict[str, float],
) -> float:
    """Escaped heat landing outside the direct GP window.

    Simulates the placement loop and charges each symbol its weight
    when its base address cannot be materialized with a single
    GP-relative ``lda`` (:func:`repro.isa.ranges.gp_reaches`).
    """
    cursor = start
    cost = 0.0
    for name, (size, align) in order:
        cursor = _align(cursor, align)
        if not gp_reaches(cursor - gp):
            cost += weights.get(name, 0.0)
        cursor += size
    return cost
