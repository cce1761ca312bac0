"""OM's address-calculation transformations.

Implements the paper's optimization catalogue over the symbolic form:

1. GP-relative conversion of address loads (``ldq rX, slot(gp)`` →
   ``lda``/``ldah`` forms) and nullification of address loads whose
   uses can all be rebased onto GP directly;
2. nullification/deletion of GP-reset pairs after calls between
   routines that share a GAT;
3. ``jsr`` → ``bsr`` conversion, retargeting past callee GP setup when
   legal, with deletion of the call site's PV-load;
4. deletion of entry GP-setup for procedures all of whose entries
   arrive with the correct GP established;
5. GAT reduction — emergent: the final link builds the GAT from the
   literal relocations that survive.

OM-simple restricts itself to 1-for-1 replacement (NOPs, no motion);
OM-full moves GP-setup pairs back to their logical position first and
deletes instead of nullifying.

A round records a *layout fact* for every candidate it declines
because of the layout.  :func:`run_rounds`, the round loop both
drivers share, re-checks only those facts on the layout after a round
and runs another round only when one of them flips (DESIGN.md,
"Convergence certificate").
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS
from repro.isa.ranges import (
    BRANCH_REACH_WORDS, bsr_reaches, gp_reaches, gp_rebases, shares_one_high,
)
from repro.isa.registers import Reg
from repro.linker.layout import Layout, LayoutOptions, compute_layout
from repro.linker.resolve import LinkError, resolve_inputs
from repro.minicc.mcode import MInstr, MLabel
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.objfile.relocations import LituseKind
from repro.om.symbolic import (
    Placement,
    SymbolicModule,
    SymbolicProc,
    layout_object,
    place_module,
)


@dataclass
class PassCounters:
    """Transformation counts accumulated across rounds (for stats)."""

    loads_converted: int = 0
    loads_nullified: int = 0
    pv_loads_removed: int = 0
    gp_resets_removed: int = 0
    jsr_to_bsr: int = 0
    bsr_retargeted: int = 0
    entry_setups_removed: int = 0
    instructions_nulled: int = 0  # NOPs introduced (OM-simple)
    instructions_deleted: int = 0  # items removed (OM-full)
    procs_removed: int = 0  # dead-procedure GC (extension)

    def merge(self, other: PassCounters) -> None:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Program:
    """Whole-program view binding symbolic modules to a tentative layout."""

    modules: list[SymbolicModule]
    layout: Layout
    proc_dir: dict[str, tuple[int, SymbolicProc]] = field(default_factory=dict)
    address_taken: set[str] = field(default_factory=set)
    entry: str = "__start"

    @classmethod
    def build(
        cls, modules: list[SymbolicModule], layout: Layout, entry: str = "__start"
    ) -> Program:
        prog = cls(modules, layout, entry=entry)
        for index, module in enumerate(modules):
            for proc in module.procs:
                if proc.exported or proc.name not in prog.proc_dir:
                    prog.proc_dir[proc.name] = (index, proc)
        prog.address_taken = _find_address_taken(modules)
        return prog

    def addr(self, module_index: int, symbol: str, addend: int = 0) -> int:
        return self.layout.symbol_addr(module_index, symbol) + addend

    def gp(self, module_index: int) -> int:
        return self.layout.gp_for_module(module_index)

    def group(self, module_index: int) -> int:
        return self.layout.module_group[module_index]

    def single_group(self) -> bool:
        return len(self.layout.groups) <= 1

    def callee_info(
        self, caller_module: int, name: str
    ) -> tuple[int, SymbolicProc] | None:
        """Resolve a direct-call target, honouring module-local statics."""
        module = self.modules[caller_module]
        local = module.proc_named(name)
        if local is not None and not local.exported:
            return (caller_module, local)
        return self.proc_dir.get(name)


def _find_address_taken(modules: list[SymbolicModule]) -> set[str]:
    """Procedures whose address escapes (function pointers, data refs)."""
    proc_names = {proc.name for module in modules for proc in module.procs}
    taken: set[str] = set()
    for module in modules:
        taken.update(address_refs(module, proc_names))
    return taken & proc_names


def address_refs(
    module: SymbolicModule, names: Collection[str] | None = None
) -> set[str]:
    """The symbols one module takes the address of (those of ``names``,
    when given): data references that name no label, and literals
    loaded with a non-JSR use or escaped; those that name procedures
    are address-taken."""
    refs = {ref.symbol for ref in module.data_refs if ref.label is None}
    for proc in module.procs:
        literals: list[MInstr] = []
        # Literal loads with a non-JSR use: those uses take the address.
        address_uses: set[int] = set()
        for item in proc.items:
            if isinstance(item, MLabel):
                continue
            literal = item.literal
            if literal is not None and (names is None or literal[0] in names):
                literals.append(item)
            lituse = item.lituse
            if lituse is not None and lituse[1] != LituseKind.JSR:
                address_uses.add(lituse[0])
        for item in literals:
            if item.lit_escaped or item.uid in address_uses:
                refs.add(item.literal[0])
    return refs


# -- helpers over item lists ------------------------------------------------------

_JSR = OPS["jsr"]
_BSR = OPS["bsr"]


class _ProcIndex:
    """What the calls and address-load passes look up in one procedure,
    gathered in one scan: its literal loads and its ``jsr``s in item
    order, each literal's uses (by load uid, in item order), and its GP
    pairs by base label (in ``lda`` order).

    A round builds one per procedure, after canonicalization, and its
    calls and address-load passes share it.  Every item they delete or
    nullify goes through :meth:`forget`, and every use the calls pass
    unlinks through :meth:`drop_use`, so a lookup answers as a rescan
    of the procedure would.  (The address-load pass reads a literal's
    uses once, when it reaches that literal, and unlinks only those.)
    Another procedure's passes only ever add a label here, which the
    index does not hold.
    """

    def __init__(self, proc: SymbolicProc):
        self.literals: list[MInstr] = []
        self.jsrs: list[MInstr] = []
        self.uses: dict[int, list[MInstr]] = {}
        ldahs: dict[int, MInstr] = {}
        ldas: list[MInstr] = []
        for item in proc.items:
            if isinstance(item, MLabel):
                continue
            if item.literal is not None:
                self.literals.append(item)
            if item.lituse is not None:
                self.uses.setdefault(item.lituse[0], []).append(item)
            if item.gpdisp_base is not None:
                ldahs[item.uid] = item
            if item.gpdisp_pair is not None:
                ldas.append(item)
            if item.instr.op is _JSR:
                self.jsrs.append(item)
        self.pairs: dict[str, list[tuple[MInstr, MInstr]]] = {}
        for ldah, lda in _pair_up(ldahs, ldas):
            self.pairs.setdefault(ldah.gpdisp_base, []).append((ldah, lda))

    def uses_of(self, uid: int) -> list[MInstr]:
        return self.uses.get(uid, [])

    def pair_with_base(self, base: str) -> tuple[MInstr, MInstr] | None:
        """The first (ldah, lda) GP pair, in lda order, based at ``base``."""
        pairs = self.pairs.get(base)
        return pairs[0] if pairs else None

    def drop_use(self, item: MInstr) -> None:
        """``item`` stops using its literal; call before clearing ``lituse``."""
        self.uses[item.lituse[0]].remove(item)

    def forget(self, item: MInstr) -> None:
        """``item`` is about to be deleted or nullified."""
        if item.literal is not None:
            self.literals.remove(item)
        if item.lituse is not None:
            self.drop_use(item)
        if item.gpdisp_base is not None or item.gpdisp_pair is not None:
            for pairs in self.pairs.values():
                pairs[:] = [pair for pair in pairs if item not in pair]


def _pair_up(
    ldahs: dict[int, MInstr], ldas: list[MInstr]
) -> list[tuple[MInstr, MInstr]]:
    """A procedure's GP-establishing (ldah, lda) pairs, in lda order,
    from its GPDISP ldahs by uid and its paired ldas in item order."""
    return [
        (ldahs[lda.gpdisp_pair], lda) for lda in ldas if lda.gpdisp_pair in ldahs
    ]


def _nullify(item: MInstr) -> None:
    item.instr = Instruction.nop()
    item.literal = None
    item.lituse = None
    item.gpdisp_base = None
    item.gpdisp_pair = None
    item.branch = None
    item.hint = None
    item.jmptab = None
    item.gprel = None


def _entry_pair_at_top(proc: SymbolicProc) -> tuple[MInstr, MInstr] | None:
    """The entry GPDISP pair if it sits in the first two instruction slots."""
    first = None
    for item in proc.items:
        if isinstance(item, MLabel):
            continue
        if first is not None:
            return (first, item) if item.gpdisp_pair == first.uid else None
        if item.gpdisp_base != proc.name:
            return None
        first = item
    return None


def _find_skip_label(proc: SymbolicProc) -> str | None:
    for item in proc.items:
        if isinstance(item, MLabel) and item.name == f"{proc.name}$skipgp":
            return item.name
    return None


# -- the passes ---------------------------------------------------------------------


class Transformer:
    """One round of OM transformations over the whole program."""

    def __init__(
        self,
        prog: Program,
        *,
        full: bool,
        convert_escaped: bool = False,
        trace: TraceLog | None = None,
        round_index: int = 0,
        relax_slack: int | None = None,
        bsr_range_words: int = BRANCH_REACH_WORDS,
    ):
        self.prog = prog
        self.full = full
        # Replace far escaped literals (function pointers, out-of-window
        # array bases) with exact ldah+lda pairs.  Off by default: the
        # paper's OM leaves these in the GAT (its GAT shrinks to 3-15%
        # of original, not to zero); the knob exists as an ablation.
        self.convert_escaped = convert_escaped and full
        self.counters = PassCounters()
        self.changed = False
        self.trace = trace
        self.round_index = round_index
        #: Bytes of modelled-growth headroom, or ``None``.  When set,
        #: the calls pass defers its range decision to the span-
        #: dependent relaxation fixpoint instead of the one-shot check.
        self.relax_slack = relax_slack
        self.bsr_range_words = bsr_range_words
        self.relax_result = None
        #: One tuple per candidate this round declined because of the
        #: layout, its reason first (see :data:`FACT_REASONS`).
        self.facts: list[tuple] = []

    # ---- provenance --------------------------------------------------------

    def _item_pc(
        self, module_index: int, proc: SymbolicProc, item: MInstr
    ) -> int | None:
        """The instruction's address under this round's tentative layout,
        for a provenance event; ``None`` when this transformer records
        none (the scan is linear in the procedure)."""
        if self.trace is None:
            return None
        try:
            base = self.prog.addr(module_index, proc.name)
        except LinkError:
            return None
        offset = 0
        for other in proc.items:
            if other is item:
                return base + offset
            if isinstance(other, MInstr):
                offset += 4
        return None

    def _emit(
        self,
        module_index: int,
        proc: SymbolicProc,
        *,
        action: str,
        pass_name: str,
        pc: int | None = None,
        before: object = "",
        after: object = "",
        reason: str = "",
        counter=None,
    ) -> None:
        """Record one decision on the attached trace.  ``before`` and
        ``after`` may be instructions.  Callers call only when tracing."""
        provenance.emit(
            self.trace,
            action=action,
            pass_name=pass_name,
            module=self.prog.modules[module_index].name,
            proc=proc.name,
            pc=pc,
            before=str(before),
            after=str(after),
            reason=reason,
            counter=counter,
            round_index=self.round_index,
        )

    # ---- round driver -----------------------------------------------------

    def run(self) -> PassCounters:
        return self.run_passes()

    def run_passes(
        self,
        *,
        canonicalize: bool = True,
        relax: bool = True,
        calls: bool = True,
        address_loads: bool = True,
        entry_setups: bool = True,
    ) -> PassCounters:
        """Run a subset of the round's passes, in canonical order.

        The partitioned driver (:mod:`repro.wpo`) splits one monolithic
        round into a serial prologue (canonicalize + relax), a parallel
        per-shard body (calls + address loads), and a serial epilogue
        (dead entry setups).  Running all five phases back to back is
        exactly the monolithic round.
        """
        if canonicalize and self.full:
            for index, module in enumerate(self.prog.modules):
                for proc in module.procs:
                    self._canonicalize_gp_pairs(index, proc)
        if relax and self.relax_slack is not None:
            # After canonicalization, so the candidate shapes (entry
            # pair at top, hence retarget + PV-load deletion) match
            # exactly what the calls pass will see.
            self._compute_relax()
        if calls or address_loads:
            indexed = [
                (module_index, proc, _ProcIndex(proc))
                for module_index, module in enumerate(self.prog.modules)
                for proc in module.procs
            ]
        if calls:
            for module_index, proc, index in indexed:
                self._optimize_calls(module_index, proc, index)
        if address_loads:
            for module_index, proc, index in indexed:
                self._optimize_address_loads(module_index, proc, index)
        if entry_setups and self.full:
            self._remove_dead_entry_setups()
        return self.counters

    # ---- span-dependent relaxation (layout subsystem) -----------------------

    def _compute_relax(self) -> None:
        """Run the optimistic jsr->bsr fixpoint over every direct site.

        Candidate shapes (retarget offset, PV-load deletability) mirror
        ``_convert_call_site``; any site the iterator misses simply
        keeps its conservative jsr, so a mismatch can only lose an
        optimization, never correctness.
        """
        from repro.layout.callgraph import iter_direct_call_sites

        sites = iter_direct_call_sites(self.prog.modules)
        self.relax_result = self._relax_sites(sites, self.trace)
        decisions = self.relax_result.decisions
        self.facts.extend(
            _site_fact("relax", site)
            for site in sites
            if not decisions[site.jsr.uid]
        )

    def _relax_sites(self, sites: list, trace: TraceLog | None):
        """The relaxation fixpoint over ``sites`` on this layout."""
        from repro.layout.relax import RelaxCandidate, relax_call_sites

        candidates = []
        indexes: dict[int, _ProcIndex] = {}  # by id() of the caller
        for site in sites:
            index = indexes.get(id(site.caller))
            if index is None:
                index = indexes[id(site.caller)] = _ProcIndex(site.caller)
            deletable, extra = self._relax_site_shape(site, index)
            candidates.append(RelaxCandidate(site, deletable, extra))
        return relax_call_sites(
            self.prog.modules,
            candidates,
            text_base=self.prog.layout.options.text_base,
            range_words=self.bsr_range_words,
            slack=self.relax_slack,
            trace=trace,
            round_index=self.round_index,
        )

    def _relax_site_shape(self, site, index: _ProcIndex) -> tuple[bool, int]:
        """(PV load deleted when converted, byte offset past entry).
        ``index`` indexes the caller."""
        callee = site.callee
        if not callee.uses_gp:
            skip = self.full
            extra = 0
        else:
            same_group = self.prog.group(site.callee_module) == self.prog.group(
                site.caller_module
            )
            skip = same_group and _entry_pair_at_top(callee) is not None
            extra = 8 if skip else 0
        deletable = False
        if skip and self.full:
            uses = index.uses_of(site.load.uid)
            others = [use for use in uses if use is not site.jsr]
            deletable = not others and not site.load.lit_escaped
        return deletable, extra

    # ---- GP pair canonicalization (OM-full only) ------------------------------

    def _canonicalize_gp_pairs(self, module_index: int, proc: SymbolicProc) -> None:
        """Move GPDISP pairs back to their logical position: entry pairs
        to the top of the procedure, post-call pairs directly after the
        call's return point.  Safe because nothing between the logical
        and scheduled position can read or write GP, PV, or RA."""
        items = proc.items
        ldahs: dict[int, MInstr] = {}
        ldas: list[MInstr] = []
        # Each base's anchor is the first label of that name; moving
        # instructions never adds or removes a label.
        anchors: dict[str, MLabel] = {}
        for item in items:
            if isinstance(item, MLabel):
                anchors.setdefault(item.name, item)
                continue
            if item.gpdisp_base is not None:
                ldahs[item.uid] = item
            if item.gpdisp_pair is not None:
                ldas.append(item)
        for ldah, lda in _pair_up(ldahs, ldas):
            base = ldah.gpdisp_base
            label = anchors.get(base)
            if label is None:
                continue
            anchor = items.index(label)
            if items[anchor + 1 : anchor + 3] == [ldah, lda]:
                continue
            old_pcs = [
                self._item_pc(module_index, proc, item) for item in (ldah, lda)
            ]
            for item in (lda, ldah):
                items.remove(item)
            anchor = items.index(label)
            items.insert(anchor + 1, ldah)
            items.insert(anchor + 2, lda)
            self.changed = True
            if self.trace is None:
                continue
            for item, old_pc in zip((ldah, lda), old_pcs):
                new_pc = self._item_pc(module_index, proc, item)
                self._emit(
                    module_index,
                    proc,
                    action="move",
                    pass_name="canonicalize",
                    pc=old_pc,
                    before=item.instr,
                    after=str(item.instr)
                    + (f" @ {new_pc:#x}" if new_pc is not None else ""),
                    reason=(
                        f"GP pair moved back to its logical position "
                        f"after label {base!r} (compile-time scheduling "
                        f"had hoisted it)"
                    ),
                )

    # ---- call optimization ------------------------------------------------------

    def _optimize_calls(
        self, module_index: int, proc: SymbolicProc, index: _ProcIndex
    ) -> None:
        # Map literal-load uid -> item, for PV loads.
        literal_items = {item.uid: item for item in index.literals}

        # Sites only ever convert themselves, so the jsrs found before
        # the first site are exactly the jsrs each visit would see.
        for item in index.jsrs:
            lituse = item.lituse
            if lituse is not None and lituse[1] == LituseKind.JSR:
                load = literal_items.get(lituse[0])
                if load is None or load.literal is None:
                    continue
                callee_name, addend = load.literal
                if addend:
                    continue
                self._convert_call_site(
                    module_index, proc, item, load, callee_name, index
                )
            else:
                # Indirect call: GP-reset handling only.
                self._maybe_drop_reset(module_index, proc, item, None, index)

    def _convert_call_site(
        self,
        module_index: int,
        proc: SymbolicProc,
        jsr: MInstr,
        load: MInstr,
        callee_name: str,
        index: _ProcIndex,
    ) -> None:
        prog = self.prog
        resolved = prog.callee_info(module_index, callee_name)
        if resolved is None:
            return
        callee_module, callee = resolved

        if self.relax_result is not None:
            # The relaxation fixpoint already decided this site exactly.
            if not self.relax_result.decisions.get(jsr.uid, False):
                return
        elif not self.bsr_site_in_range(
            module_index, proc.name, callee_module, callee.name
        ):
            return

        skip_ok = False
        target: tuple[str, int]
        if not callee.uses_gp:
            # No GP setup at all, so PV is never needed.  Recognizing
            # this requires per-procedure GP knowledge, which the
            # paper's OM-simple (destination lookup only, "no analysis
            # at all") does not apply — only OM-full drops the PV-load.
            skip_ok = self.full
            target = (callee.name, 0)
        else:
            same_group = prog.group(callee_module) == prog.group(module_index)
            pair = _entry_pair_at_top(callee)
            if same_group and pair is not None:
                # The GP pair is the first two instructions (OM-full put
                # it there; OM-simple only sees this when compile-time
                # scheduling happened to leave it in place).
                skip_ok = True
                label = _find_skip_label(callee)
                if label is None:
                    label = f"{callee.name}$skipgp"
                    insert_at = callee.items.index(pair[1]) + 1
                    callee.items.insert(insert_at, MLabel(label, is_target=True))
                target = (label, 0)
                if callee_module != module_index:
                    callee.export_labels.add(label)
            else:
                skip_ok = False
                target = (callee.name, 0)

        # Convert jsr -> bsr.  Without a retarget past the callee's GP
        # setup, the PV-load must stay: "the compiled code normally does
        # so anyway, because the called procedure needs the PV in order
        # to set up its value for GP" — so the lituse link survives too.
        before = jsr.instr
        jsr_pc = self._item_pc(module_index, proc, jsr)
        jsr.instr = Instruction.branch("bsr", Reg.RA, 0)
        jsr.branch = target
        jsr.hint = None
        self.counters.jsr_to_bsr += 1
        self.changed = True
        if self.trace is not None:
            self._emit(
                module_index,
                proc,
                action="convert",
                pass_name="calls",
                pc=jsr_pc,
                before=before,
                after=f"bsr ra, {target[0]}",
                reason=f"direct call to {callee.name!r} within bsr range",
                counter="jsr_to_bsr",
            )

        if skip_ok:
            index.drop_use(jsr)
            jsr.lituse = None
            remaining = index.uses_of(load.uid)
            if not remaining and not load.lit_escaped:
                self._kill(
                    module_index,
                    proc,
                    load,
                    index=index,
                    pass_name="calls",
                    reason=(
                        f"PV-load unnecessary: call retargeted past "
                        f"{callee.name!r}'s GP setup"
                    ),
                    extra_counter="pv_loads_removed",
                )
                self.counters.pv_loads_removed += 1
            self.counters.bsr_retargeted += 1
            if self.trace is not None:
                self._emit(
                    module_index,
                    proc,
                    action="retarget",
                    pass_name="calls",
                    pc=jsr_pc,
                    before=f"bsr ra, {callee.name}",
                    after=f"bsr ra, {target[0]}",
                    reason=(
                        "callee GP setup skipped: caller's GP is already "
                        "correct at the call site"
                        if callee.uses_gp
                        else "callee never establishes GP, PV is dead"
                    ),
                    counter="bsr_retargeted",
                )

        self._maybe_drop_reset(
            module_index, proc, jsr, (callee_module, callee), index
        )

    def bsr_site_in_range(
        self, caller_module: int, caller: str, callee_module: int, callee: str
    ) -> bool:
        """The one-shot range check for a direct call on this round's
        layout.  A site it declines is a layout fact."""
        try:
            caller_addr = self.prog.addr(caller_module, caller)
            callee_addr = self.prog.addr(callee_module, callee)
        except LinkError:
            return False
        if bsr_reaches(caller_addr, callee_addr, self.bsr_range_words):
            return True
        self.facts.append(("bsr", caller_module, caller, callee_module, callee))
        return False

    def _maybe_drop_reset(
        self,
        module_index: int,
        proc: SymbolicProc,
        call_item: MInstr,
        callee: tuple[int, SymbolicProc] | None,
        index: _ProcIndex,
    ) -> None:
        """Remove the GP-reset pair after a call when GP is provably
        unchanged across it."""
        prog = self.prog
        if prog.single_group():
            safe = True
        elif callee is not None:
            callee_module, callee_proc = callee
            same = prog.group(callee_module) == prog.group(module_index)
            safe = same and (callee_proc.uses_gp or _is_reset_free_leaf(callee_proc))
        else:
            safe = False
        if not safe:
            if callee is None and self._reset_pair(proc, call_item, index):
                # Kept only because the layout has more than one GAT
                # group.  (A converted call is a bsr, which no later
                # round revisits.)
                self.facts.append(("reset", module_index, proc.name))
            return

        pair = self._reset_pair(proc, call_item, index)
        if pair is None:
            return
        callee_name = callee[1].name if callee is not None else "<indirect>"
        reason = f"GP provably unchanged across call to {callee_name}"
        self._kill(
            module_index, proc, pair[0], index=index,
            pass_name="gp-resets", reason=reason,
            extra_counter="gp_resets_removed",
        )
        self._kill(
            module_index, proc, pair[1], index=index,
            pass_name="gp-resets", reason=reason,
        )
        self.counters.gp_resets_removed += 1
        self.changed = True

    @staticmethod
    def _reset_pair(
        proc: SymbolicProc, call_item: MInstr, index: _ProcIndex
    ) -> tuple[MInstr, MInstr] | None:
        """The GP-reset pair based at the label directly after the call
        (its return point), if there is one."""
        items = proc.items
        after = items.index(call_item) + 1
        if after < len(items) and isinstance(items[after], MLabel):
            return index.pair_with_base(items[after].name)
        return None

    # ---- address-load optimization ----------------------------------------------

    def _optimize_address_loads(
        self, module_index: int, proc: SymbolicProc, index: _ProcIndex
    ) -> None:
        prog = self.prog
        gp = prog.gp(module_index)
        # Visiting a literal edits only it and its own uses, so each
        # literal's uses are read once, when the pass reaches it.
        for item in list(index.literals):  # snapshot: kills forget items
            uses = index.uses_of(item.uid)
            if any(kind == LituseKind.JSR for __, kind in (u.lituse for u in uses)):
                continue  # unconverted call site keeps its PV load
            symbol, addend = item.literal
            try:
                target = prog.addr(module_index, symbol, addend)
            except LinkError:
                continue
            d = target - gp

            if not item.lit_escaped:
                offsets = [use.instr.disp for use in uses]
                if not uses:
                    # Dead address load.
                    self._kill(
                        module_index, proc, item, index=index,
                        pass_name="address-loads",
                        reason=f"address load of {symbol!r} has no remaining uses",
                        extra_counter="loads_nullified",
                    )
                    self.counters.loads_nullified += 1
                    self.changed = True
                    continue
                if gp_rebases(d, offsets):
                    # Nullify: every use is rebased directly onto GP.
                    for use, off in zip(uses, offsets):
                        before = use.instr
                        use_pc = self._item_pc(module_index, proc, use)
                        use.instr = use.instr.replace(rb=int(Reg.GP), disp=0)
                        use.gprel = ("gprel16", symbol, addend + off, 0)
                        use.lituse = None
                        if self.trace is not None:
                            self._emit(
                                module_index, proc,
                                action="convert", pass_name="address-loads",
                                pc=use_pc, before=before, after=use.instr,
                                reason=(
                                    f"use rebased directly onto GP "
                                    f"(d={d + off:+d} within 16-bit window)"
                                ),
                            )
                    self._kill(
                        module_index, proc, item, index=index,
                        pass_name="address-loads",
                        reason=(
                            f"address load of {symbol!r} nullified: every "
                            f"use rebased onto GP (d={d:+d})"
                        ),
                        extra_counter="loads_nullified",
                    )
                    self.counters.loads_nullified += 1
                    self.changed = True
                    continue
                if shares_one_high(offsets):
                    # Convert to LDAH; uses get the low halves.  The
                    # group id only has to be unique within the module
                    # (relocation matches high/low parts per module);
                    # the load's own uid is, and — unlike a counter
                    # reset per round — can never collide with a group
                    # made in an earlier round or another worker.
                    # Reassembly renumbers the ids densely, so they
                    # never reach the object file.
                    group = item.uid
                    dst = item.instr.ra
                    before = item.instr
                    item_pc = self._item_pc(module_index, proc, item)
                    item.instr = Instruction.mem("ldah", dst, Reg.GP, 0)
                    item.literal = None
                    item.lit_escaped = False
                    item.gprel = ("gprelhigh", symbol, addend, group)
                    for use, off in zip(uses, offsets):
                        use_before = use.instr
                        use_pc = self._item_pc(module_index, proc, use)
                        use.instr = use.instr.replace(disp=0)
                        use.gprel = ("gprellow", symbol, addend + off, group)
                        use.lituse = None
                        if self.trace is not None:
                            self._emit(
                                module_index, proc,
                                action="convert", pass_name="address-loads",
                                pc=use_pc, before=use_before, after=use.instr,
                                reason=f"use takes the low half of {symbol!r}",
                            )
                    self.counters.loads_converted += 1
                    self.changed = True
                    if self.trace is not None:
                        self._emit(
                            module_index, proc,
                            action="convert", pass_name="address-loads",
                            pc=item_pc, before=before, after=item.instr,
                            reason=(
                                f"GAT load of {symbol!r} converted to a "
                                f"shared ldah high half (d={d:+d} beyond "
                                f"direct window)"
                            ),
                            counter="loads_converted",
                        )
                    continue
                # The split depends on the uses alone, so only the GP
                # window can take this load in a later round.
                self.facts.append(
                    ("nullify", module_index, symbol, addend, tuple(offsets))
                )
                continue

            # Escaped literal: the register must hold the exact address.
            if gp_reaches(d):
                dst = item.instr.ra
                before = item.instr
                item_pc = self._item_pc(module_index, proc, item)
                item.instr = Instruction.mem("lda", dst, Reg.GP, 0)
                item.literal = None
                item.lit_escaped = False
                item.gprel = ("gprel16", symbol, addend, 0)
                for use in uses:
                    use.lituse = None
                self.counters.loads_converted += 1
                self.changed = True
                if self.trace is not None:
                    self._emit(
                        module_index, proc,
                        action="convert", pass_name="address-loads",
                        pc=item_pc, before=before, after=item.instr,
                        reason=(
                            f"escaped GAT load of {symbol!r} materialized "
                            f"with a single lda (d={d:+d} in 16-bit window)"
                        ),
                        counter="loads_converted",
                    )
            elif self.convert_escaped:
                # Replace the load with an exact ldah+lda pair (2-for-1;
                # only OM-full may change instruction counts).
                group = item.uid
                dst = item.instr.ra
                before = item.instr
                item_pc = self._item_pc(module_index, proc, item)
                item.instr = Instruction.mem("ldah", dst, Reg.GP, 0)
                item.literal = None
                item.lit_escaped = False
                item.gprel = ("gprelhigh", symbol, addend, group)
                lda = MInstr(
                    Instruction.mem("lda", dst, dst, 0),
                    gprel=("gprellow", symbol, addend, group),
                )
                proc.items.insert(proc.items.index(item) + 1, lda)
                for use in uses:
                    use.lituse = None
                self.counters.loads_converted += 1
                self.changed = True
                if self.trace is not None:
                    self._emit(
                        module_index, proc,
                        action="convert", pass_name="address-loads",
                        pc=item_pc, before=before,
                        after=f"{item.instr}; {lda.instr}",
                        reason=(
                            f"far escaped GAT load of {symbol!r} replaced "
                            f"with an exact ldah+lda pair (2-for-1 ablation)"
                        ),
                        counter="loads_converted",
                    )
            else:
                self.facts.append(("escaped", module_index, symbol, addend))

    # ---- entry GP-setup removal (OM-full) -----------------------------------------

    def _remove_dead_entry_setups(self) -> None:
        prog = self.prog
        removals = dead_entry_setups(
            prog.entry,
            [entry_facts(module) for module in prog.modules],
            prog.address_taken,
            self.facts,
        )
        for module_index, name in removals:
            self.remove_entry_setup(
                module_index, prog.modules[module_index].proc_named(name)
            )

    def remove_entry_setup(self, module_index: int, proc: SymbolicProc) -> None:
        """Delete a procedure's entry GP setup, which
        :func:`dead_entry_setups` found dead."""
        pair = _entry_pair_at_top(proc)
        reason = (
            "every remaining entry arrives with the correct GP "
            "already established"
        )
        self._kill(
            module_index, proc, pair[0],
            pass_name="entry-setups", reason=reason,
            extra_counter="entry_setups_removed",
        )
        self._kill(
            module_index, proc, pair[1],
            pass_name="entry-setups", reason=reason,
        )
        self.counters.entry_setups_removed += 1
        self.changed = True

    # ---- kill helper ---------------------------------------------------------------

    def _kill(
        self,
        module_index: int,
        proc: SymbolicProc,
        item: MInstr,
        *,
        index: _ProcIndex | None = None,
        pass_name: str = "",
        reason: str = "",
        extra_counter: str | None = None,
    ) -> None:
        before = item.instr
        pc = self._item_pc(module_index, proc, item)
        if index is not None:
            index.forget(item)
        if self.full:
            proc.items.remove(item)
            self.counters.instructions_deleted += 1
            counter = ["instructions_deleted"]
            action, after = "delete", "(deleted)"
        else:
            _nullify(item)
            self.counters.instructions_nulled += 1
            counter = ["instructions_nulled"]
            action, after = "nullify", item.instr
        if self.trace is None:
            return
        if extra_counter is not None:
            counter.append(extra_counter)
        self._emit(
            module_index, proc,
            action=action, pass_name=pass_name or "kill",
            pc=pc, before=before, after=after, reason=reason,
            counter=counter,
        )


def _site_fact(reason: str, site) -> tuple:
    return (
        reason, site.caller_module, site.caller.name,
        site.callee_module, site.callee.name,
    )


def _is_reset_free_leaf(proc: SymbolicProc) -> bool:
    """A procedure that cannot change GP (no gpdisp pairs, no calls)."""
    for item in proc.items:
        if isinstance(item, MLabel):
            continue
        if item.gpdisp_base is not None or item.gpdisp_pair is not None:
            return False
        op = item.instr.op
        if op is _JSR or op is _BSR:
            return False
    return True


def entry_facts(module: SymbolicModule) -> tuple[set[str], tuple[str, ...]]:
    """What the entry-setup pass reads from one module: the names its
    code and data still reference (literals, branch and hint targets,
    data references that name no label), and, in procedure order, the
    procedures whose entry GP setup it may remove (they use GP and
    their GPDISP pair sits at the top)."""
    blocked = {ref.symbol for ref in module.data_refs if ref.label is None}
    candidates = []
    for proc in module.procs:
        for item in proc.items:
            if isinstance(item, MLabel):
                continue
            if item.literal is not None:
                blocked.add(item.literal[0])
            if item.branch is not None:
                blocked.add(item.branch[0])
            if item.hint is not None:
                blocked.add(item.hint)
        if proc.uses_gp and _entry_pair_at_top(proc) is not None:
            candidates.append(proc.name)
    return blocked, tuple(candidates)


def dead_entry_setups(
    entry: str,
    facts: list[tuple[set[str], tuple[str, ...]]],
    address_taken: set[str],
    layout_facts: list[tuple],
) -> list[tuple[int, str]]:
    """The entry GP setups that can go, as (module index, procedure),
    from every module's :func:`entry_facts`.

    A procedure's entry GP-setup can go only when every remaining entry
    arrives with the correct GP already established: no address-taken
    uses, no surviving literals (unconverted call sites), no stored
    entry pointers, and no branch to the entry label itself (skip-label
    branches land past the pair).  A setup kept only because the
    procedure was address-taken when the round began, though no
    reference that takes it survives, is a layout fact: the next
    round's address-taken set drops it.
    """
    blocked = {entry}
    for names, __ in facts:
        blocked.update(names)
    removals = []
    for module_index, (__, candidates) in enumerate(facts):
        for name in candidates:
            if name in blocked:
                continue
            if name in address_taken:
                layout_facts.append(("address-taken", module_index, name))
                continue
            removals.append((module_index, name))
    return removals


# -- the round loop and its convergence certificate ---------------------------

#: Why a round declined a candidate because of the layout: the first
#: field of every layout fact a :class:`Transformer` records.
#:
#: * ``escaped`` — an escaped literal outside :func:`gp_reaches`;
#: * ``nullify`` — a load neither nullified nor split (the split
#:   depends on its uses alone, so only the GP window can take it);
#: * ``bsr`` — a direct call that failed :func:`bsr_reaches`;
#: * ``relax`` — a direct call the relaxation fixpoint demoted;
#: * ``reset`` — a GP reset kept after an indirect ``jsr`` because the
#:   layout has more than one GAT group;
#: * ``address-taken`` — an entry GP setup kept only because the
#:   procedure was address-taken when the round began.
FACT_REASONS = ("escaped", "nullify", "bsr", "relax", "reset", "address-taken")


def lay_out(
    modules: list[SymbolicModule], options: LayoutOptions
) -> tuple[Layout, list[Placement]]:
    """Lay the program out as the finish will, from one placement per
    module; both stay valid until a module changes."""
    placements = [place_module(module) for module in modules]
    objs = [
        layout_object(module, placement)
        for module, placement in zip(modules, placements)
    ]
    return compute_layout(resolve_inputs(objs, []), options), placements


def flipped_facts(
    prog: Program,
    facts: list[tuple],
    *,
    full: bool,
    relax_slack: int | None = None,
    bsr_range_words: int = BRANCH_REACH_WORDS,
) -> list[tuple]:
    """The layout facts of a round that ``prog.layout``, the layout after
    it, flips: the declined candidates the next round would take.

    None flipped means the next round would change nothing.  Each fact
    is re-checked with the predicate that declined it.  The demoted call
    sites are re-decided together: they are the direct calls the round
    left, and the next round's fixpoint runs over exactly those.
    """
    checker = Transformer(
        prog, full=full, relax_slack=relax_slack, bsr_range_words=bsr_range_words
    )
    flipped: list[tuple] = []
    demoted = False
    for fact in facts:
        reason = fact[0]
        if reason == "relax":
            demoted = True
        elif reason == "bsr":
            if checker.bsr_site_in_range(*fact[1:]):
                flipped.append(fact)
        elif reason == "reset":
            if prog.single_group():
                flipped.append(fact)
        elif reason == "address-taken":
            flipped.append(fact)
        else:
            module_index, symbol, addend = fact[1:4]
            try:
                d = prog.addr(module_index, symbol, addend) - prog.gp(module_index)
            except LinkError:
                continue
            if (
                gp_reaches(d)
                if reason == "escaped"
                else gp_rebases(d, fact[4])
            ):
                flipped.append(fact)
    if demoted:
        from repro.layout.callgraph import iter_direct_call_sites

        sites = iter_direct_call_sites(prog.modules)
        decisions = checker._relax_sites(sites, None).decisions
        flipped.extend(
            _site_fact("relax", site) for site in sites if decisions[site.jsr.uid]
        )
    return flipped


def _describe_fact(modules: list[SymbolicModule], fact: tuple) -> str:
    reason = fact[0]
    if reason in ("bsr", "relax"):
        caller_module, caller, __, callee = fact[1:]
        return f"{reason} {modules[caller_module].name}:{caller} -> {callee}"
    detail = " ".join(str(part) for part in fact[2:])
    return f"{reason} {modules[fact[1]].name} {detail}"


@dataclass
class Rounds:
    """How the transformation rounds ended."""

    #: The layout of the modules as the rounds left them, and the
    #: placements it was laid out from (``None`` for a module laid out
    #: from an object); ``None`` when the last round allowed changed
    #: something, which nothing re-checks.
    layout: Layout | None
    placements: list[Placement | None] | None
    rounds: int
    #: The certificate, not a round that changed nothing, ended them:
    #: another round was allowed and skipped.
    certified: bool = False
    #: The layout round 0 ran on: the program as it was given.
    first_layout: Layout | None = None


def run_rounds(
    modules: list[SymbolicModule | None],
    run_round,
    *,
    max_rounds: int,
    lay_out,
    full: bool,
    relax_slack: int | None = None,
    bsr_range_words: int = BRANCH_REACH_WORDS,
    trace: TraceLog | None = None,
) -> Rounds:
    """Run ``run_round(round_index, layout)`` until the program converges.

    ``run_round`` transforms ``modules`` in place on the layout it is
    given and returns whether it changed anything and the layout facts
    it recorded.  ``lay_out()`` lays the program out as it stands and
    returns the layout and each module's placement (see :func:`lay_out`).
    After a round that changed something, and another round is allowed,
    the program is laid out once more; the next round, or the finish,
    uses that layout.  Another round runs only when the new layout
    flips one of the facts.  A traced link records one ``om.converged``
    event per check.  The partitioned driver leaves ``None`` in
    ``modules`` for a module whose body it has not built; the facts of
    such a link need only the layout.
    """
    layout, placements = lay_out()
    first = layout
    for round_index in range(max_rounds):
        changed, facts = run_round(round_index, layout)
        if not changed:
            return Rounds(layout, placements, round_index + 1,
                          first_layout=first)
        if round_index + 1 == max_rounds:
            break
        layout, placements = lay_out()
        flipped = flipped_facts(
            Program(modules, layout),
            facts,
            full=full,
            relax_slack=relax_slack,
            bsr_range_words=bsr_range_words,
        )
        if trace is not None:
            checked = {reason: 0 for reason in FACT_REASONS}
            for fact in facts:
                checked[fact[0]] += 1
            trace.event(
                "om.converged",
                cat="om",
                round=round_index,
                checked=checked,
                flipped=[_describe_fact(modules, fact) for fact in flipped],
                converged=not flipped,
            )
        if not flipped:
            return Rounds(layout, placements, round_index + 1, certified=True,
                          first_layout=first)
    return Rounds(None, None, max_rounds, first_layout=first)
