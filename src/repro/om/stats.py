"""Static measurement collection — the numerators and denominators of
the paper's Figures 3, 4, and 5 and the GAT-reduction statistic."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.isa.opcodes import OPS, Format
from repro.isa.registers import Reg
from repro.minicc.mcode import MLabel
from repro.objfile.relocations import LituseKind
from repro.om.symbolic import SymbolicModule


@dataclass
class CodeCounts:
    """Counts over one snapshot of the program's symbolic form."""

    instructions: int = 0
    nops: int = 0
    addr_loads: int = 0  # surviving GAT address loads (incl. PV loads)
    pv_loads: int = 0  # call sites still loading PV from the GAT
    gp_resets: int = 0  # call sites still resetting GP afterwards
    calls: int = 0  # all call sites (jsr or call-shaped bsr)
    indirect_calls: int = 0


_JSR = OPS["jsr"]
_BSR = OPS["bsr"]
_LDA, _LDAH, _LDQ_U = OPS["lda"], OPS["ldah"], OPS["ldq_u"]
_OPERATE = Format.OPERATE
_ZERO = int(Reg.ZERO)


class ModuleCounts(NamedTuple):
    """One module's share of :class:`CodeCounts`.

    A ``bsr`` is a call only when it branches to some procedure's entry
    or its ``$postgp``/``$skipgp`` label, and that set spans every
    module, so a module records its ``bsr`` targets, not a call count.
    """

    instructions: int
    nops: int
    addr_loads: int
    pv_loads: int
    gp_resets: int
    jsrs: int
    indirect_calls: int
    bsr_targets: tuple


def module_counts(module: SymbolicModule) -> ModuleCounts:
    """Measure one module (one pass over its items).

    Ops are tested by identity: a nop is an operate instruction writing
    ZERO, or ``lda``/``ldah``/``ldq_u`` writing ZERO
    (``Instruction.is_nop``); a call is a ``jsr``, or a ``bsr`` to a
    procedure entry or its ``$postgp``/``$skipgp`` label.
    """
    instructions = nops = addr_loads = pv_loads = 0
    gp_resets = jsrs = indirect_calls = 0
    bsr_targets: list[str] = []
    jsr_kind = LituseKind.JSR
    for proc in module.procs:
        name = proc.name
        literal_uids: set[int] = set()
        jsr_uses: set[int] = set()
        for item in proc.items:
            if isinstance(item, MLabel):
                continue
            instructions += 1
            instr = item.instr
            op = instr.op
            if op.format is _OPERATE:
                if instr.rc == _ZERO:
                    nops += 1
            elif op is _LDA or op is _LDAH or op is _LDQ_U:
                if instr.ra == _ZERO:
                    nops += 1
            if item.literal is not None:
                addr_loads += 1
                literal_uids.add(item.uid)
            lituse = item.lituse
            if lituse is not None and lituse[1] == jsr_kind:
                jsr_uses.add(lituse[0])
            base = item.gpdisp_base
            if base is not None and base != name:
                gp_resets += 1
            if op is _JSR:
                jsrs += 1
                if lituse is None:
                    # Calls through procedure variables always need
                    # PV established; no optimization level removes
                    # this.
                    pv_loads += 1
                    indirect_calls += 1
            elif op is _BSR:
                branch = item.branch
                if branch is not None:
                    bsr_targets.append(branch[0])
        # Literal loads a direct jsr in the procedure still uses.
        pv_loads += len(literal_uids & jsr_uses)
    return ModuleCounts(
        instructions, nops, addr_loads, pv_loads, gp_resets, jsrs,
        indirect_calls, tuple(bsr_targets),
    )


def total_counts(
    counts: Iterable[ModuleCounts], proc_names: Iterable[str]
) -> CodeCounts:
    """The program's counts from each module's, given the names of
    every procedure in the program."""
    call_labels: set[str] = set()
    for name in proc_names:
        call_labels.update((name, f"{name}$postgp", f"{name}$skipgp"))
    total = CodeCounts()
    for part in counts:
        total.instructions += part.instructions
        total.nops += part.nops
        total.addr_loads += part.addr_loads
        total.pv_loads += part.pv_loads
        total.gp_resets += part.gp_resets
        total.calls += part.jsrs + sum(
            map(call_labels.__contains__, part.bsr_targets)
        )
        total.indirect_calls += part.indirect_calls
    return total


def count_code(modules: list[SymbolicModule]) -> CodeCounts:
    """Measure the current symbolic form (one pass over every item)."""
    return total_counts(
        [module_counts(module) for module in modules],
        (proc.name for module in modules for proc in module.procs),
    )


@dataclass
class OMStats:
    """Before/after measurements of one OM link."""

    level: str
    before: CodeCounts = field(default_factory=CodeCounts)
    after: CodeCounts = field(default_factory=CodeCounts)
    loads_converted: int = 0
    loads_nullified: int = 0
    gat_bytes_before: int = 0
    gat_bytes_after: int = 0
    text_bytes_before: int = 0
    text_bytes_after: int = 0
    # Layout subsystem telemetry (zero unless the PGO knobs are on).
    procs_moved: int = 0  # procedures repositioned by Pettis-Hansen
    relax_iterations: int = 0  # the last round's fixpoint passes
    relax_demoted: int = 0  # its optimistic bsr sites demoted to jsr

    # -- the paper's derived fractions ------------------------------------

    @property
    def frac_loads_converted(self) -> float:
        """Fig. 3, dark bars: address loads converted to lda/ldah."""
        return self.loads_converted / max(self.before.addr_loads, 1)

    @property
    def frac_loads_nullified(self) -> float:
        """Fig. 3, light bars: address loads nullified or deleted."""
        return self.loads_nullified / max(self.before.addr_loads, 1)

    @property
    def frac_loads_removed(self) -> float:
        return self.frac_loads_converted + self.frac_loads_nullified

    @property
    def frac_calls_with_pv_load(self) -> float:
        """Fig. 4 top: fraction of calls still requiring a PV-load."""
        return self.after.pv_loads / max(self.before.calls, 1)

    @property
    def frac_calls_with_gp_reset(self) -> float:
        """Fig. 4 bottom: fraction of calls still requiring GP-reset."""
        return self.after.gp_resets / max(self.before.calls, 1)

    @property
    def frac_instructions_nullified(self) -> float:
        """Fig. 5: fraction of instructions nullified (or deleted)."""
        removed = (self.before.instructions - self.after.instructions) + (
            self.after.nops - self.before.nops
        )
        return removed / max(self.before.instructions, 1)

    @property
    def gat_shrink_ratio(self) -> float:
        """GAT size after OM as a fraction of the original (§5.1)."""
        return self.gat_bytes_after / max(self.gat_bytes_before, 1)
