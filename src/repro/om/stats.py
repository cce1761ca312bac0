"""Static measurement collection — the numerators and denominators of
the paper's Figures 3, 4, and 5 and the GAT-reduction statistic."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.minicc.mcode import MInstr
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


def count_code(modules: list[SymbolicModule]) -> CodeCounts:
    """Measure the current symbolic form (one pass over every item)."""
    counts = CodeCounts()
    call_labels: set[str] = set()
    for module in modules:
        for proc in module.procs:
            call_labels.update(
                (proc.name, f"{proc.name}$postgp", f"{proc.name}$skipgp")
            )

    for module in modules:
        for proc in module.procs:
            literal_uids: set[int] = set()
            jsr_uses: set[int] = set()
            for item in proc.items:
                if not isinstance(item, MInstr):
                    continue
                counts.instructions += 1
                instr = item.instr
                if instr.is_nop:
                    counts.nops += 1
                if item.literal is not None:
                    counts.addr_loads += 1
                    literal_uids.add(item.uid)
                if item.lituse is not None and item.lituse[1] == LituseKind.JSR:
                    jsr_uses.add(item.lituse[0])
                if item.gpdisp_base is not None and item.gpdisp_base != proc.name:
                    counts.gp_resets += 1
                if instr.is_jump and instr.op.name == "jsr":
                    counts.calls += 1
                    if item.lituse is None:
                        # Calls through procedure variables always need
                        # PV established; no optimization level removes
                        # this.
                        counts.pv_loads += 1
                        counts.indirect_calls += 1
                elif (
                    instr.is_branch
                    and instr.op.name == "bsr"
                    and item.branch is not None
                    and item.branch[0] in call_labels
                ):
                    counts.calls += 1
            # Literal loads a direct jsr in the procedure still uses.
            counts.pv_loads += len(literal_uids & jsr_uses)
    return counts


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
    relax_iterations: int = 0  # fixpoint passes, summed over rounds
    relax_demoted: int = 0  # optimistic bsr sites demoted back to jsr

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
