"""OM's optional link-time rescheduling pass.

Re-runs basic-block list scheduling on the transformed code — the
original compile-time schedule was computed in the presence of address
loads that OM has since removed — and quadword-aligns instructions that
are the targets of backward branches, "intended to improve the behavior
of the AXP's dual-issue and cache" (the paper found the payoff small,
and negative for ``ear``; the alignment knob exists for that ablation).

With a :class:`~repro.obs.trace.TraceLog` attached, every procedure
whose instruction order changed emits a ``move`` provenance event (how
many instructions were repositioned), and every alignment decision
emits its own event.
"""

from __future__ import annotations

from repro.minicc.mcode import MInstr, MLabel
from repro.minicc.sched import schedule_items
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om.symbolic import SymbolicModule


def om_schedule(
    modules: list[SymbolicModule],
    *,
    align_loop_targets: bool = True,
    trace: TraceLog | None = None,
) -> None:
    """Schedule every procedure, in place."""
    for module in modules:
        for proc in module.procs:
            # The compile-time order matters only to a ``move`` event.
            before_order = (
                [item.uid for item in proc.items if isinstance(item, MInstr)]
                if trace is not None
                else None
            )
            proc.items = schedule_items(proc.items)
            if before_order is not None:
                after_order = [
                    item.uid for item in proc.items if isinstance(item, MInstr)
                ]
                moved = sum(
                    1
                    for index, uid in enumerate(after_order)
                    if index >= len(before_order) or before_order[index] != uid
                )
                if moved:
                    provenance.emit(
                        trace,
                        action="move",
                        pass_name="sched",
                        module=module.name,
                        proc=proc.name,
                        pc=None,
                        before=f"{len(before_order)} instructions (compile-time order)",
                        after=f"{moved} instructions repositioned",
                        reason=(
                            "link-time list rescheduling after OM removed "
                            "address-calculation code"
                        ),
                    )
            if align_loop_targets:
                _mark_backward_targets(proc.items, trace, module.name, proc.name)


def _mark_backward_targets(
    items, trace: TraceLog | None = None, module: str = "", proc: str = ""
) -> None:
    """Quadword-align labels targeted by backward branches."""
    seen: dict[str, MLabel] = {}
    for item in items:
        if isinstance(item, MLabel):
            seen[item.name] = item
        elif isinstance(item, MInstr) and item.branch is not None:
            label = seen.get(item.branch[0])
            if label is not None:
                if label.align != 8:
                    provenance.emit(
                        trace,
                        action="move",
                        pass_name="sched",
                        module=module,
                        proc=proc,
                        pc=None,
                        before=f"label {label.name!r}",
                        after=f"label {label.name!r} (align=8)",
                        reason="backward-branch target quadword-aligned",
                    )
                label.align = 8
