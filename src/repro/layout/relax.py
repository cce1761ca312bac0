"""Span-dependent relaxation for optimistic ``jsr`` -> ``bsr``.

OM's one-shot range check forfeits any conversion within 64KB of the
21-bit displacement limit, because conversions elsewhere may shrink or
(with rescheduling) grow the text between call and callee.  This module
replaces that slack with an exact fixpoint in the style of span-
dependent branch relaxation run backwards: start *optimistic* — every
direct call converts and every then-dead PV load is deleted — then
repeatedly model the resulting addresses and demote the sites whose
displacement falls outside the range.  Demotion revives the site's PV
load, which can push *other* sites out of range, so the loop iterates.
Every wave but the last demotes a site and none is ever promoted
again, so the loop ends within ``candidates + 1`` waves, each of which
models every address once (Dickson's jump encoding reaches the same
answer in linear time).

The model only has to be conservative against *growth*: all the
transformations that run after the decisions (PV-load and GP-reset
deletion, nullification) shrink every span, and the two that can grow
code (rescheduling's alignment padding, the escaped 2-for-1 ablation)
are covered by a slack the driver adds when those knobs are on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.ranges import BRANCH_REACH_WORDS, branch_window
from repro.layout.callgraph import CallSite
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om.symbolic import SymbolicModule, place_module


@dataclass
class RelaxCandidate:
    """One optimistic conversion and its modelled size effect."""

    site: CallSite
    deletable: bool  # PV load disappears when the site converts
    target_extra: int  # byte offset past callee entry (GP-setup skip)


@dataclass
class RelaxResult:
    """The fixpoint's decisions plus its convergence telemetry."""

    decisions: dict[int, bool] = field(default_factory=dict)  # jsr uid
    #: Address models run: the demoting waves plus the clean one.
    iterations: int = 0
    demoted: int = 0


def _model_addresses(
    modules: list[SymbolicModule], text_base: int, deleted: set[int]
) -> tuple[dict[int, int], dict[tuple[int, str], int]]:
    """Tentative instruction and procedure-entry addresses.

    Each module's placement, with the ``deleted`` instructions taking
    no space, at the 16-aligned base ``compute_layout`` gives its text.
    The only label alignment (8) divides 16, so placing relative to the
    module start agrees with aligning absolute addresses.
    """
    addr_of: dict[int, int] = {}
    entries: dict[tuple[int, str], int] = {}
    cursor = text_base
    for module_index, module in enumerate(modules):
        base = -(-cursor // 16) * 16
        placement = place_module(module, deleted)
        for uid, offset in placement.uid_offset.items():
            addr_of[uid] = base + offset
        for name, (start, __) in placement.proc_bounds.items():
            entries[(module_index, name)] = base + start
        cursor = base + placement.text_size
    return addr_of, entries


def relax_call_sites(
    modules: list[SymbolicModule],
    candidates: list[RelaxCandidate],
    *,
    text_base: int,
    range_words: int = BRANCH_REACH_WORDS,
    slack: int = 0,
    trace: TraceLog | None = None,
    round_index: int = 0,
) -> RelaxResult:
    """Decide, per call site, whether the optimistic bsr stays legal.

    ``slack`` bytes of modelled growth come off either end of the
    ``range_words`` reach."""
    decisions = {c.site.jsr.uid: True for c in candidates}
    result = RelaxResult(decisions=decisions)
    lo, hi = branch_window(range_words, slack)

    while True:
        result.iterations += 1
        demoted = result.demoted
        deleted = {
            c.site.load.uid
            for c in candidates
            if c.deletable and decisions[c.site.jsr.uid]
        }
        addr_of, entries = _model_addresses(modules, text_base, deleted)
        for c in candidates:
            site = c.site
            if not decisions[site.jsr.uid]:
                continue
            pc = addr_of.get(site.jsr.uid)
            entry = entries.get((site.callee_module, site.callee.name))
            disp = None
            if pc is not None and entry is not None:
                disp = (entry + c.target_extra - (pc + 4)) // 4
                if lo <= disp <= hi:
                    continue
            decisions[site.jsr.uid] = False
            result.demoted += 1
            if trace is not None:
                provenance.emit(
                    trace,
                    action="relax",
                    pass_name="relax",
                    module=modules[site.caller_module].name,
                    proc=site.caller.name,
                    pc=pc,
                    before=f"bsr ra, {site.callee.name}",
                    after=f"jsr ra, ({site.callee.name})",
                    reason=(
                        f"wave {result.iterations}: displacement "
                        f"{disp if disp is not None else '?'} words outside "
                        f"[{lo}, {hi}]"
                    ),
                    round_index=round_index,
                )
        if result.demoted == demoted:
            break

    kept = sum(1 for value in decisions.values() if value)
    provenance.emit(
        trace,
        action="relax",
        pass_name="relax",
        module="<program>",
        proc="<fixpoint>",
        pc=None,
        before=f"{len(candidates)} optimistic bsr candidates",
        after=f"{kept} kept, {result.demoted} demoted",
        reason=(
            f"span-dependent relaxation converged "
            f"in {result.iterations} iteration(s)"
        ),
        round_index=round_index,
    )
    return result
