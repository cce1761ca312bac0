"""Span-dependent relaxation for optimistic ``jsr`` -> ``bsr``.

OM's one-shot range check forfeits any conversion within 64KB of the
21-bit displacement limit, because conversions elsewhere may shrink or
(with rescheduling) grow the text between call and callee.  This module
replaces that slack with an exact fixpoint in the style of span-
dependent branch relaxation run backwards (Dickson's linear-time jump
encoding): start *optimistic* — every direct call converts and every
then-dead PV load is deleted — then repeatedly model the resulting
addresses and demote the sites whose displacement falls outside the
range.  Demotion revives the site's PV load, which can push *other*
sites out of range, so the loop iterates; each wave demotes at least
one site, so it converges within ``candidates + 1`` iterations.  An
explicit iteration bound backstops the theory: if it is ever hit, every
still-optimistic site is demoted, which is trivially safe.

The model only has to be conservative against *growth*: all the
transformations that run after the decisions (PV-load and GP-reset
deletion, nullification) shrink every span, and the two that can grow
code (rescheduling's alignment padding, the escaped 2-for-1 ablation)
are covered by a slack the driver adds when those knobs are on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.layout.callgraph import CallSite
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om.symbolic import SymbolicModule, place_module

#: The legal bsr word displacement is a signed 21-bit field.
BSR_RANGE_WORDS = 1 << 20

#: Fixpoint ceiling; waves demote monotonically so real programs
#: converge in a handful of iterations (the bound is a backstop).
DEFAULT_MAX_ITERATIONS = 64


def bsr_disp_in_range(
    disp_words: int, range_words: int = BSR_RANGE_WORDS
) -> bool:
    """Is a word displacement encodable in the signed 21-bit field?"""
    return -range_words <= disp_words <= range_words - 1


@dataclass
class RelaxOptions:
    """Driver-level knobs threaded into the fixpoint."""

    range_words: int = BSR_RANGE_WORDS
    slack: int = 0  # bytes of modelled-growth headroom per decision
    max_iterations: int = DEFAULT_MAX_ITERATIONS


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
    candidates: int = 0
    iterations: int = 0
    waves: int = 0  # iterations that demoted at least one site
    demoted: int = 0
    converged: bool = True


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
    range_words: int = BSR_RANGE_WORDS,
    slack: int = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    trace: TraceLog | None = None,
    round_index: int = 0,
) -> RelaxResult:
    """Decide, per call site, whether the optimistic bsr stays legal."""
    decisions = {c.site.jsr.uid: True for c in candidates}
    result = RelaxResult(decisions=decisions, candidates=len(candidates))
    slack_words = -(-slack // 4)
    lo = -range_words + slack_words
    hi = range_words - 1 - slack_words

    stable = False
    while result.iterations < max_iterations and not stable:
        result.iterations += 1
        deleted = {
            c.site.load.uid
            for c in candidates
            if c.deletable and decisions[c.site.jsr.uid]
        }
        addr_of, entries = _model_addresses(modules, text_base, deleted)
        wave: list[tuple[RelaxCandidate, int | None, int | None]] = []
        for c in candidates:
            uid = c.site.jsr.uid
            if not decisions[uid]:
                continue
            pc = addr_of.get(uid)
            entry = entries.get((c.site.callee_module, c.site.callee.name))
            if pc is None or entry is None:
                decisions[uid] = False
                wave.append((c, pc, None))
                continue
            disp = (entry + c.target_extra - (pc + 4)) // 4
            if not lo <= disp <= hi:
                decisions[uid] = False
                wave.append((c, pc, disp))
        if wave:
            result.waves += 1
            result.demoted += len(wave)
            for c, pc, disp in wave:
                _emit_demotion(
                    trace, modules, c, pc, disp,
                    range_words, result.iterations, round_index,
                )
        else:
            stable = True

    if not stable:
        # Bound hit: conservatively demote every remaining optimist.
        result.converged = False
        for c in candidates:
            uid = c.site.jsr.uid
            if decisions[uid]:
                decisions[uid] = False
                result.demoted += 1
                _emit_demotion(
                    trace, modules, c, None, None,
                    range_words, result.iterations, round_index,
                    reason="iteration bound hit; demoting conservatively",
                )

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
            f"span-dependent relaxation "
            f"{'converged' if result.converged else 'hit its bound'} "
            f"in {result.iterations} iteration(s)"
        ),
        round_index=round_index,
    )
    return result


def _emit_demotion(
    trace: TraceLog | None,
    modules: list[SymbolicModule],
    candidate: RelaxCandidate,
    pc: int | None,
    disp: int | None,
    range_words: int,
    iteration: int,
    round_index: int,
    reason: str | None = None,
) -> None:
    site = candidate.site
    detail = reason or (
        f"wave {iteration}: displacement "
        f"{disp if disp is not None else '?'} words outside "
        f"[-{range_words}, {range_words - 1}]"
    )
    provenance.emit(
        trace,
        action="relax",
        pass_name="relax",
        module=modules[site.caller_module].name,
        proc=site.caller.name,
        pc=pc,
        before=f"bsr ra, {site.callee.name}",
        after=f"jsr ra, ({site.callee.name})",
        reason=detail,
        round_index=round_index,
    )
