"""Span-dependent relaxation: range window edges and the fixpoint.

The multi-wave tests build the symbolic program by hand so the modelled
displacements land exactly on the range boundary: a demotion in one
wave revives a PV load, which shifts a *different* site past the edge
in the next wave — the cascade the one-shot check cannot express.
"""

from repro.isa.instruction import Instruction
from repro.isa.ranges import BRANCH_REACH_WORDS, branch_window
from repro.layout.callgraph import CallSite
from repro.layout.relax import RelaxCandidate, relax_call_sites
from repro.minicc.mcode import MInstr
from repro.obs.trace import TraceLog
from repro.om.symbolic import SymbolicModule, SymbolicProc

#: A small range keeps the hand-built programs tiny; the arithmetic is
#: identical to the real 21-bit field.
R = 64


def test_disp_range_positive_edge():
    assert branch_window(BRANCH_REACH_WORDS)[1] == (1 << 20) - 1


def test_disp_range_negative_edge():
    assert branch_window(BRANCH_REACH_WORDS)[0] == -(1 << 20)


def test_disp_range_custom_width_both_signs():
    assert branch_window(R) == (-R, R - 1)
    assert branch_window(R, 1) == (-R + 1, R - 2)  # slack rounds up to words
    assert branch_window(R, 4) == (-R + 1, R - 2)
    assert branch_window(R, 5) == (-R + 2, R - 3)


def _instr():
    return MInstr(Instruction.nop())


def _proc(name, items):
    return SymbolicProc(name, items=list(items), exported=True)


def _forward_program(filler_words):
    """P[loadX,jsrX] Q[loadY,jsrY] F[filler] X[2] Y[2], one module.

    With both PV loads optimistically deleted (text base 0): jsrX at 0,
    jsrY at 4, X at ``8 + 4*filler``, Y eight bytes later, so the
    modelled word displacements are ``filler + 1`` (X) and
    ``filler + 2`` (Y).
    """
    load_x, jsr_x = _instr(), _instr()
    load_y, jsr_y = _instr(), _instr()
    p = _proc("P", [load_x, jsr_x])
    q = _proc("Q", [load_y, jsr_y])
    filler = _proc("F", [_instr() for __ in range(filler_words)])
    x = _proc("X", [_instr(), _instr()])
    y = _proc("Y", [_instr(), _instr()])
    module = SymbolicModule("m", procs=[p, q, filler, x, y])
    candidates = [
        RelaxCandidate(CallSite(0, p, jsr_x, load_x, 0, x), True, 0),
        RelaxCandidate(CallSite(0, q, jsr_y, load_y, 0, y), True, 0),
    ]
    return [module], candidates, jsr_x, jsr_y


def test_fixpoint_needs_two_waves():
    """One demotion pushes the *other* site out of range.

    filler = R - 2: optimistically X's displacement is R - 1 (legal)
    and Y's is R (illegal).  Demoting Y revives its PV load between
    jsrX and X, pushing X's displacement to R — a second wave must
    demote it too.  A one-wave (or one-shot) scheme would wrongly keep
    the X conversion.
    """
    modules, candidates, jsr_x, jsr_y = _forward_program(R - 2)
    result = relax_call_sites(modules, candidates, text_base=0, range_words=R)
    assert result.decisions[jsr_x.uid] is False
    assert result.decisions[jsr_y.uid] is False
    assert result.iterations == 3  # two demoting waves + the clean pass
    assert result.demoted == 2


def test_fixpoint_keeps_in_range_sites():
    """filler = R - 3: X at R - 2, Y at R - 1 — both legal, one pass."""
    modules, candidates, jsr_x, jsr_y = _forward_program(R - 3)
    result = relax_call_sites(modules, candidates, text_base=0, range_words=R)
    assert result.decisions[jsr_x.uid] is True
    assert result.decisions[jsr_y.uid] is True
    assert result.iterations == 1
    assert result.demoted == 0


def _backward_program(filler_words):
    """X[2] F[filler] P[loadP,jsrP->X]: displacement -(filler + 3)."""
    load_p, jsr_p = _instr(), _instr()
    x = _proc("X", [_instr(), _instr()])
    filler = _proc("F", [_instr() for __ in range(filler_words)])
    p = _proc("P", [load_p, jsr_p])
    module = SymbolicModule("m", procs=[x, filler, p])
    candidates = [RelaxCandidate(CallSite(0, p, jsr_p, load_p, 0, x), True, 0)]
    return [module], candidates, jsr_p


def test_negative_edge_exact():
    modules, candidates, jsr_p = _backward_program(R - 3)
    result = relax_call_sites(modules, candidates, text_base=0, range_words=R)
    assert result.decisions[jsr_p.uid] is True  # exactly -R: legal

    modules, candidates, jsr_p = _backward_program(R - 2)
    result = relax_call_sites(modules, candidates, text_base=0, range_words=R)
    assert result.decisions[jsr_p.uid] is False  # -(R + 1): demoted


def test_slack_tightens_the_window():
    """Slack bytes shrink the acceptance window.

    The same program that is fully legal at slack 0 (see
    ``test_fixpoint_keeps_in_range_sites``) loses Y at ``hi = R - 2``,
    and the revived load then cascades into X — both demote.  Each
    demotion names the window it missed: the narrowed one.
    """
    modules, candidates, jsr_x, jsr_y = _forward_program(R - 3)
    trace = TraceLog()
    result = relax_call_sites(
        modules, candidates, text_base=0, range_words=R, slack=4, trace=trace
    )
    assert result.decisions[jsr_y.uid] is False
    assert result.decisions[jsr_x.uid] is False
    assert result.iterations == 3
    demotions = [
        e["args"]["reason"] for e in trace.events if e["args"]["proc"] != "<fixpoint>"
    ]
    assert demotions == [
        f"wave 1: displacement {R - 1} words outside [{-R + 1}, {R - 2}]",
        f"wave 2: displacement {R - 1} words outside [{-R + 1}, {R - 2}]",
    ]


def _cascade(sites):
    """``sites`` backward calls, each demotion pushing the next site out.

    Procedures ``X1 G X2 C1 X3 C2 ... X(n) C(n-1) C(n)``, where ``C(i)``
    is ``[load, jsr -> X(i)]`` and every other procedure one word
    (``G`` four).  With every PV load deleted, site ``i`` of ``2 .. n-1``
    spans ``X(i) C(i-1) X(i+1) C(i)``, exactly ``R = 4`` words: the
    negative edge.  Only site ``i - 1``'s revived load lies in that
    span, so each wave demotes exactly the next site.  Site 1 spans
    ``G`` and starts out of range; site ``n`` spans ``X(n) C(n-1) C(n)``,
    three words, four once load ``n - 1`` is back: on the edge, kept.
    """
    callers = [_proc(f"C{i}", [_instr(), _instr()]) for i in range(1, sites + 1)]
    callees = [_proc(f"X{i}", [_instr()]) for i in range(1, sites + 1)]
    procs = [callees[0], _proc("G", [_instr() for __ in range(4)])]
    for i in range(1, sites):
        procs += [callees[i], callers[i - 1]]
    procs.append(callers[-1])
    candidates = [
        RelaxCandidate(
            CallSite(0, caller, caller.items[1], caller.items[0], 0, callee),
            True, 0,
        )
        for caller, callee in zip(callers, callees)
    ]
    return [SymbolicModule("m", procs=procs)], candidates


def test_cascade_runs_until_no_site_moves():
    """70 waves each demote one site; the fixpoint ends on a clean
    pass and keeps the last site, on the edge."""
    modules, candidates = _cascade(71)
    result = relax_call_sites(modules, candidates, text_base=0, range_words=4)
    kept = [c.site.caller.name for c in candidates if result.decisions[c.site.jsr.uid]]
    assert kept == ["C71"]
    assert result.demoted == 70
    assert result.iterations == result.demoted + 1
