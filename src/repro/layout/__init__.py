"""Profile-guided code and data layout (the closed PGO loop).

``profile -> plan -> relink``: a profiled run feeds a weighted call
graph; Pettis–Hansen chain merging orders procedures so hot
caller/callee pairs sit adjacently (maximizing bsr reach); escaped-
literal heat steers COMMON placement into the 16-bit GP window; and a
span-dependent relaxation fixpoint replaces OM's one-shot conservative
jsr->bsr range check with optimistic, exact decisions.
"""

from repro.layout.callgraph import (
    CallGraph,
    CallSite,
    build_call_graph,
    edge_weights,
    iter_direct_call_sites,
    profile_proc_weights,
    static_proc_weights,
)
from repro.layout.hotdata import escaped_symbol_weights
from repro.layout.plan import LayoutPlan, apply_plan, plan_layout
from repro.layout.relax import RelaxCandidate, RelaxResult, relax_call_sites
from repro.layout.reorder import apply_order, may_move, pettis_hansen_order

__all__ = [
    "CallGraph",
    "CallSite",
    "LayoutPlan",
    "RelaxCandidate",
    "RelaxResult",
    "apply_order",
    "apply_plan",
    "build_call_graph",
    "edge_weights",
    "escaped_symbol_weights",
    "iter_direct_call_sites",
    "may_move",
    "pettis_hansen_order",
    "plan_layout",
    "profile_proc_weights",
    "relax_call_sites",
    "static_proc_weights",
]
