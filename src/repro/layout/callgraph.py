"""Weighted whole-program call graph over OM's symbolic form.

The layout subsystem consumes the same direct-call sites OM's calls
pass optimizes: a ``jsr`` whose PV comes from a literal load of a
procedure symbol with a zero addend.  Callee resolution mirrors
``Program.callee_info`` — a module-local static shadows any exported
procedure of the same name — so every site the transformer might
convert is a site the layout planner can weigh.

Node weights come from a :class:`~repro.machine.profile.ProfileResult`
when the caller has one (the closed PGO loop), or from a static
estimate otherwise: a procedure's weight is one plus the number of
static call sites targeting it, which at least separates leaf helpers
from once-called setup code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OPS
from repro.minicc.mcode import MInstr
from repro.objfile.relocations import LituseKind
from repro.om.symbolic import SymbolicModule, SymbolicProc

_JSR = OPS["jsr"]


@dataclass
class CallSite:
    """One direct call: the jsr, its PV load, and both endpoints."""

    caller_module: int
    caller: SymbolicProc
    jsr: MInstr
    load: MInstr
    callee_module: int
    callee: SymbolicProc


@dataclass
class CallGraph:
    """Procedures in program order plus direct-call edges."""

    #: (module index, proc name) in current program order.
    procs: list[tuple[int, str]] = field(default_factory=list)
    sites: list[CallSite] = field(default_factory=list)
    #: (caller name, callee name) -> number of static call sites.
    multiplicity: dict[tuple[str, str], int] = field(default_factory=dict)


def proc_directory(
    modules: list[SymbolicModule],
) -> dict[str, tuple[int, SymbolicProc]]:
    """Global name -> defining procedure (exported definitions win)."""
    directory: dict[str, tuple[int, SymbolicProc]] = {}
    for index, module in enumerate(modules):
        for proc in module.procs:
            if proc.exported or proc.name not in directory:
                directory[proc.name] = (index, proc)
    return directory


def resolve_callee(
    modules: list[SymbolicModule],
    directory: dict[str, tuple[int, SymbolicProc]],
    caller_module: int,
    name: str,
) -> tuple[int, SymbolicProc] | None:
    """Resolve a direct-call target, honouring module-local statics."""
    local = modules[caller_module].proc_named(name)
    if local is not None and not local.exported:
        return (caller_module, local)
    return directory.get(name)


def direct_jsrs(proc: SymbolicProc) -> list[tuple[MInstr, MInstr, str]]:
    """The procedure's direct-call candidates in item order: each
    ``jsr`` whose PV comes from a literal load in the same procedure
    with a zero addend, with that load and the callee's name.  The
    candidate is a call site when the name resolves to a procedure."""
    literal_items = {
        item.uid: item
        for item in proc.items
        if isinstance(item, MInstr) and item.literal is not None
    }
    found = []
    for item in proc.items:
        if not isinstance(item, MInstr) or item.instr.op is not _JSR:
            continue
        lituse = item.lituse
        if lituse is None or lituse[1] != LituseKind.JSR:
            continue
        load = literal_items.get(lituse[0])
        if load is None:
            continue
        callee_name, addend = load.literal
        if not addend:
            found.append((item, load, callee_name))
    return found


def iter_direct_call_sites(modules: list[SymbolicModule]) -> list[CallSite]:
    """Every direct jsr site the calls pass would consider converting."""
    directory = proc_directory(modules)
    sites: list[CallSite] = []
    for module_index, module in enumerate(modules):
        for proc in module.procs:
            for jsr, load, callee_name in direct_jsrs(proc):
                resolved = resolve_callee(
                    modules, directory, module_index, callee_name
                )
                if resolved is None:
                    continue
                callee_module, callee = resolved
                sites.append(
                    CallSite(module_index, proc, jsr, load, callee_module, callee)
                )
    return sites


def build_call_graph(modules: list[SymbolicModule]) -> CallGraph:
    graph = CallGraph()
    for index, module in enumerate(modules):
        for proc in module.procs:
            graph.procs.append((index, proc.name))
    graph.sites = iter_direct_call_sites(modules)
    for site in graph.sites:
        key = (site.caller.name, site.callee.name)
        graph.multiplicity[key] = graph.multiplicity.get(key, 0) + 1
    return graph


def profile_proc_weights(profile) -> dict[str, float]:
    """Executed-instruction weight per procedure from a profiled run."""
    from repro.machine.profile import UNATTRIBUTED

    return {
        proc.name: float(proc.instructions)
        for proc in profile.procs
        if proc.name != UNATTRIBUTED
    }


def static_proc_weights(graph: CallGraph) -> dict[str, float]:
    """No-profile fallback: weight by static in-degree."""
    weights = {name: 1.0 for __, name in graph.procs}
    for (__, callee), count in graph.multiplicity.items():
        if callee in weights:
            weights[callee] += float(count)
    return weights


def edge_weights(
    graph: CallGraph, node_weights: dict[str, float]
) -> dict[tuple[str, str], float]:
    """Caller/callee affinity for chain merging.

    Static multiplicity scaled by the endpoint heat; self-edges are
    dropped (a recursive pair is already adjacent to itself).
    """
    out: dict[tuple[str, str], float] = {}
    for (caller, callee), count in graph.multiplicity.items():
        if caller == callee:
            continue
        heat = node_weights.get(caller, 0.0) + node_weights.get(callee, 0.0)
        out[(caller, callee)] = count * (1.0 + heat)
    return out
