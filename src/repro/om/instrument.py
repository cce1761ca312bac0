"""ATOM-style link-time instrumentation built on OM's symbolic form.

OM's companion system ATOM ("A System for Building Customized Program
Analysis Tools", cited in the paper) built program-analysis tools by
splicing instrumentation into fully linked programs.  This module
provides the canonical first tool: procedure-entry counters covering
*every* procedure in the closed world, pre-compiled library code
included.

The inserted sequence runs at procedure entry, where the scratch
registers AT and T11 are dead by convention and GP still holds the
caller's value (valid whenever the program links into a single GAT
group, which ``link_with_entry_counters`` asserts)::

    ldq   at, <counters+8*i>(gp)   ; address of this procedure's slot
    ldq   t11, 0(at)
    addq  t11, 1, t11
    stq   t11, 0(at)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.registers import Reg
from repro.linker.executable import Executable
from repro.linker.layout import LayoutOptions, compute_layout
from repro.linker.relocate import build_executable
from repro.linker.resolve import resolve_inputs
from repro.machine.cpu import Machine
from repro.minicc.mcode import MInstr, MLabel
from repro.objfile.archive import Archive
from repro.objfile.objfile import ObjectFile
from repro.objfile.relocations import LituseKind
from repro.objfile.sections import Section, SectionKind
from repro.objfile.symbols import Binding, Symbol, SymbolKind
from repro.om.symbolic import SymbolicModule, reassemble_module, translate_module

COUNTER_SYMBOL = "__proc_counts"


@dataclass
class InstrumentedProgram:
    """An executable with entry counters and the slot assignment."""

    executable: Executable
    proc_index: dict[str, int] = field(default_factory=dict)

    def run_with_counts(self, *, timed: bool = False, max_instructions: int = 200_000_000):
        """Run the program; returns (RunResult, {proc: entry count})."""
        machine = Machine(self.executable, max_instructions=max_instructions)
        result = machine.run(timed=timed)
        base = self.executable.symbol(COUNTER_SYMBOL)
        counts = {
            name: machine._load_q(base + 8 * index)
            for name, index in self.proc_index.items()
        }
        return result, counts


def add_entry_counters(modules: list[SymbolicModule]) -> dict[str, int]:
    """Splice an entry-counter bump into every procedure (in place).

    Returns the procedure -> counter-slot assignment.  The counters
    array is appended to the first module's ``.data`` under
    :data:`COUNTER_SYMBOL`.
    """
    proc_index: dict[str, int] = {}
    for module in modules:
        for symbol in module.other_symbols:
            if symbol.name == COUNTER_SYMBOL:
                raise ValueError(
                    f"symbol {COUNTER_SYMBOL!r} already defined in "
                    f"{module.name!r}; the program cannot be instrumented "
                    "twice (or reserve that name)"
                )
        for proc in module.procs:
            if proc.name == COUNTER_SYMBOL:
                raise ValueError(
                    f"procedure name collides with the counter-section "
                    f"symbol {COUNTER_SYMBOL!r}"
                )
            if proc.name != "__start":  # GP is not yet live at the true entry
                proc_index.setdefault(proc.name, len(proc_index))

    home = modules[0]
    data = home.data_sections.setdefault(SectionKind.DATA, Section(SectionKind.DATA))
    data.align_to(8)
    base = data.size
    data.append(bytes(8 * max(len(proc_index), 1)))
    home.other_symbols.append(
        Symbol(
            COUNTER_SYMBOL, SymbolKind.OBJECT, Binding.GLOBAL,
            SectionKind.DATA, base, 8 * max(len(proc_index), 1),
        )
    )

    for module in modules:
        for proc in module.procs:
            index = proc_index.get(proc.name)
            if index is None:
                continue
            load = MInstr(
                Instruction.mem("ldq", Reg.AT, Reg.GP, 0),
                literal=(COUNTER_SYMBOL, 8 * index),
            )
            bump = [
                load,
                MInstr(
                    Instruction.mem("ldq", Reg.T11, Reg.AT, 0),
                    lituse=(load.uid, LituseKind.BASE),
                ),
                MInstr(Instruction.opr("addq", Reg.T11, 1, Reg.T11, lit=True)),
                MInstr(
                    Instruction.mem("stq", Reg.T11, Reg.AT, 0),
                    lituse=(load.uid, LituseKind.BASE),
                ),
            ]
            entry = next(
                i
                for i, item in enumerate(proc.items)
                if isinstance(item, MLabel) and item.name == proc.name
            )
            proc.items[entry + 1 : entry + 1] = bump
    return proc_index


def link_with_entry_counters(
    objects: list[ObjectFile],
    libraries: list[Archive] = (),
    *,
    entry: str = "__start",
    gat_capacity: int | None = None,
) -> InstrumentedProgram:
    """Resolve, instrument every procedure, and produce an executable.

    ``gat_capacity`` overrides the layout's GAT-group capacity (tests
    use a tiny capacity to exercise the multi-group rejection below).
    """
    inputs = resolve_inputs(objects, list(libraries))
    modules = [translate_module(obj) for obj in inputs.modules]
    proc_index = add_entry_counters(modules)

    final = [reassemble_module(module) for module in modules]
    final_inputs = resolve_inputs(final, [])
    layout_options = (
        LayoutOptions()
        if gat_capacity is None
        else LayoutOptions(gat_capacity=gat_capacity)
    )
    layout = compute_layout(final_inputs, layout_options)
    if len(layout.groups) > 1:
        raise ValueError(
            "entry-counter instrumentation requires a single GAT group "
            "(GP must be caller-valid at every entry)"
        )
    executable = build_executable(final_inputs, layout, entry=entry)
    return InstrumentedProgram(executable, proc_index)
