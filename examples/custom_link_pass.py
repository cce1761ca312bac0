"""An ATOM-style custom link-time pass built on OM's symbolic form.

The paper argues that link-time translation to symbolic form "opens the
door to other link-time transformations, such as ... flexible program
instrumentation tools" (OM's sibling is ATOM).  This example writes a
miniature instrumenter: it inserts a procedure-entry counter into every
procedure of a fully linked program — including pre-compiled library
code — then reads the counters out of simulated memory.

The pass works exactly like OM's own passes: resolve the closed world,
translate to symbolic form, splice in instructions (no displacement
bookkeeping needed — reassembly recomputes everything), and finish with
the standard layout/relocation.

(This walk-through builds the pass by hand to show the mechanics; the
polished version of the same tool ships as
:mod:`repro.om.instrument.link_with_entry_counters`.)

Run:  python examples/custom_link_pass.py
"""

from repro.benchsuite import build_stdlib
from repro.isa.instruction import Instruction
from repro.isa.registers import Reg
from repro.linker import make_crt0
from repro.linker.layout import compute_layout
from repro.linker.relocate import build_executable
from repro.linker.resolve import resolve_inputs
from repro.machine import Machine
from repro.minicc import compile_module
from repro.minicc.mcode import MInstr, MLabel
from repro.objfile.relocations import LituseKind
from repro.objfile.sections import Section, SectionKind
from repro.objfile.symbols import Binding, Symbol, SymbolKind
from repro.om.symbolic import reassemble_module, translate_module

COUNTERS = "__proc_counts"

PROGRAM = """
extern int isqrt(int x);
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 20; i++) { s += isqrt(i * 1000); }
    __putint(s);
    return 0;
}
"""


def instrument(modules):
    """Insert an entry counter bump into every procedure.

    At procedure entry the scratch registers AT and T11 are dead by
    convention, and GP still holds the caller's value — valid here
    because the program has a single GAT.  The counter's address comes
    from a GAT literal with an addend, so the counters array needs just
    one base symbol.
    """
    proc_index: dict[str, int] = {}
    for module in modules:
        for proc in module.procs:
            if proc.name != "__start":  # GP not yet live at the true entry
                proc_index[proc.name] = len(proc_index)

    # Allocate the counters array in the first module's .data.
    home = modules[0]
    data = home.data_sections.setdefault(SectionKind.DATA, Section(SectionKind.DATA))
    data.align_to(8)
    base = data.size
    data.append(bytes(8 * len(proc_index)))
    home.other_symbols.append(
        Symbol(
            COUNTERS, SymbolKind.OBJECT, Binding.GLOBAL,
            SectionKind.DATA, base, 8 * len(proc_index),
        )
    )

    for module in modules:
        for proc in module.procs:
            index = proc_index.get(proc.name)
            if index is None:
                continue
            load = MInstr(
                Instruction.mem("ldq", Reg.AT, Reg.GP, 0),
                literal=(COUNTERS, 8 * index),
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


def main() -> None:
    objects = [make_crt0(), compile_module(PROGRAM, "main.o")]
    inputs = resolve_inputs(objects, [build_stdlib()])

    modules = [translate_module(obj) for obj in inputs.modules]
    proc_index = instrument(modules)

    final = [reassemble_module(module) for module in modules]
    final_inputs = resolve_inputs(final, [])
    layout = compute_layout(final_inputs)
    executable = build_executable(final_inputs, layout)

    machine = Machine(executable)
    result = machine.run()
    print("program output:", result.output.strip())
    print(f"{result.instructions} instructions "
          f"(instrumentation included), {result.cycles} cycles\n")

    counters_base = executable.symbol(COUNTERS)
    print("procedure entry counts (measured by the inserted probes):")
    for name, index in sorted(proc_index.items(), key=lambda kv: kv[1]):
        count = machine._load_q(counters_base + 8 * index)
        if count:
            print(f"  {name:12s} {count}")


if __name__ == "__main__":
    main()
