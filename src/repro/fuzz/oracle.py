"""The differential oracle: one program, the whole build matrix.

A generated program is compiled in both of the paper's modes
(compile-each, compile-all) and linked with every link variant — the
standard linker, OM-simple, OM-full, OM-full+sched, OM-full+GC
(the dead-procedure extension, included so the ``gc-drop`` transform
kind is reachable), OM-full+layout (the closed PGO loop: the cell
itself links OM-full, profiles its run, and feeds the profile back
into a layout-enabled relink, reaching ``reorder``/``hot-place``/
``relax``), and OM-full-wpo (the partitioned whole-program optimizer,
pinned byte-identical to OM-full).  The oracle then asserts:

* **output equality** — all cells print identical simulator output;
* **termination** — every cell halts within the instruction budget;
* **monotone non-increasing executed instruction counts** within each
  mode: OM-simple never executes more than ld (nulled instructions are
  1-for-1), OM-full / OM-full+sched / OM-full+layout never more than
  OM-simple, and GC never more than OM-full;
* **GAT-load monotonicity** — the layout cell never executes more GAT
  address loads than its OM-full base;
* **executable byte-identity** — within each mode the OM-full-wpo
  image's sha256 equals OM-full's, both for its cold link against a
  private shard cache and for the warm relink from that cache, whose
  shards all hit and build no module body;
* **backend identity** — the ``jit`` column reruns the ld executable
  on the translating machine backend
  (:class:`~repro.machine.jit.JitMachine`) and must match the
  interpreter cell exactly, output and executed-instruction count;
* **convergence** — every OM link runs with ``OMOptions.verify``, so
  the round its convergence certificate skipped runs anyway; a change
  in it is an ``unconverged`` divergence, not a quietly weaker link.

Each OM link but OM-full-wpo's runs with a :class:`~repro.obs.trace.
TraceLog` attached; the provenance events it fires are distilled into
``(action, pass)`` coverage pairs — the campaign's guidance signal.
The OM-full-wpo links run untraced, since a traced link builds every
body and would never take the shard cache's hit path; their decisions
are OM-full's, whose cell reports them.

Cell results can round-trip through the content-addressed
:class:`~repro.cache.ArtifactCache`: keys cover the exact sources,
mode, variant, and toolchain stamp, so replaying a corpus entry on a
warm cache performs zero compiles, links, or simulations.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field, replace

from repro.fuzz.coverage import CoveragePair
from repro.fuzz.generate import GeneratedProgram
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om import OMLevel, OMOptions, om_link
from repro.om.verify import VerificationError

#: Program versions, as in the paper's study.
MODES = ("each", "all")

#: The OM side of the matrix: variant -> (level, options).
_OM_SPECS: dict[str, tuple[OMLevel, OMOptions]] = {
    "om-simple": (OMLevel.SIMPLE, OMOptions()),
    "om-full": (OMLevel.FULL, OMOptions()),
    "om-full-sched": (OMLevel.FULL, OMOptions(schedule=True)),
    "om-full-gc": (OMLevel.FULL, OMOptions(remove_dead_procs=True)),
    "om-full-layout": (OMLevel.FULL, OMOptions(layout=True, relax=True)),
    "om-full-wpo": (OMLevel.FULL, OMOptions(partitions=2)),
}

#: Feedback variants link twice: a base link's profiled run feeds the
#: layout planner (the closed PGO loop, under fuzz).
_FEEDBACK = {"om-full-layout": "om-full"}

#: Variants whose cells run under the profiler so the oracle can also
#: compare executed GAT address loads.
_GAT_PROFILED = ("om-full", "om-full-layout")

#: Variants whose executable bytes are digested and pinned equal per
#: mode: the partitioned optimizer's whole contract is byte-identity
#: with the monolithic om-full link.
_EXE_PINNED = ("om-full", "om-full-wpo")

#: Link variants, in evaluation (and monotonicity) order.  The ``jit``
#: column is not a link variant at all: it reruns the ld executable on
#: the translating machine backend, so every wave also differentially
#: tests the JIT against the reference interpreter for free.
VARIANTS = ("ld", "jit") + tuple(_OM_SPECS)

#: (smaller-or-equal, reference) pairs the instruction check enforces.
_MONOTONE = (
    ("om-simple", "ld"),
    ("om-full", "om-simple"),
    ("om-full-sched", "om-simple"),
    ("om-full-gc", "om-full"),
    # Layout only moves procedures and promotes jsr->bsr; it must never
    # execute more than the structurally-safe om-simple bound.
    ("om-full-layout", "om-simple"),
)

#: Default per-cell simulator budget; generated programs are tiny.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

# Per-process toolchain session (crt0 + stdlib build once per process).
_SESSION: tuple | None = None


def _toolchain():
    global _SESSION
    if _SESSION is None:
        from repro.benchsuite import build_stdlib
        from repro.linker import make_crt0

        _SESSION = (make_crt0(), build_stdlib())
    return _SESSION


@dataclass(frozen=True)
class CellResult:
    """One (mode, variant) cell: what it printed and what it cost."""

    output: str
    instructions: int
    halted: bool
    coverage: tuple[CoveragePair, ...] = ()
    #: Executed GAT address loads (profiled variants only).
    gat_loads: int | None = None
    #: sha256 of the executable image (byte-identity-pinned variants).
    exe_digest: str | None = None
    #: sha256 of the warm relink's image (OM-full-wpo only).
    relink_digest: str | None = None


@dataclass(frozen=True)
class Divergence:
    """One violated oracle invariant."""

    kind: str  # "output" | "instructions" | "gat-loads" | "exe-bytes" | "backend" | "runaway" | "unconverged" | "build-error"
    detail: str
    cells: tuple[str, ...] = ()


@dataclass
class OracleReport:
    """Everything the matrix said about one program."""

    program: GeneratedProgram
    cells: dict[str, CellResult] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    coverage: set[CoveragePair] = field(default_factory=set)

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def summary(self) -> str:
        if not self.diverged:
            return f"seed {self.program.seed}: {len(self.cells)} cells agree"
        first = self.divergences[0]
        return (
            f"seed {self.program.seed}: {first.kind} divergence "
            f"[{', '.join(first.cells)}] {first.detail}"
        )


def _compile_objects(program: GeneratedProgram, mode: str):
    # Dispatch through the frontend protocol: module extensions pick
    # the language (.mc MiniC, .dcf Decaf), so cross-language programs
    # flow through every cell of the matrix unchanged.  Compile-all
    # groups per language — one unit each — merged at link time.
    from repro.frontend import compile_sources

    crt0, libmc = _toolchain()
    objects = [crt0] + compile_sources(
        [(name, text) for name, text in program.modules], mode
    )
    return objects, libmc


def _run_cell(
    program: GeneratedProgram, mode: str, variant: str, max_instructions: int
) -> CellResult:
    from repro.linker import link
    from repro.machine import run

    objects, libmc = _compile_objects(program, mode)
    if variant in ("ld", "jit"):
        executable = link(objects, [libmc])
        coverage: tuple[CoveragePair, ...] = ()
    else:
        level, options = _OM_SPECS[variant]
        options = replace(options, verify=True)
        profile_in = None
        if variant in _FEEDBACK:
            # Close the PGO loop inside the cell: base link, profiled
            # functional run, then the layout link fed by that profile.
            from repro.machine.profile import profile

            base_level, base_options = _OM_SPECS[_FEEDBACK[variant]]
            base_objects, base_libmc = _compile_objects(program, mode)
            base = om_link(
                base_objects,
                [base_libmc],
                level=base_level,
                options=replace(base_options, verify=True),
            )
            profile_in = profile(
                base.executable, max_instructions=max_instructions, timed=False
            )
        if variant == "om-full-wpo":
            executable, relink = _relinked(
                program, mode, objects, libmc, level, options
            )
            coverage = ()
        else:
            trace = TraceLog()
            result = om_link(
                objects,
                [libmc],
                level=level,
                options=options,
                trace=trace,
                profile=profile_in,
            )
            executable = result.executable
            coverage = tuple(
                sorted(
                    {
                        (args["action"], args["pass_name"])
                        for args in provenance.events(trace)
                    }
                )
            )
    exe_digest = relink_digest = None
    if variant in _EXE_PINNED:
        from repro.linker.executable import dump_executable

        exe_digest = hashlib.sha256(dump_executable(executable)).hexdigest()
        if variant == "om-full-wpo":
            relink_digest = hashlib.sha256(dump_executable(relink)).hexdigest()
    gat_loads = None
    if variant in _GAT_PROFILED:
        from repro.machine.profile import profile

        profiled = profile(
            executable, max_instructions=max_instructions, timed=False
        )
        outcome = profiled.run
        gat_loads = profiled.overhead.gat_loads
    else:
        outcome = run(
            executable,
            timed=False,
            max_instructions=max_instructions,
            backend="jit" if variant == "jit" else "interp",
        )
    return CellResult(
        output=outcome.output,
        instructions=outcome.instructions,
        halted=outcome.halted,
        coverage=coverage,
        gat_loads=gat_loads,
        exe_digest=exe_digest,
        relink_digest=relink_digest,
    )


def _relinked(
    program: GeneratedProgram, mode: str, objects, libmc, level, options
):
    """The partitioned link's cold executable, linked against a private
    shard cache with ``options``, and the executable of a warm relink
    from that cache without ``verify`` (whose skipped round reads
    every body)."""
    import tempfile

    from repro.cache import ArtifactCache

    with tempfile.TemporaryDirectory(prefix="repro-wpo-cell-") as root:
        cache = ArtifactCache(root)
        cold = om_link(objects, [libmc], level=level, options=options, cache=cache)
        objects, libmc = _compile_objects(program, mode)
        warm = om_link(
            objects, [libmc], level=level,
            options=replace(options, verify=False), cache=cache,
        )
    return cold.executable, warm.executable


def _cell_payload(
    program: GeneratedProgram, mode: str, variant: str, max_instructions: int
) -> dict:
    return {
        "artifact": "fuzz-cell",
        "sources": [[name, text] for name, text in program.modules],
        "mode": mode,
        "variant": variant,
        "max_instructions": max_instructions,
    }


def _cached_cell(
    program: GeneratedProgram,
    mode: str,
    variant: str,
    max_instructions: int,
    cache,
) -> CellResult:
    if cache is None:
        return _run_cell(program, mode, variant, max_instructions)
    key = cache.key(_cell_payload(program, mode, variant, max_instructions))
    data = cache.get("fuzz", key)
    if data is not None:
        payload = json.loads(data)
        return CellResult(
            output=payload["output"],
            instructions=payload["instructions"],
            halted=payload["halted"],
            coverage=tuple((a, p) for a, p in payload["coverage"]),
            gat_loads=payload.get("gat_loads"),
            exe_digest=payload.get("exe_digest"),
            relink_digest=payload.get("relink_digest"),
        )
    cell = _run_cell(program, mode, variant, max_instructions)
    cache.put(
        "fuzz",
        key,
        json.dumps(
            {
                "output": cell.output,
                "instructions": cell.instructions,
                "halted": cell.halted,
                "coverage": [list(pair) for pair in cell.coverage],
                "gat_loads": cell.gat_loads,
                "exe_digest": cell.exe_digest,
                "relink_digest": cell.relink_digest,
            }
        ).encode(),
    )
    return cell


def evaluate_program(
    program: GeneratedProgram,
    *,
    cache=None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> OracleReport:
    """Run one program through the full matrix and check every invariant."""
    report = OracleReport(program)
    for mode in MODES:
        for variant in VARIANTS:
            label = f"{mode}/{variant}"
            try:
                cell = _cached_cell(program, mode, variant, max_instructions, cache)
            except Exception as error:
                if isinstance(error, VerificationError) and str(error).startswith(
                    "unconverged"
                ):
                    divergence = Divergence("unconverged", str(error), (label,))
                else:
                    divergence = Divergence(
                        "build-error",
                        traceback.format_exc(limit=3).strip().splitlines()[-1],
                        (label,),
                    )
                report.divergences.append(divergence)
                return report
            report.cells[label] = cell
            report.coverage.update(cell.coverage)
            if not cell.halted:
                report.divergences.append(
                    Divergence(
                        "runaway",
                        f"did not halt within {max_instructions} instructions",
                        (label,),
                    )
                )

    by_output: dict[str, list[str]] = {}
    for label, cell in report.cells.items():
        by_output.setdefault(cell.output, []).append(label)
    if len(by_output) > 1:
        groups = "; ".join(
            f"[{', '.join(labels)}] -> {output.split()}"
            for output, labels in by_output.items()
        )
        report.divergences.append(
            Divergence("output", groups, tuple(sorted(report.cells)))
        )

    for mode in MODES:
        # Backend pin: the JIT must reproduce the interpreter exactly
        # on the same (ld-linked) executable — output equality is
        # already covered globally, so this adds the executed-count
        # identity (the paper-style differential-oracle discipline).
        interp_cell = report.cells.get(f"{mode}/ld")
        jit_cell = report.cells.get(f"{mode}/jit")
        if (
            interp_cell is not None
            and jit_cell is not None
            and jit_cell.instructions != interp_cell.instructions
        ):
            report.divergences.append(
                Divergence(
                    "backend",
                    f"jit executed {jit_cell.instructions} != "
                    f"interp {interp_cell.instructions}",
                    (f"{mode}/jit", f"{mode}/ld"),
                )
            )
        # Byte-identity pin: the partitioned link, cold and relinked
        # warm, must reproduce the monolithic om-full image exactly, not
        # merely equivalently.
        pinned = [
            (label, digest)
            for variant in _EXE_PINNED
            if f"{mode}/{variant}" in report.cells
            for label, digest in (
                (variant, report.cells[f"{mode}/{variant}"].exe_digest),
                (f"{variant}-relink",
                 report.cells[f"{mode}/{variant}"].relink_digest),
            )
            if digest is not None
        ]
        if len({digest for _, digest in pinned}) > 1:
            report.divergences.append(
                Divergence(
                    "exe-bytes",
                    "; ".join(f"{v}={d[:16]}" for v, d in pinned),
                    tuple(dict.fromkeys(
                        f"{mode}/{v.removesuffix('-relink')}" for v, _ in pinned
                    )),
                )
            )
        for smaller, reference in _MONOTONE:
            low = report.cells.get(f"{mode}/{smaller}")
            high = report.cells.get(f"{mode}/{reference}")
            if low is None or high is None:
                continue
            if low.instructions > high.instructions:
                report.divergences.append(
                    Divergence(
                        "instructions",
                        f"{smaller} executed {low.instructions} > "
                        f"{reference} {high.instructions}",
                        (f"{mode}/{smaller}", f"{mode}/{reference}"),
                    )
                )
        for variant, base in _FEEDBACK.items():
            low = report.cells.get(f"{mode}/{variant}")
            high = report.cells.get(f"{mode}/{base}")
            if low is None or high is None:
                continue
            if low.gat_loads is None or high.gat_loads is None:
                continue
            if low.gat_loads > high.gat_loads:
                report.divergences.append(
                    Divergence(
                        "gat-loads",
                        f"{variant} executed {low.gat_loads} GAT loads > "
                        f"{base} {high.gat_loads}",
                        (f"{mode}/{variant}", f"{mode}/{base}"),
                    )
                )
    return report


def divergence_predicate(
    reference: OracleReport, *, cache=None, max_instructions: int | None = None
):
    """An interestingness predicate for the reducer.

    A shrunken candidate stays interesting when it still produces a
    divergence of the same kind as the reference report (any
    compile-invalid candidate is simply uninteresting).
    """
    kind = reference.divergences[0].kind if reference.divergences else None
    budget = max_instructions or DEFAULT_MAX_INSTRUCTIONS

    def is_interesting(modules) -> bool:
        candidate = GeneratedProgram(
            reference.program.seed, reference.program.config, tuple(modules)
        )
        try:
            report = evaluate_program(
                candidate, cache=cache, max_instructions=budget
            )
        except Exception:
            return False
        if kind is None:
            return report.diverged
        return any(d.kind == kind for d in report.divergences)

    return is_interesting
