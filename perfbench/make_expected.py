"""Regenerate the expected console outputs in ``perfbench/expected/``.

    python3 perfbench/make_expected.py

One file per (program, mode, scale) a workload runs, produced with the
standard linker (``ld``) on the reference interpreter.  The outputs do
not depend on the seed: the seed orders and edits, it never rescales.
Regenerate only when a benchsuite program's source changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import core  # noqa: E402


def expected_runs():
    """``(program, mode, scale, sources)`` for every run a workload makes."""
    from perfbench import builds, dynamic_run, serve_mix, static_link

    programs = sorted(set(dynamic_run.PROGRAMS) | set(serve_mix.RUN_PROGRAMS))
    for program in programs:
        yield program, "each", core.RUN_SCALE, builds.sources_for(program, core.RUN_SCALE)
    yield (static_link.CHAIN, "each", f"gen{static_link.CHAIN_SEED}",
           static_link.chain_sources())


def main() -> int:
    core.import_repro()
    from repro.frontend import compile_sources
    from repro.machine import run

    from perfbench import builds

    stdlib = builds.build_stdlib()
    core.EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    for program, mode, scale, sources in expected_runs():
        objects = compile_sources(sources, mode, builds.OPTIONS)
        exe, _ = builds.link_variant("ld", objects, builds.private_copy(stdlib))
        result = run(exe, timed=False, backend="interp")
        path = core.EXPECTED_DIR / core.expected_name(program, mode, scale)
        path.write_text(result.output)
        print(f"{path.name}: {len(result.output)} chars, {result.instructions} instructions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
