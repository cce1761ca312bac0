"""Inputs and link variants, built by the benchmark itself.

The benchmark does not reuse the experiment helpers' memoized builds or
the serving load generator: its inputs are made here, from the
benchsuite sources and the scale-program generator, so a change to
those helpers cannot change what is measured.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

from repro.benchsuite.suite import (
    DECAF_PROGRAMS,
    PROGRAMS,
    apply_scale,
    program_sources,
    stdlib_sources,
)
from repro.frontend import compile_sources
from repro.linker import link, make_crt0
from repro.linker.executable import dump_executable
from repro.minicc import Options
from repro.objfile import serialize
from repro.objfile.archive import Archive
from repro.om import OMLevel, OMOptions, om_link

#: Every benchsuite program: the 19 MiniC programs and the 3 Decaf ones.
ALL_PROGRAMS = tuple(PROGRAMS) + tuple(DECAF_PROGRAMS)

#: OM link variants by name (``ld`` is the standard linker).
OM_VARIANTS = {
    "om-simple": (OMLevel.SIMPLE, OMOptions),
    "om-full": (OMLevel.FULL, OMOptions),
    "om-full-sched": (OMLevel.FULL, lambda: OMOptions(schedule=True)),
    "om-full-wpo": (OMLevel.FULL, lambda: OMOptions(partitions=4)),
    "om-full-layout": (OMLevel.FULL, lambda: OMOptions(layout=True, relax=True)),
}

OPTIONS = Options()


def span(tracer, name: str, *, op: str | None = None):
    return tracer.span(name, op=op) if tracer is not None else nullcontext()


def sources_for(program: str, scale: int | None = None) -> list[tuple[str, str]]:
    """``(name, text)`` pairs, main module first, SCALE applied to it."""
    pairs = program_sources(program)
    if scale is not None:
        pairs[0] = (pairs[0][0], apply_scale(pairs[0][1], scale))
    return [(f"{program}/{name}", text) for name, text in pairs]


def build_stdlib() -> Archive:
    """A fresh ``libmc`` archive compiled from the stdlib sources."""
    return Archive("libmc", compile_sources(stdlib_sources(), "each", OPTIONS))


def private_copy(lib: Archive) -> Archive:
    """A private stdlib copy, as every linking job makes one."""
    return Archive(lib.name, serialize.load_archive(serialize.dump_archive(lib.members)))


def link_variant(variant: str, objects, lib: Archive, *, profile=None,
                 cache=None):
    """Link ``[crt0] + objects`` against ``lib``: ``(executable, om_result)``."""
    inputs = [make_crt0()] + list(objects)
    if variant == "ld":
        return link(inputs, [lib]), None
    level, options = OM_VARIANTS[variant]
    result = om_link(inputs, [lib], level=level, options=options(),
                     profile=profile, cache=cache)
    return result.executable, result


def exe_digest(executable) -> str:
    return hashlib.sha256(dump_executable(executable)).hexdigest()
