"""In-memory spans around each layer's public functions.

The benchmark adds no span inside the program.  For a traced run it
wraps the public functions of each in-process layer (the table below),
records one span per call — name, start, end, parent span, op id — and
computes self times: a span's duration minus the time its child spans
cover.  ``uninstall`` restores every original binding.

Functions are patched in every ``repro`` module that bound them by
``from ... import``, so calls from inside the toolchain are seen too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: (span name, module, function) for the in-process layers.
LAYER_FUNCTIONS = (
    ("frontend.minicc", "repro.minicc", "compile_module"),
    ("frontend.minicc", "repro.minicc", "compile_all"),
    ("frontend.decafc", "repro.decafc", "compile_module"),
    ("frontend.decafc", "repro.decafc", "compile_all"),
    ("objfile.copy", "repro.objfile.serialize", "dump_archive"),
    ("objfile.copy", "repro.objfile.serialize", "load_archive"),
    ("linker.resolve", "repro.linker.resolve", "resolve_inputs"),
    ("linker.layout", "repro.linker.layout", "compute_layout"),
    ("linker.relocate", "repro.linker.relocate", "build_executable"),
    ("om.translate", "repro.om.symbolic", "translate_module"),
    ("om.reassemble", "repro.om.symbolic", "reassemble_module"),
    ("om.sched", "repro.om.sched", "om_schedule"),
    ("wpo.rounds", "repro.wpo.driver", "wpo_rounds"),
    ("wpo.partition", "repro.wpo.partition", "partition_modules"),
    ("layout.plan", "repro.layout.plan", "plan_layout"),
    ("layout.relax", "repro.layout.relax", "relax_call_sites"),
    ("machine.load", "repro.machine", "machine_for"),
)

#: (span name, module, class, method) for layers entered through methods.
LAYER_METHODS = (
    ("om.program", "repro.om.transform", "Program", "build"),
    ("om.transform", "repro.om.transform", "Transformer", "run_passes"),
    ("cache.get", "repro.cache", "ArtifactCache", "get"),
    ("cache.put", "repro.cache", "ArtifactCache", "put"),
)

#: Modules imported lazily by the toolchain; imported before patching
#: so their bindings are patched too.
_PRELOAD = (
    "repro.decafc", "repro.layout.plan", "repro.layout.relax",
    "repro.wpo", "repro.wpo.driver", "repro.wpo.shard", "repro.om.gc",
)


@dataclass
class Span:
    id: int
    name: str
    start: float  # perf_counter seconds
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    tid: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, op: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            next(self._ids), name, time.perf_counter(),
            parent=parent.id if parent else None,
            op=op if op is not None else (parent.op if parent else None),
            tid=threading.get_ident() & 0xFFFF,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        for name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, module_name, cls_name, attr in LAYER_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.dur
        return {span.id: span.dur - covered[span.id] for span in self.spans}

    def self_totals(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        self_time = self.self_times()
        for span in self.spans:
            totals[span.name] += self_time[span.id]
        return dict(totals)

    def chrome_events(self) -> list[dict]:
        pid = os.getpid()
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        for span in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.dur * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {"id": span.id, "parent": span.parent, "op": span.op},
            })
        return events


@dataclass
class Measured:
    """The timed phase of an in-process workload."""

    halves: list  # (runner, samples) per half: untraced, then traced
    elapsed: float  # of the last half
    passes: int  # of the last half
    tracer: Tracer | None

    @property
    def samples(self) -> list:
        """The samples metrics come from (the traced half when traced)."""
        return self.halves[-1][1]

    @property
    def untraced(self) -> list:
        """The untraced half of a traced run, else nothing."""
        return self.halves[0][1] if self.tracer is not None else []


def measure(ctx, ops, make_runner, host, min_passes: int = 1) -> Measured:
    """Whole passes over ``ops`` for ``ctx.seconds`` (``min_passes`` at least).

    A traced run spends half the time untraced and half with the layer
    wrappers installed, over the same op sequence, so the two halves
    give the tracing overhead.  ``make_runner(tracer)`` returns an
    object whose ``execute(op)`` returns an :class:`core.OpSample`.
    """
    from perfbench import core

    if not ctx.trace:
        runner = make_runner(None)
        samples, elapsed, passes = core.run_passes(ops, runner.execute, ctx.seconds,
                                                   host, min_passes)
        return Measured([(runner, samples)], elapsed, passes, None)
    plain = make_runner(None)
    untraced, _, _ = core.run_passes(ops, plain.execute, ctx.seconds / 2, host)
    tracer = Tracer()
    runner = make_runner(tracer)
    tracer.install()
    try:
        samples, elapsed, passes = core.run_passes(ops, runner.execute,
                                                   ctx.seconds / 2, host)
    finally:
        tracer.uninstall()
    return Measured([(plain, untraced), (runner, samples)], elapsed, passes, tracer)


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def self_time_table(totals_s: dict[str, float], ops: int) -> str:
    """Plain-text per-layer self-time table (mean ms per op, share)."""
    whole = sum(totals_s.values()) or 1.0
    lines = [f"{'layer':<28} {'ms/op':>10} {'share':>7}"]
    for name, seconds in sorted(totals_s.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{name:<28} {1e3 * seconds / max(ops, 1):>10.3f} "
            f"{100.0 * seconds / whole:>6.1f}%"
        )
    return "\n".join(lines)


def write_artifacts(ctx, events: list[dict], totals_s: dict[str, float],
                    samples, extra: str = "") -> None:
    """Chrome trace plus the self-time table (and ``extra`` text) in out/.

    The table is in ms per op at nominal host speed, like the metrics.
    """
    from perfbench import core

    trace_path = ctx.out_dir / f"trace-{ctx.tag}.json"
    write_chrome_trace(trace_path, events)
    scale = core.nominal_scale(samples)
    table = self_time_table({k: v * scale for k, v in totals_s.items()}, len(samples))
    text = table + (f"\n\n{extra}" if extra else "")
    (ctx.out_dir / f"layers-{ctx.tag}.txt").write_text(text + "\n")
    ctx.log(f"chrome trace: {trace_path}")
    ctx.log(text)
