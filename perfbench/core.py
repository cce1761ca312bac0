"""Shared plumbing for the benchmark workloads.

Everything a workload needs besides its own ops: where the checkout's
sources live, the metric catalog (read from ``BENCHMARK.json``, the one
place metric names and units are declared), percentiles, setup timing,
the expected-output files, the cross-run determinism ledger, and the
report printing that ends with the one-line JSON result.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Tail percentiles tried, highest first.  The reported tail is the
#: highest one that leaves at least MIN_BEYOND samples above it.  The
#: ladder is coarse on purpose: the sample count moves a little from run
#: to run, and a fine ladder would make the chosen percentile flip.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

#: How many times a run repeats its set-up; ``setup_s`` is the median.
#: Set-up is about a second, short enough that host speed swings move
#: single samples by half; five keeps the median steady.
SETUP_REPEATS = 5

#: Program modes and link variants the workloads draw from.
MODES = ("each", "all")
LINK_VARIANTS = ("ld", "om-simple", "om-full", "om-full-sched", "om-full-wpo")

#: Scale of every executable a workload runs (the smallest workload
#: each benchsuite program supports; SCALE 1 keeps a run under 3 s).
RUN_SCALE = 1


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text())


def metric_units(spec: dict) -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` maps of metric name to unit."""
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def import_repro():
    """Import the checkout's ``repro`` package, never an installed one.

    Returns the seconds the import took (part of ``setup_s``).  Raises
    ``RuntimeError`` when the checkout has no sources, so the driver
    exits without a result in a directory holding only the benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.cache
    import repro.frontend
    import repro.linker
    import repro.machine
    import repro.om

    elapsed = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    return elapsed


def subprocess_env() -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# -- statistics ------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (the numpy default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile leaving MIN_BEYOND of n samples above."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples cannot support a tail with {MIN_BEYOND} beyond")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def digest(obj) -> str:
    """Short stable digest of a JSON-able object or bytes."""
    data = obj if isinstance(obj, bytes) else json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- run context -------------------------------------------------------------------


@dataclass
class RunContext:
    """What one invocation was asked to do, plus where it may write."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    out_dir: Path = OUT_DIR
    expected_dir: Path = EXPECTED_DIR
    import_s: float = 0.0
    log: object = print

    @property
    def tag(self) -> str:
        return f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"


@dataclass
class OpSample:
    """One timed operation and the outputs its checks need."""

    op: str  # distinct op identity (program, mode, variant, ...)
    kind: str  # grouping for per-kind statistics
    wall_s: float
    ok: bool = True
    error: str = ""
    out: dict = field(default_factory=dict)
    #: ``wall_s`` at the nominal host speed (see :class:`HostSpeed`).
    norm_s: float = 0.0

    def fail(self, why: str) -> None:
        if self.ok:
            self.ok = False
            self.error = why


# -- host speed ------------------------------------------------------------------

#: Seconds :func:`reference_work` takes at the nominal host speed (about
#: its median over 75 s on the 2-core box the benchmark was tuned on).
REFERENCE_NOMINAL_S = 0.009


def reference_work() -> int:
    """A fixed pure-Python load that uses none of the toolchain."""
    counts: dict[str, int] = {}
    for i in range(6000):
        key = f"k{i % 997}:{i * 7 % 13}"
        counts[key] = counts.get(key, 0) + len(key)
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return sum(value for _, value in ranked[:500])


class HostSpeed:
    """Tracks how fast the host runs Python right now.

    The reference box's speed for identical work swings by up to 2x
    over seconds to minutes (other tenants).  Timing the fixed
    :func:`reference_work` between ops and scaling each op's time by
    ``nominal / median(last WINDOW reference times)`` removes most of
    that swing while leaving every change to the toolchain visible,
    because the reference never calls into it.
    """

    WINDOW = 9

    def __init__(self):
        self.recent: list[float] = []
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.recent = (self.recent + [elapsed])[-self.WINDOW:]

    def factor(self) -> float:
        """Current slowdown against nominal (2.0 = twice as slow)."""
        return statistics.median(self.recent) / REFERENCE_NOMINAL_S

    def run_factor(self) -> float:
        """Slowdown over every sample of the run."""
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


def timed_setup(build, host: HostSpeed):
    """Run ``build()`` ``SETUP_REPEATS`` times; keep the last state.

    Returns ``(state, raw seconds, normalized seconds)``.
    """
    raw, normalized = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # so peak memory holds one state, not two
        host.sample(3)
        start = time.perf_counter()
        state = build()
        raw.append(time.perf_counter() - start)
        normalized.append(raw[-1] / host.factor())
    return state, raw, normalized


def run_op(op: str, kind: str, fn) -> OpSample:
    """Time ``fn()``; an exception becomes a failed sample."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing op is a measured outcome
        return OpSample(op, kind, time.perf_counter() - start, False,
                        f"{type(exc).__name__}: {exc}")
    return OpSample(op, kind, time.perf_counter() - start, out=out)


def run_passes(ops, execute, budget_s: float, host: HostSpeed, min_passes: int = 1):
    """Run whole passes over ``ops`` while the next one fits in budget_s.

    The budget is in op time at nominal host speed, so a run does the
    same number of passes on a fast and a slow host: the sample count
    (which fixes the tail percentile) and the memory a run builds up do
    not depend on the host.  At least ``min_passes`` passes run, so every
    op is measured and checked.  The host's speed is sampled before
    every op.  Returns ``(samples, elapsed_s, passes)``.
    """
    samples: list[OpSample] = []
    start = time.perf_counter()
    spent = 0.0
    passes = 0
    while True:
        this_pass = 0.0
        for op in ops:
            host.sample()
            sample = execute(op)
            sample.norm_s = sample.wall_s / host.factor()
            samples.append(sample)
            this_pass += sample.norm_s
        spent += this_pass
        passes += 1
        if passes >= min_passes and spent + this_pass > budget_s:
            return samples, time.perf_counter() - start, passes


# -- expected outputs ------------------------------------------------------------


def expected_name(program: str, mode: str, scale) -> str:
    return f"{program}.{mode}.s{scale}.out"


def load_expected(expected_dir: Path, program: str, mode: str, scale) -> str:
    return (expected_dir / expected_name(program, mode, scale)).read_text()


# -- determinism -------------------------------------------------------------------


class DriftLedger:
    """Deterministic per-op values, checked within and across runs.

    Keyed by toolchain stamp: the same code must produce the same
    values for the same op, in every pass and every run.  Another
    stamp starts a fresh ledger, so an optimization that changes the
    values is not a drift.
    """

    def __init__(self, out_dir: Path, stamp: str):
        self.path = out_dir / f"ledger-{stamp[:16]}.json"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.drifts: list[str] = []

    def check(self, key: str, value) -> bool:
        value = json.loads(json.dumps(value, sort_keys=True))
        seen = self.known.setdefault(key, value)
        if seen != value:
            self.drifts.append(key)
            return False
        return True

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


# -- result assembly -------------------------------------------------------------


@dataclass
class WorkloadResult:
    """What a workload hands back to the driver."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    report: dict = field(default_factory=dict)


def latency_metrics(samples) -> tuple[dict, dict]:
    """p50 and tail latency in ms at nominal host speed, plus the tail's
    percentile, its sample counts and the raw (unscaled) latencies."""
    norm = [s.norm_s for s in samples]
    raw = [s.wall_s for s in samples]
    p = tail_percentile(len(samples))
    metrics = {
        "latency_p50_ms": 1e3 * statistics.median(norm),
        "latency_tail_ms": 1e3 * percentile(norm, p),
    }
    info = {"tail_percentile": p, "samples": len(samples),
            "beyond": sum(1 for w in norm if 1e3 * w > metrics["latency_tail_ms"]),
            "raw_p50_ms": 1e3 * statistics.median(raw),
            "raw_tail_ms": 1e3 * percentile(raw, p)}
    return metrics, info


def nominal_scale(samples) -> float:
    """The factor that took these samples' time to nominal speed."""
    return sum(s.norm_s for s in samples) / sum(s.wall_s for s in samples)


def to_nominal(layer_metrics: dict, samples) -> dict:
    """Scale per-layer times (and rates) to nominal host speed, by the
    scaling the traced ops got."""
    scale = nominal_scale(samples)
    out = {}
    for name, value in layer_metrics.items():
        if name.endswith("_ms"):
            value *= scale
        elif name.endswith("_mips"):
            value /= scale
        out[name] = value
    return out


def overhead_pct(traced, untraced) -> float:
    """Traced mean op time over untraced, at nominal speed, minus one."""
    return 100.0 * (mean(s.norm_s for s in traced) / mean(s.norm_s for s in untraced) - 1.0)


def failure_summary(samples) -> dict:
    failed = [s for s in samples if not s.ok]
    return {
        "failed": len(failed),
        "first_failures": [f"{s.op}: {s.error}" for s in failed[:10]],
    }


def finish(ctx: RunContext, result: WorkloadResult, spec: dict) -> dict:
    """Validate metric names, write the report, return the result line."""
    e2e_units, layer_units = metric_units(spec)
    units = layer_units if ctx.trace else e2e_units
    extra = sorted(set(result.metrics) - set(units))
    missing = sorted(set(units) - set(result.metrics))
    if extra or missing:
        raise RuntimeError(f"metric set mismatch: extra={extra} missing={missing}")
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": units[name]}
        for name in units
    }
    line = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    report = dict(result.report)
    report.update(line)
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    (ctx.out_dir / f"report-{ctx.tag}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )
    return line


def format_metrics(metrics: dict[str, float], units: dict[str, str]) -> str:
    width = max((len(name) for name in metrics), default=0)
    return "\n".join(
        f"  {name:<{width}}  {metrics[name]:>14.4f} {units.get(name, '')}"
        for name in sorted(metrics)
    )
