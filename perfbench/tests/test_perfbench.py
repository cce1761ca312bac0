"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

They run scaled-down workloads (a few programs, a few seconds) through
the same code the driver uses, so they take about two minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import core  # noqa: E402

core.import_repro()

from perfbench import dynamic_run, run as driver, serve_mix, static_link  # noqa: E402

SPEC = core.load_spec()
E2E, LAYERS = core.metric_units(SPEC)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")

SMALL = {
    "static-link": (static_link, static_link.Config(programs=("eqntott", "shapes"), edits=2), 4.0),
    "dynamic-run": (dynamic_run, dynamic_run.Config(programs=("mixcall",)), 8.0),
    "serve-mix": (serve_mix, serve_mix.Config(programs=("mixcall",)), 4.0),
}


def small_run(tmp_path, workload, *, trace=False, seed=1, expected_dir=core.EXPECTED_DIR):
    module, config, seconds = SMALL[workload]
    ctx = core.RunContext(workload, seed, seconds, trace, out_dir=tmp_path,
                          expected_dir=expected_dir, log=lambda text: None)
    result = module.run(ctx, config)
    return result, driver.result_line(ctx, module, result, SPEC)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in list(range(20, 400)) + [999, 1000, 1745, 9999, 10000, 25000]:
        p = core.tail_percentile(n)
        values = list(range(n))
        cutoff = core.percentile(values, p)
        assert sum(1 for v in values if v > cutoff) >= core.MIN_BEYOND, (n, p)
    with pytest.raises(ValueError):
        core.tail_percentile(19)


def test_metric_names_are_well_formed_and_declared():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    declared = set()
    for module in (static_link, dynamic_run, serve_mix):
        assert set(module.LAYER_METRICS) <= set(LAYERS)
        declared |= set(module.LAYER_METRICS)
    assert declared == set(LAYERS)
    assert {w["name"] for w in SPEC["workloads"]} == set(driver.WORKLOADS)


def test_corrupted_expected_output_counts_as_failure(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(core.EXPECTED_DIR, expected)
    target = expected / core.expected_name("mixcall", "each", core.RUN_SCALE)
    target.write_text(target.read_text() + "corrupted\n")
    result, line = small_run(tmp_path / "out", "dynamic-run", expected_dir=expected)
    assert line["failed"] > 0 and not line["correct"]
    assert line["metrics"]["success_ratio"]["value"] < 1.0
    assert "expected file" in result.report["first_failures"][0]


def test_another_seed_changes_inputs_but_not_metric_names(tmp_path):
    config = static_link.Config()
    assert static_link._pass_ops(config, 1) != static_link._pass_ops(config, 2)
    assert dynamic_run._pass_ops(dynamic_run.Config(), 1) != dynamic_run._pass_ops(
        dynamic_run.Config(), 2)
    keys = serve_mix.catalog(serve_mix.Config())
    assert serve_mix._prefix(keys, 1, 200) != serve_mix._prefix(keys, 2, 200)
    first, line1 = small_run(tmp_path / "a", "dynamic-run", seed=1)
    second, line2 = small_run(tmp_path / "b", "dynamic-run", seed=2)
    assert first.report["inputs"] != second.report["inputs"]
    assert set(line1["metrics"]) == set(line2["metrics"]) == set(E2E)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_scaled_down_run_reports_every_metric(tmp_path, workload, trace):
    _, line = small_run(tmp_path, workload, trace=trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    units = LAYERS if trace else E2E
    assert set(line["metrics"]) == set(units)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name
    if trace:
        module = SMALL[workload][0]
        produced = {n for n in module.LAYER_METRICS if line["metrics"][n]["value"] != 0}
        assert "op.wall_ms" in produced
        tag = f"{workload}-seed1-trace1"
        events = json.loads((tmp_path / f"trace-{tag}.json").read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert (tmp_path / f"layers-{tag}.txt").read_text().startswith("layer")


def test_driver_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-link",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
