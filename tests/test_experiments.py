"""Experiment-harness tests on a small program subset."""

import pytest

from repro.experiments import figures
from repro.experiments.build import run_variant, variant_stats
from repro.experiments.report import format_table

SUBSET = ["eqntott", "li"]
SCALE = 1


def test_fig3_fractions_bounded():
    keys, rows = figures.fig3_rows(programs=SUBSET, scale=SCALE)
    assert rows[-1]["program"] == "mean"
    for row in rows:
        for key in keys:
            assert 0.0 <= row[key] <= 1.0
        # Converted plus nullified can never exceed all address loads.
        for mode in ("each", "all"):
            for level in ("simple", "full"):
                total = row[f"{mode}_{level}_conv"] + row[f"{mode}_{level}_null"]
                assert total <= 1.0


def test_fig3_full_removes_more_than_simple():
    __, rows = figures.fig3_rows(programs=SUBSET, scale=SCALE)
    for row in rows[:-1]:
        simple = row["each_simple_conv"] + row["each_simple_null"]
        full = row["each_full_conv"] + row["each_full_null"]
        assert full >= simple


def test_fig4_ordering_matches_paper():
    """no-OM needs the most bookkeeping; OM-simple keeps most PV-loads
    but removes GP-resets; OM-full removes nearly everything."""
    __, rows = figures.fig4_rows(programs=SUBSET, scale=SCALE)
    for row in rows[:-1]:
        for mode in ("each", "all"):
            assert row[f"{mode}_none_pv"] >= row[f"{mode}_simple_pv"]
            assert row[f"{mode}_simple_pv"] >= row[f"{mode}_full_pv"]
            assert row[f"{mode}_none_reset"] > row[f"{mode}_simple_reset"]
            assert row[f"{mode}_full_reset"] <= row[f"{mode}_simple_reset"]
            # OM-simple leaves most PV loads (scheduling blocked skips).
            assert row[f"{mode}_simple_pv"] >= 0.5


def test_fig5_full_exceeds_simple():
    __, rows = figures.fig5_rows(programs=SUBSET, scale=SCALE)
    for row in rows[:-1]:
        assert 0.0 < row["each_simple"] < 0.35
        assert row["each_full"] >= row["each_simple"]


def test_fig6_improvements_positive_on_subset():
    __, rows = figures.fig6_rows(programs=SUBSET, scale=SCALE, include_sched=False)
    mean = rows[-1]
    assert mean["each_simple"] > 0
    assert mean["each_full"] > mean["each_simple"]
    assert mean["all_full"] > 0


def test_gat_reduction_band():
    __, rows = figures.gat_rows(programs=SUBSET, scale=SCALE)
    for row in rows[:-1]:
        assert row["gat_after"] < row["gat_before"]
        assert row["ratio"] <= 0.5


def test_run_variant_caches_and_matches():
    first = run_variant("eqntott", "each", "ld", SCALE)
    second = run_variant("eqntott", "each", "ld", SCALE)
    assert first is second  # lru_cache
    full = run_variant("eqntott", "each", "om-full", SCALE)
    assert full.output == first.output


def test_variant_stats_reports_levels():
    simple = variant_stats("li", "each", "om-simple", SCALE)
    full = variant_stats("li", "each", "om-full", SCALE)
    assert simple.stats.level == "simple"
    assert full.stats.level == "full"
    assert full.stats.gat_bytes_after <= simple.stats.gat_bytes_after


def test_format_table_renders():
    keys = ["x"]
    rows = [{"program": "p", "x": 0.5}, {"program": "mean", "x": 0.5}]
    text = format_table(keys, rows, percent=True)
    assert "50.0%" in text and "program" in text


def test_cli_smoke(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig5", "--programs", "eqntott", "--scale", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "eqntott" in out and "paper:" in out
    assert "pipeline:" in out  # the metrics table precedes the figure


def test_cli_rejects_unknown_program(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["fig5", "--programs", "eqntott,nosuch", "--scale", "1",
              "--no-cache"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "pipeline:" not in captured.out  # rejected before any build
    message = captured.err.strip().splitlines()[-1]
    assert "'nosuch'" in message
    assert "eqntott" in message and "shapes" in message


def test_cli_trace_writes_chrome_trace(tmp_path, capsys):
    import json

    from repro.experiments.__main__ import main
    from repro.experiments.build import configure_cache

    path = tmp_path / "pipeline.json"
    try:
        code = main([
            "overhead", "--programs", "eqntott", "--scale", "1",
            "--no-cache", "--trace", str(path),
        ])
    finally:
        configure_cache(None)
    out = capsys.readouterr().out
    assert code == 0
    assert "overhead" in out and "trace written" in out

    doc = json.loads(path.read_text())
    assert "traceEvents" in doc
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    stages = {e["args"]["stage"] for e in spans}
    assert stages == {"build", "link", "profile"}
    for event in doc["traceEvents"]:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)


def test_cli_profile_command(capsys):
    from repro.experiments.__main__ import main

    assert main(["profile", "eqntott", "--scale", "1", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "profile eqntott/each/om-full" in out
    assert "cycle_fraction" in out
    assert "overhead:" in out


def test_cli_cache_warm_cycle(tmp_path, capsys):
    """Second CLI invocation against the same cache dir is all hits."""
    from repro.experiments.__main__ import main
    from repro.experiments.build import clear_caches

    argv = [
        "fig5", "--programs", "eqntott", "--scale", "1",
        "--cache-dir", str(tmp_path),
    ]
    try:
        assert main(argv) == 0
        capsys.readouterr()
        clear_caches()  # simulate a fresh process: only the disk cache survives
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "misses=0" in out
    finally:
        from repro.experiments.build import configure_cache

        configure_cache(None)
