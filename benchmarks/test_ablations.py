"""Ablations of the design choices the paper calls out.

* small-data sorting (the COMMON sort near the GAT);
* BSR retargeting past callee GP setup;
* loop-target quadword alignment (the paper's ``ear`` regression);
* the fresh transformation round (on the two displacement boundaries
  it can reach);
* the escaped-literal 2-for-1 conversion OM leaves on the table.
"""

import pytest

from repro.benchsuite import build_program, build_stdlib
from repro.frontend import compile_sources
from repro.fuzz.generate import generate_gp_window_program
from repro.linker import link, make_crt0
from repro.machine import run
from repro.om import OMLevel, OMOptions, om_link

SUBSET = ["eqntott", "li", "hydro2d"]


@pytest.fixture(scope="module")
def env():
    return make_crt0(), build_stdlib()


def build(env, name, scale):
    crt0, lib = env
    return [crt0] + build_program(name, "each", scale=scale), lib


def test_ablation_sort_commons(benchmark, env, bench_scale):
    """Without small-data sorting, fewer loads can be nullified."""

    def measure():
        gains = []
        for name in SUBSET:
            objs, lib = build(env, name, bench_scale)
            on = om_link(objs, [lib], level=OMLevel.SIMPLE)
            off = om_link(
                objs, [lib], level=OMLevel.SIMPLE,
                options=OMOptions(sort_commons=False),
            )
            gains.append((name, on.stats.loads_nullified, off.stats.loads_nullified))
        return gains

    gains = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for name, with_sort, without in gains:
        print(f"  {name:10s} nullified with sort={with_sort}, without={without}")
    assert all(with_sort >= without for __, with_sort, without in gains)
    assert any(with_sort > without for __, with_sort, without in gains)


def test_ablation_gat_rounds(benchmark, env):
    """A single round forgoes what the smaller GAT or the shorter text
    brings across a displacement boundary.

    A later round revisits only the address loads and calls round 0
    declined because of its layout, so it never nullifies a load round 0
    converted.  The two programs sit on the two boundaries: an escaped
    array just past GP+32767 in round 0 (its load converts in round 1),
    and eqntott with a ``bsr`` reach of 16,509 words (one more call
    converts in round 1).  Both run at their built-in sizes.
    """
    crt0, lib = env
    gp_window = list(generate_gp_window_program().modules)
    programs = [
        ("gp-window", lambda: compile_sources(gp_window, "each"), {}),
        ("eqntott", lambda: build_program("eqntott", "each"),
         {"bsr_range_words": 16509}),
    ]

    def taken(result):
        counters = result.counters
        return (
            counters.loads_converted + counters.loads_nullified
            + counters.jsr_to_bsr
        )

    def measure():
        out = []
        for name, objects, options in programs:
            objs = [crt0] + objects()
            multi = om_link(
                objs, [lib], level=OMLevel.FULL, options=OMOptions(**options)
            )
            single = om_link(
                objs, [lib], level=OMLevel.FULL,
                options=OMOptions(rounds=1, **options),
            )
            out.append((name, taken(multi), taken(single)))
        return out

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for name, multi, single in rows:
        print(
            f"  {name:10s} loads and calls taken multi-round={multi}, "
            f"single-round={single}"
        )
    assert all(multi > single for __, multi, single in rows)


def test_ablation_alignment(benchmark, env, bench_scale):
    """Quadword alignment of backward-branch targets can help or hurt
    (the paper saw ear regress); both must preserve behaviour."""

    def measure():
        out = []
        for name in SUBSET + ["ear"]:
            objs, lib = build(env, name, bench_scale)
            base = run(link(objs, [lib]))
            aligned = run(
                om_link(
                    objs, [lib], level=OMLevel.FULL, options=OMOptions(schedule=True)
                ).executable
            )
            unaligned = run(
                om_link(
                    objs,
                    [lib],
                    level=OMLevel.FULL,
                    options=OMOptions(schedule=True, align_loop_targets=False),
                ).executable
            )
            assert aligned.output == unaligned.output == base.output
            out.append((name, aligned.cycles, unaligned.cycles))
        return out

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for name, aligned, unaligned in rows:
        delta = 100.0 * (unaligned - aligned) / unaligned
        print(f"  {name:10s} aligned={aligned} unaligned={unaligned} ({delta:+.2f}%)")


def test_ablation_convert_escaped(benchmark, env, bench_scale):
    """The 2-for-1 escaped-literal conversion empties the GAT further
    but trades one load for two dependent instructions."""

    def measure():
        out = []
        for name in SUBSET:
            objs, lib = build(env, name, bench_scale)
            default = om_link(objs, [lib], level=OMLevel.FULL)
            aggressive = om_link(
                objs, [lib], level=OMLevel.FULL,
                options=OMOptions(convert_escaped=True),
            )
            assert (
                run(aggressive.executable, timed=False).output
                == run(default.executable, timed=False).output
            )
            out.append(
                (name, default.stats.gat_bytes_after, aggressive.stats.gat_bytes_after)
            )
        return out

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for name, default, aggressive in rows:
        print(f"  {name:10s} GAT default={default}B aggressive={aggressive}B")
    assert all(aggressive <= default for __, default, aggressive in rows)
