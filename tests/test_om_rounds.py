"""OM's fresh round on the two displacement boundaries, and the
convergence certificate that decides when to run it.

Round 0 declines some candidates because of its layout.  A later round
revisits only those, and it takes one only when the smaller GAT or the
shorter text moved it across its boundary:

* the GP window: ``generate_gp_window_program`` puts an escaped array
  just past GP+32767 in round 0, and round 1 converts its load;
* the ``bsr`` field: eqntott (compile-each) with a 16,509-word ``bsr``
  reach gets a 13th ``jsr`` -> ``bsr`` conversion in round 1.

Each program must run exactly two rounds, monolithic and partitioned,
give the bytes of a link that forces a third round, and lose the
conversion at ``rounds=1``.
"""

import pytest

from repro.benchsuite import build_program
from repro.frontend import compile_sources
from repro.fuzz.generate import generate_gp_window_program
from repro.fuzz.oracle import evaluate_program
from repro.linker import make_crt0
from repro.linker.executable import dump_executable
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om import OMLevel, OMOptions, om_link, transform
from repro.om.verify import VerificationError

#: eqntott's last in-range call site crosses the one-shot check only
#: once round 0's deletions shorten the text.
BSR_WORDS = 16509


def _gp_window(filler=994):
    program = generate_gp_window_program(filler)
    return [make_crt0()] + compile_sources(list(program.modules), "each")


def _eqntott():
    return [make_crt0()] + build_program("eqntott", "each")


#: program -> (objects, options, the count the fresh round raises)
BOUNDARIES = {
    "gp-window": (_gp_window, {}, "loads_converted"),
    "bsr": (_eqntott, {"bsr_range_words": BSR_WORDS}, "jsr_to_bsr"),
}


def _link(objects, libmc, trace=None, **options):
    return om_link(
        objects, [libmc], level=OMLevel.FULL, options=OMOptions(**options),
        trace=trace,
    )


def _rounds(trace: TraceLog) -> int:
    return sum(
        1 for event in trace.events
        if event["name"].startswith("om.round") and event["ph"] == "X"
    )


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_the_fresh_round_runs_on_the_boundary(name, libmc, monkeypatch):
    build, options, counter = BOUNDARIES[name]
    objects = build()
    trace = TraceLog()
    mono = _link(objects, libmc, trace, **options)
    assert _rounds(trace) == 2
    assert provenance.reconcile(trace, mono.counters) == {}
    single = _link(objects, libmc, rounds=1, **options)
    assert getattr(mono.counters, counter) == getattr(single.counters, counter) + 1
    if name == "gp-window":
        assert (mono.stats.after.addr_loads, single.stats.after.addr_loads) == (0, 1)

    exe = dump_executable(mono.executable)
    assert dump_executable(single.executable) != exe
    wpo = _link(objects, libmc, partitions=4, **options)
    assert wpo.wpo.rounds == 2
    assert dump_executable(wpo.executable) == exe

    # A certificate that always flips forces a third round, which
    # changes nothing.
    rounds = []
    run = transform.Transformer.run

    def counted(self):
        rounds.append(self.round_index)
        return run(self)

    monkeypatch.setattr(transform.Transformer, "run", counted)
    monkeypatch.setattr(
        transform, "flipped_facts", lambda prog, facts, **kw: [("forced",)]
    )
    forced = _link(objects, libmc, **options)
    assert rounds == [0, 1, 2]
    assert dump_executable(forced.executable) == exe


@pytest.mark.parametrize("filler", [994, 995, 996])
def test_gp_window_fillers_share_the_boundary(filler, libmc):
    objects = _gp_window(filler)
    assert _link(objects, libmc, rounds=1).stats.after.addr_loads == 1
    assert _link(objects, libmc).stats.after.addr_loads == 0


def test_traced_checks_name_the_flipped_fact(libmc):
    trace = TraceLog()
    _link(_gp_window(), libmc, trace)
    checks = [e["args"] for e in trace.events if e["name"] == "om.converged"]
    assert [check["round"] for check in checks] == [0, 1]
    first, second = checks
    assert first["checked"]["escaped"] >= 1 and not first["converged"]
    assert first["flipped"] == ["escaped gpwindow.o target 0"]
    assert second["converged"] and second["flipped"] == []


@pytest.mark.parametrize("partitions", [0, 4])
@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_a_wrong_certificate_is_unconverged(name, partitions, libmc, monkeypatch):
    build, options, __ = BOUNDARIES[name]
    monkeypatch.setattr(transform, "flipped_facts", lambda prog, facts, **kw: [])
    with pytest.raises(VerificationError, match="^unconverged: round 1 "):
        _link(build(), libmc, verify=True, partitions=partitions, **options)


def test_the_oracle_reports_an_unconverged_link(monkeypatch):
    program = generate_gp_window_program()
    assert not evaluate_program(program).diverged
    monkeypatch.setattr(transform, "flipped_facts", lambda prog, facts, **kw: [])
    report = evaluate_program(program)
    assert [d.kind for d in report.divergences] == ["unconverged"]
