"""Partitioned whole-program optimization: byte-identity, shard
determinism, the audit trail, and incremental relinks through the
shard cache."""

import pickle
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import wpo
from repro.benchsuite import build_program, build_stdlib
from repro.cache import ArtifactCache
from repro.fuzz.generate import generate_scale_program
from repro.linker import LinkError, make_crt0
from repro.linker.executable import dump_executable
from repro.linker.resolve import resolve_inputs
from repro.minicc import compile_module
from repro.objfile.archive import Archive
from repro.objfile.serialize import dump_archive, load_archive
from repro.obs import provenance
from repro.obs.trace import TraceLog
from repro.om import OMLevel, OMOptions, om_link, symbolic
from repro.om.symbolic import translate_module
from repro.wpo import partition_modules
from repro.wpo.shard import ShardProgram, ShardResult


def _compile(program):
    return [make_crt0()] + [
        compile_module(text, name.replace(".mc", ".o"))
        for name, text in program.modules
    ]


def _link(program, options, cache=None):
    lib = build_stdlib()
    libmc = Archive(lib.name, load_archive(dump_archive(lib.members)))
    return om_link(
        _compile(program),
        [libmc],
        level=OMLevel.FULL,
        options=options,
        cache=cache,
    )


def _exe(result) -> bytes:
    return dump_executable(result.executable)


# -- byte-identity --------------------------------------------------------------


def test_wpo_byte_identical_cold_and_warm(tmp_path):
    program = generate_scale_program(11, 10)
    mono = _link(program, OMOptions())
    cache = ArtifactCache(tmp_path, stamp="wpo-test")

    cold = _link(program, OMOptions(partitions=3), cache)
    assert _exe(cold) == _exe(mono)
    assert cold.counters == mono.counters
    assert cold.wpo is not None and cold.wpo.misses > 0

    warm = _link(program, OMOptions(partitions=3), cache)
    assert _exe(warm) == _exe(mono)
    assert warm.counters == mono.counters
    assert warm.wpo.misses == 0 and warm.wpo.hits == cold.wpo.misses
    assert warm.wpo.missed_shards == []


def test_wpo_byte_identical_without_cache_and_across_partition_counts():
    program = generate_scale_program(4, 7)
    mono = _exe(_link(program, OMOptions()))
    for partitions in (2, 4, 7):
        assert _exe(_link(program, OMOptions(partitions=partitions))) == mono


def _count_pickling(monkeypatch) -> dict[str, int]:
    """Count the pickle.dumps / pickle.loads calls made from repro.wpo
    (its driver is the only module there that pickles)."""
    calls = {"dumps": 0, "loads": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(pickle, name)(*args, **kwargs)

        return call

    counting = SimpleNamespace(
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        dumps=counted("dumps"),
        loads=counted("loads"),
    )
    monkeypatch.setattr(wpo.driver, "pickle", counting)
    return calls


# -- address lookups: only a symbol without an address drops an optimization ----


def test_shard_program_addr_of_a_missing_symbol_is_a_link_error():
    prog = ShardProgram(
        [], gp=[], group={}, single=True, addr={(0, "x"): 8},
        resolutions={}, stubs={},
    )
    assert prog.addr(0, "x", 4) == 12
    with pytest.raises(LinkError, match="'y'"):
        prog.addr(0, "y")


@pytest.mark.parametrize("relax", [False, True], ids=["site-decisions", "shard-addresses"])
def test_wpo_address_lookup_fault_fails_the_link(monkeypatch, relax):
    """A round layout whose lookups fail with anything but LinkError
    fails the link.  Without relaxation the site decisions look up
    first; with it, the shard jobs' address tables do."""
    from repro.om import transform

    real = transform.compute_layout

    def compute_layout(inputs, options):
        layout = real(inputs, options)

        def symbol_addr(module_index, name):
            raise KeyError(name)

        layout.symbol_addr = symbol_addr
        return layout

    monkeypatch.setattr(transform, "compute_layout", compute_layout)
    with pytest.raises(KeyError):
        _link(generate_scale_program(4, 7), OMOptions(partitions=2, relax=relax))


def test_inline_shards_pickle_only_for_the_cache(tmp_path, monkeypatch):
    program = generate_scale_program(11, 10)
    mono = _exe(_link(program, OMOptions()))
    calls = _count_pickling(monkeypatch)

    inline = _link(program, OMOptions(partitions=3))
    assert _exe(inline) == mono
    assert calls == {"dumps": 0, "loads": 0}

    cache = ArtifactCache(tmp_path, stamp="wpo-pickle")
    cold = _link(program, OMOptions(partitions=3), cache)
    assert _exe(cold) == mono
    assert cold.wpo.hits == 0 and cold.wpo.misses > 0
    assert calls == {"dumps": cold.wpo.misses, "loads": 0}

    calls.update(dumps=0, loads=0)
    warm = _link(program, OMOptions(partitions=3), cache)
    assert _exe(warm) == mono
    assert warm.wpo.misses == 0 and warm.wpo.hits > 0
    assert calls == {"dumps": 0, "loads": warm.wpo.hits}


# -- the audit trail ------------------------------------------------------------


def _event_multiset(trace: TraceLog) -> Counter:
    """The provenance events compared by all but pc, round and reason
    (a cached shard replays the pcs of the run that produced it)."""

    def key(args):
        counter = args["counter"]
        return (
            args["action"], args["pass_name"], args["module"], args["proc"],
            args["before"], args["after"],
            tuple(counter) if isinstance(counter, list) else counter,
        )

    return Counter(map(key, provenance.events(trace)))


@pytest.mark.parametrize("name", ["eqntott", "mixcall", "li"])
def test_partitioned_link_keeps_the_whole_audit_trail(name, libmc, tmp_path):
    blob = dump_archive([make_crt0()] + build_program(name, "each"))

    def link(options, cache=None, trace=None):
        lib = Archive(libmc.name, load_archive(dump_archive(libmc.members)))
        return om_link(load_archive(blob), [lib], level=OMLevel.FULL,
                       options=options, cache=cache, trace=trace)

    def audited(options, cache=None):
        trace = TraceLog()
        result = link(options, cache, trace)
        assert provenance.reconcile(trace, result.counters) == {}
        return _event_multiset(trace)

    mono = audited(OMOptions())
    assert sum(mono.values()) > 0
    assert audited(OMOptions(partitions=3)) == mono

    # An untraced cold link records nothing, so a traced link cannot
    # replay its entries: it misses, records, and caches the events...
    cache = ArtifactCache(tmp_path, stamp="wpo-audit")
    cold = link(OMOptions(partitions=3), cache)
    assert cold.wpo.misses > 0
    trace = TraceLog()
    traced = link(OMOptions(partitions=3), cache, trace)
    assert traced.wpo.hits == 0 and traced.wpo.misses == cold.wpo.misses
    assert _event_multiset(trace) == mono
    # ...which the next traced link replays, every decision included.
    trace = TraceLog()
    warm = link(OMOptions(partitions=3), cache, trace)
    assert warm.wpo.misses == 0 and warm.wpo.hits == cold.wpo.misses
    assert provenance.reconcile(trace, warm.counters) == {}
    assert _event_multiset(trace) == mono


def test_untraced_cached_relinks_record_nothing(tmp_path, monkeypatch):
    from repro.om.transform import Transformer

    emits = []
    emit = Transformer._emit

    def counted(self, *args, **kwargs):
        emits.append(self)
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(Transformer, "_emit", counted)
    cache = ArtifactCache(tmp_path, stamp="wpo-record")
    options = OMOptions(partitions=4)
    cold = _link(generate_scale_program(7, 12), options, cache)
    edit = _link(generate_scale_program(7, 12, salts={5: 2}), options, cache)
    assert cold.wpo.misses > 0 and edit.wpo.misses > 0
    assert emits == []


# -- incrementality -------------------------------------------------------------


def test_one_module_edit_misses_only_its_shard(tmp_path):
    cache = ArtifactCache(tmp_path, stamp="wpo-inc")
    options = OMOptions(partitions=4)
    base = generate_scale_program(7, 12)
    _link(base, options, cache)

    edited = generate_scale_program(7, 12, salts={5: 2})
    mono = _link(edited, OMOptions())
    inc = _link(edited, options, cache)
    assert _exe(inc) == _exe(mono)

    touched = [
        index
        for index, members in enumerate(inc.wpo.members)
        if "s5.o" in members
    ]
    assert len(touched) == 1
    assert inc.wpo.missed_shards == touched
    assert inc.wpo.hits > 0  # the untouched shards replayed from cache


def test_converged_shards_keep_their_live_modules(tmp_path, monkeypatch):
    """eqntott with a 16,509-word bsr reach runs a real second round
    that converts one more call.  In a warm link, that round's hits
    decode only the shard holding the call; the others keep their live
    modules."""
    blob = dump_archive([make_crt0()] + build_program("eqntott", "each"))
    lib = build_stdlib()

    def link(options, cache):
        libmc = Archive(lib.name, load_archive(dump_archive(lib.members)))
        return om_link(load_archive(blob), [libmc], level=OMLevel.FULL,
                       options=options, cache=cache)

    options = OMOptions(partitions=3, bsr_range_words=16509)
    cache = ArtifactCache(tmp_path, stamp="wpo-live")
    cold = link(options, cache)
    assert cold.wpo.rounds == 2

    rounds: list[int] = []  # the round each _run_round call runs
    decodes: list[int] = []  # the round of each decode_module call
    hits: list[tuple[int, bool]] = []  # (round, every member kept live)
    run_round = wpo.driver._run_round
    decode = wpo.shard.decode_module
    from_entry = ShardResult.from_entry

    def counted_round(*args, **kwargs):
        rounds.append(kwargs["round_index"])
        return run_round(*args, **kwargs)

    def counted_decode(value):
        decodes.append(rounds[-1])
        return decode(value)

    def checked_from_entry(entry, live):
        result = from_entry(entry, live)
        kept = all(out is module for out, module in zip(result.modules, live))
        hits.append((rounds[-1], kept))
        return result

    monkeypatch.setattr(wpo.driver, "_run_round", counted_round)
    monkeypatch.setattr(wpo.shard, "decode_module", counted_decode)
    monkeypatch.setattr(ShardResult, "from_entry", staticmethod(checked_from_entry))

    warm = link(options, cache)
    assert _exe(warm) == _exe(cold)
    assert warm.wpo.misses == 0 and rounds == [0, 1]
    assert warm.wpo.members[2] == ["rand.o", "runtime.o"]
    # The converted call and its callee's skip label are in shard 2.
    assert [kept for r, kept in hits if r == 1] == [True, True, False]
    assert decodes.count(1) == 2
    # Round 0's hits decode what their shards changed.
    assert [kept for r, kept in hits if r == 0] == [False] * warm.wpo.shards


def test_one_module_edit_after_a_warm_link_misses_only_its_shard(tmp_path):
    program = generate_scale_program(11, 10)
    options = OMOptions(partitions=3)
    cache = ArtifactCache(tmp_path, stamp="wpo-edit")
    _link(program, options, cache)
    assert _link(program, options, cache).wpo.misses == 0
    edit = generate_scale_program(11, 10, salts={4: 3})
    edited = _link(edit, options, cache)
    assert _exe(edited) == _exe(_link(edit, OMOptions()))
    assert edited.wpo.missed_shards == [
        index for index, members in enumerate(edited.wpo.members)
        if "s4.o" in members
    ]


def test_cached_rounds_encode_no_object(tmp_path, monkeypatch):
    """With or without a cache hit, only the finish encodes objects."""
    encoded: list[int] = []  # words per encoded text section
    encode_stream = symbolic.encode_stream

    def counted(instrs):
        encoded.append(len(instrs))
        return encode_stream(instrs)

    monkeypatch.setattr(symbolic, "encode_stream", counted)
    program = generate_scale_program(11, 10)
    linked = resolve_inputs(_compile(program), [build_stdlib()]).modules
    cache = ArtifactCache(tmp_path, stamp="wpo-encode")
    for expected_hits in (False, True):
        encoded.clear()
        result = _link(program, OMOptions(partitions=3), cache)
        assert (result.wpo.hits > 0) is expected_hits
        assert len(encoded) == len(linked)


def test_salted_edit_keeps_partition_boundaries(tmp_path):
    base = _link(generate_scale_program(3, 12), OMOptions(partitions=4),
                 ArtifactCache(tmp_path / "a", stamp="s"))
    salted = _link(generate_scale_program(3, 12, salts={4: 5}),
                   OMOptions(partitions=4),
                   ArtifactCache(tmp_path / "b", stamp="s"))
    assert base.wpo.members == salted.wpo.members


# -- partition determinism -------------------------------------------------------


def _symbolic_modules(program):
    inputs = resolve_inputs(_compile(program), [])
    return [translate_module(module) for module in inputs.modules]


def _member_names(modules, shards):
    return [
        sorted(modules[index].name for index in shard.members)
        for shard in shards
    ]


def test_partition_independent_of_module_discovery_order():
    modules = _symbolic_modules(generate_scale_program(13, 9))
    reference = _member_names(modules, partition_modules(modules, 3))
    permuted = list(reversed(modules))
    shuffled = _member_names(permuted, partition_modules(permuted, 3))
    assert sorted(map(tuple, shuffled)) == sorted(map(tuple, reference))


def test_partition_covers_every_module_exactly_once():
    modules = _symbolic_modules(generate_scale_program(2, 8))
    shards = partition_modules(modules, 3)
    seen = [index for shard in shards for index in shard.members]
    assert sorted(seen) == list(range(len(modules)))
    assert 1 <= len(shards) <= 3
    assert all(shard.members for shard in shards)


def test_partition_clamps_to_module_count():
    modules = _symbolic_modules(generate_scale_program(1, 3))
    shards = partition_modules(modules, 99)
    assert len(shards) <= len(modules)


# -- the scale generator ---------------------------------------------------------


def test_scale_generator_is_deterministic():
    a = generate_scale_program(21, 6)
    b = generate_scale_program(21, 6)
    assert a.modules == b.modules
    assert len(a.modules) == 6


def test_scale_salt_changes_exactly_the_named_modules():
    base = generate_scale_program(21, 6)
    salted = generate_scale_program(21, 6, salts={3: 1})
    differing = [
        name
        for (name, text), (__, other) in zip(base.modules, salted.modules)
        if text != other
    ]
    assert differing == ["s3.mc"]


def test_scale_programs_agree_across_link_variants():
    from repro.linker import link
    from repro.machine import run

    program = generate_scale_program(5, 8)
    lib = build_stdlib()
    libmc = Archive(lib.name, load_archive(dump_archive(lib.members)))
    ld = run(link(_compile(program), [libmc]), timed=False,
             max_instructions=5_000_000)
    wpo = run(_link(program, OMOptions(partitions=3)).executable,
              timed=False, max_instructions=5_000_000)
    assert ld.halted and wpo.halted
    assert ld.output == wpo.output
