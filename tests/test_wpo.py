"""Partitioned whole-program optimization: byte-identity, shard
determinism, the audit trail, and incremental relinks through the
shard cache."""

import pickle
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import wpo
from repro.wpo import members as _members  # noqa: F401 - wpo.members for patching
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
from repro.om import driver as om_driver
from repro.wpo import partition_modules
from repro.wpo.shard import ShardProgram


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


def test_wpo_byte_identical_after_a_profile_guided_layout(tmp_path):
    """A layout plan reorders the bodies before the rounds, so the
    partitioned link starts from those bodies, cold and warm."""
    program = generate_scale_program(4, 9)
    options = dict(layout=True, relax=True)
    mono = _exe(_link(program, OMOptions(**options)))
    cache = ArtifactCache(tmp_path, stamp="wpo-pgo")
    for expected_hits in (False, True):
        linked = _link(program, OMOptions(partitions=3, **options), cache)
        assert _exe(linked) == mono
        assert (linked.wpo.hits > 0) is expected_hits


@pytest.mark.parametrize(
    "extra", ["schedule", "remove_dead_procs", "verify"],
)
def test_a_warm_relink_builds_what_reads_every_body(extra, tmp_path):
    """Rescheduling, dead-procedure removal and ``verify``'s skipped
    round read every body after the rounds, so a warm relink whose
    shards all hit decodes every member, with the skip labels and
    entry-setup removals that landed on it, and links the bytes of the
    monolithic link."""
    program = generate_scale_program(11, 10)
    options = {extra: True}
    mono = _exe(_link(program, OMOptions(**options)))
    cache = ArtifactCache(tmp_path, stamp="wpo-readers")
    cold = _link(program, OMOptions(partitions=3, **options), cache)
    warm = _link(program, OMOptions(partitions=3, **options), cache)
    assert _exe(cold) == _exe(warm) == mono
    assert warm.wpo.misses == 0
    assert warm.wpo.built == cold.wpo.built == list(range(len(cold.wpo.built)))


def _count_pickling(monkeypatch) -> dict[str, int]:
    """Count the pickle.dumps / pickle.loads calls made from repro.wpo
    (its shard entries, in ``members``, are all it pickles)."""
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
    monkeypatch.setattr(wpo.members, "pickle", counting)
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
    # Its events carry pcs, so it builds every body, and its round
    # event says so.
    trace = TraceLog()
    warm = link(OMOptions(partitions=3), cache, trace)
    assert warm.wpo.misses == 0 and warm.wpo.hits == cold.wpo.misses
    assert provenance.reconcile(trace, warm.counters) == {}
    assert _event_multiset(trace) == mono
    assert [
        event["args"]["built"] for event in trace.events
        if event["name"] == "om.wpo.round"
    ] == [len(warm.wpo.built)] * warm.wpo.rounds


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


def _count_bodies(monkeypatch) -> dict[str, list[str]]:
    """Record the module of every translate_module, decode_module and
    reassemble_module call a link makes."""
    calls: dict[str, list[str]] = {"translate": [], "decode": [], "reassemble": []}

    def counted(name, real, module_name):
        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            calls[name].append(module_name(args[0], result))
            return result

        return call

    for owner in (wpo.members, om_driver):
        monkeypatch.setattr(owner, "translate_module", counted(
            "translate", symbolic.translate_module, lambda obj, out: obj.name
        ))
    for owner in (wpo.driver, om_driver):
        monkeypatch.setattr(owner, "reassemble_module", counted(
            "reassemble", symbolic.reassemble_module, lambda module, out: module.name
        ))
    for owner in (wpo.driver, wpo.members):
        monkeypatch.setattr(owner, "decode_module", counted(
            "decode", symbolic.decode_module, lambda value, out: out.name
        ))
    return calls


def test_a_real_second_round_decodes_what_it_reads(tmp_path, monkeypatch):
    """eqntott with a 16,509-word bsr reach runs a real second round
    that converts one more call.  A warm link's round 0 hits every
    shard and builds no body.  Only round 0 is cached, and the cold
    link's final objects describe its second round, so the certificate
    builds every member once, by decoding it, and the second round
    runs every shard on those bodies.  Nothing is translated."""
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

    rounds: list[tuple[int, int]] = []  # (round, bodies built before it)
    run_round = wpo.driver._run_round

    def counted_round(members, *args, **kwargs):
        rounds.append((kwargs["round_index"], len(members.built)))
        return run_round(members, *args, **kwargs)

    monkeypatch.setattr(wpo.driver, "_run_round", counted_round)
    calls = _count_bodies(monkeypatch)
    warm = link(options, cache)
    assert _exe(warm) == _exe(cold)
    modules = sorted(name for members in warm.wpo.members for name in members)
    assert rounds == [(0, 0), (1, len(modules))]
    assert warm.wpo.hits == warm.wpo.shards == warm.wpo.misses
    assert calls["translate"] == []
    assert sorted(calls["decode"]) == modules
    assert sorted(calls["reassemble"]) == modules
    assert len(warm.wpo.built) == len(modules)


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
    """A cold link's finish encodes each module once.  A relink whose
    shards all hit translates, decodes and reassembles nothing, and
    encodes no object: its shard entries supply the final objects."""
    encoded: list[int] = []  # words per encoded text section
    encode_stream = symbolic.encode_stream

    def counted(instrs):
        encoded.append(len(instrs))
        return encode_stream(instrs)

    monkeypatch.setattr(symbolic, "encode_stream", counted)
    program = generate_scale_program(11, 10)
    mono = _exe(_link(program, OMOptions()))
    linked = resolve_inputs(_compile(program), [build_stdlib()]).modules
    cache = ArtifactCache(tmp_path, stamp="wpo-encode")

    encoded.clear()
    cold = _link(program, OMOptions(partitions=3), cache)
    assert _exe(cold) == mono
    assert len(encoded) == len(linked)  # the finish, once per module
    assert cold.wpo.built == list(range(len(linked)))

    encoded.clear()
    calls = _count_bodies(monkeypatch)
    warm = _link(program, OMOptions(partitions=3), cache)
    assert _exe(warm) == mono
    assert warm.wpo.misses == 0 and warm.wpo.built == []
    assert calls == {"translate": [], "decode": [], "reassemble": []}
    assert encoded == []


def test_an_edit_builds_only_its_missed_shard(tmp_path, monkeypatch):
    options = OMOptions(partitions=4)
    cache = ArtifactCache(tmp_path, stamp="wpo-built")
    _link(generate_scale_program(7, 12), options, cache)
    assert _link(generate_scale_program(7, 12), options, cache).wpo.built == []

    edit = generate_scale_program(7, 12, salts={5: 2})
    mono = _exe(_link(edit, OMOptions()))
    calls = _count_bodies(monkeypatch)
    edited = _link(edit, options, cache)
    assert _exe(edited) == mono
    missed = {
        name
        for index in edited.wpo.missed_shards
        for name in edited.wpo.members[index]
    }
    assert edited.wpo.missed_shards and "s5.o" in missed
    assert sorted(calls["translate"]) == sorted(missed)
    assert sorted(calls["reassemble"]) == sorted(missed)
    assert calls["decode"] == []
    assert len(edited.wpo.built) == len(missed)


def _reshaped(program, index: int, how: str):
    """``program`` with module ``index`` grown by one statement, one
    call or one global, so its size, its call sites or its literals
    move."""
    name, text = program.modules[index]
    stem = name.removesuffix(".mc")
    head, tail = text.rsplit("    return", 1)
    if how == "instruction":
        head += "    t = t * 3;\n"
    elif how == "call":
        head = "extern int f1(int x);\n" + head + "    t = t + f1(t & 1);\n"
    else:
        head = f"int {stem}_h;\n" + head + f"    {stem}_h = t;\n"
    modules = list(program.modules)
    modules[index] = (name, head + "    return" + tail)
    return SimpleNamespace(modules=modules)


@pytest.mark.parametrize("how", ["instruction", "call", "global"])
def test_an_interface_edit_links_byte_identical(how, tmp_path):
    options = OMOptions(partitions=4)
    cache = ArtifactCache(tmp_path, stamp="wpo-interface")
    base = generate_scale_program(7, 12)
    _link(base, options, cache)
    assert _link(base, options, cache).wpo.misses == 0

    edit = _reshaped(base, 5, how)
    assert edit.modules[5][0] == "s5.mc" and edit.modules[5] != base.modules[5]
    mono = _link(edit, OMOptions())
    edited = _link(edit, options, cache)
    assert _exe(edited) == _exe(mono)
    assert edited.counters == mono.counters
    assert edited.wpo.misses > 0


def test_salted_edit_keeps_partition_boundaries(tmp_path):
    base = _link(generate_scale_program(3, 12), OMOptions(partitions=4),
                 ArtifactCache(tmp_path / "a", stamp="s"))
    salted = _link(generate_scale_program(3, 12, salts={4: 5}),
                   OMOptions(partitions=4),
                   ArtifactCache(tmp_path / "b", stamp="s"))
    assert base.wpo.members == salted.wpo.members


# -- partition determinism -------------------------------------------------------


def _objects(program):
    return resolve_inputs(_compile(program), []).modules


def _member_names(modules, shards):
    return [
        sorted(modules[index].name for index in shard.members)
        for shard in shards
    ]


def test_partition_independent_of_module_discovery_order():
    modules = _objects(generate_scale_program(13, 9))
    reference = _member_names(modules, partition_modules(modules, 3))
    permuted = list(reversed(modules))
    shuffled = _member_names(permuted, partition_modules(permuted, 3))
    assert sorted(map(tuple, shuffled)) == sorted(map(tuple, reference))


def test_partition_covers_every_module_exactly_once():
    modules = _objects(generate_scale_program(2, 8))
    shards = partition_modules(modules, 3)
    seen = [index for shard in shards for index in shard.members]
    assert sorted(seen) == list(range(len(modules)))
    assert 1 <= len(shards) <= 3
    assert all(shard.members for shard in shards)


def test_partition_clamps_to_module_count():
    modules = _objects(generate_scale_program(1, 3))
    shards = partition_modules(modules, 99)
    assert len(shards) <= len(modules)


@pytest.mark.parametrize("name", ["eqntott", "li", "mixcall", "nasa7", "scale"])
def test_input_objects_partition_and_lay_out_as_their_translations(name, libmc):
    """Round 0 partitions and lays out the input objects, not their
    translations: the call pairs, weights and OM's layout agree."""
    from repro.layout.callgraph import build_call_graph
    from repro.linker.layout import LayoutOptions, compute_layout
    from repro.om.transform import lay_out
    from repro.wpo.partition import _call_pairs, _module_weight

    objects = (
        _compile(generate_scale_program(3, 40)) if name == "scale"
        else [make_crt0()] + build_program(name, "each")
    )
    lib = Archive(libmc.name, load_archive(dump_archive(libmc.members)))
    inputs = resolve_inputs(objects, [lib])
    modules = [symbolic.translate_module(obj) for obj in inputs.modules]

    graph = build_call_graph(modules)
    assert Counter(_call_pairs(inputs.modules)) == Counter(
        (site.caller_module, site.callee_module) for site in graph.sites
    )
    assert [_module_weight(obj) for obj in inputs.modules] == [
        sum(len(proc.instructions()) for proc in module.procs) + 1
        for module in modules
    ]

    layout_options = OMOptions()
    options = LayoutOptions(
        gat_capacity=layout_options.gat_capacity,
        sort_commons=layout_options.sort_commons,
    )
    direct = compute_layout(inputs, options)
    translated, __ = lay_out(modules, options)
    assert direct.text_end == translated.text_end
    assert [g.slots for g in direct.groups] == [g.slots for g in translated.groups]
    assert direct.module_group == translated.module_group
    for index, obj in enumerate(inputs.modules):
        assert direct.gp_for_module(index) == translated.gp_for_module(index)
        for sym in obj.symbols:
            if sym.is_defined:
                assert direct.symbol_addr(index, sym.name) == (
                    translated.symbol_addr(index, sym.name)
                ), (obj.name, sym.name)


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
