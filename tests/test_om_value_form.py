"""OM's uid-free value form of a symbolic module.

``encode_module`` turns a module into nested tuples of primitives and
``decode_module`` rebuilds it; the WPO shard cache keys shards on
``module_digest`` of the value and stores values.  A field the value
misses would let two different modules share a shard key, so one test
changes every dataclass field of the symbolic form and checks that the
digest sees the change and decoding restores it.  The others check
that real modules (the benchsuite cells, the 128-module chain and
libmc, translated and after OM's rounds) round-trip to the same bytes
and that digests do not depend on the process.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.om.driver
from repro.benchsuite import build_program
from repro.benchsuite.suite import DECAF_PROGRAMS, PROGRAMS
from repro.fuzz.generate import generate_scale_program
from repro.frontend import compile_sources
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS, Op
from repro.linker import make_crt0
from repro.linker.resolve import resolve_inputs
from repro.minicc import compile_module
from repro.minicc.mcode import MInstr, MLabel, next_uid
from repro.objfile.archive import Archive
from repro.objfile.relocations import LituseKind
from repro.objfile.sections import Section, SectionKind
from repro.objfile.serialize import dump_archive, dump_object, load_archive
from repro.objfile.symbols import ProcInfo, Symbol, SymbolKind
from repro.om import OMLevel, om_link
from repro.om.symbolic import (
    DataRef,
    SymbolicModule,
    SymbolicProc,
    decode_module,
    encode_module,
    module_digest,
    reassemble_module,
    translate_module,
)

SOURCE = """
int g;
int table[6];
extern int helper(int x);
int pick(int x) {
    switch (x) {
        case 0: return 10; case 1: return 11; case 2: return 12;
        case 3: return 13; case 4: return 14;
    }
    return -1;
}
int main() {
    int i;
    for (i = 0; i < 5; i++) table[i] = pick(i) + helper(i);
    g = table[2];
    __putint(g);
    return 0;
}
"""


# -- a structural view, independent of the value form ---------------------------


def _view(module: SymbolicModule):
    """Every dataclass field of ``module``, recursively, as comparable
    values: uids are left out, and a field that names an instruction by
    uid names it by its item index (a gprel pair's group by the index
    of the group's first item)."""
    position = {
        item.uid: index
        for index, item in enumerate(module.all_items())
        if isinstance(item, MInstr)
    }
    groups: dict[int, int] = {}

    def instr_field(item: MInstr, name: str):
        value = getattr(item, name)
        if value is None:
            return None
        if name == "lituse":
            return (position.get(value[0], -1), value[1])
        if name == "gpdisp_pair":
            return position.get(value, -1)
        if name == "gprel" and value[0] != "gprel16":
            return value[:3] + (groups.setdefault(value[3], position[item.uid]),)
        return view(value)

    def view(value):
        if isinstance(value, MInstr):
            return ("MInstr",) + tuple(
                (f.name, instr_field(value, f.name))
                for f in dataclasses.fields(value)
                if f.name != "uid"
            )
        if dataclasses.is_dataclass(value) and not isinstance(value, Op):
            return (type(value).__name__,) + tuple(
                (f.name, view(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            )
        if isinstance(value, (list, tuple)):
            return tuple(view(x) for x in value)
        if isinstance(value, dict):
            return tuple((view(k), view(v)) for k, v in value.items())
        if isinstance(value, set):
            return tuple(sorted(value))
        if isinstance(value, bytearray):
            return bytes(value)
        return value

    return view(module)


# -- every field is encoded -----------------------------------------------------


def _sample() -> SymbolicModule:
    """A translated module with a jump table, GP pairs, literal uses and
    data; one symbol gets a procedure descriptor so ProcInfo is present."""
    module = translate_module(compile_module(SOURCE, "main.o"))
    module.other_symbols[0].proc = ProcInfo(uses_gp=False, frame_size=16)
    return module


def _first_instr_with(module, name) -> MInstr:
    return next(
        item for item in module.all_items()
        if isinstance(item, MInstr) and getattr(item, name) is not None
    )


#: Where each encoded class is found in ``_sample()``.
_LOCATE = {
    SymbolicModule: lambda m: m,
    SymbolicProc: lambda m: m.proc_named("pick"),
    MLabel: lambda m: next(i for i in m.all_items() if isinstance(i, MLabel)),
    MInstr: lambda m: _first_instr_with(m, "lituse"),
    Instruction: lambda m: _first_instr_with(m, "lituse").instr,
    Section: lambda m: next(iter(m.data_sections.values())),
    DataRef: lambda m: next(r for r in m.data_refs if r.label is not None),
    Symbol: lambda m: m.other_symbols[0],
    ProcInfo: lambda m: m.other_symbols[0].proc,
}

#: New values for fields that are None (or containers) on the sample.
_NEW = {
    (MInstr, "literal"): ("x", 8),
    (MInstr, "gpdisp_base"): "main",
    (MInstr, "branch"): ("x", 4),
    (MInstr, "hint"): "x",
    (MInstr, "jmptab"): ("x", 3),
    (Instruction, "lit"): 5,
    (Symbol, "section"): SectionKind.SDATA,
    (Symbol, "proc"): lambda v: None,
    (SymbolicModule, "procs"): lambda v: v + [SymbolicProc("extra")],
    (SymbolicModule, "data_sections"): lambda v: {
        **v, SectionKind.SBSS: Section(SectionKind.SBSS, bss_size=8)
    },
    (SymbolicModule, "data_refs"): lambda v: v + [DataRef(SectionKind.DATA, 40, "g")],
    (SymbolicModule, "other_symbols"): lambda v: v + [Symbol("x", SymbolKind.UNDEF)],
    (SymbolicProc, "items"): lambda v: v + [MLabel("pick$extra")],
    (SymbolicProc, "export_labels"): lambda v: v | {"pick$skipgp"},
}


def _changed(cls, name, obj, module):
    """A value for ``obj.name`` that differs from the current one."""
    value = getattr(obj, name)
    other = next(  # an instruction other than ``obj``
        i for i in module.all_items() if isinstance(i, MInstr) and i is not obj
    )
    if cls is MInstr and name == "uid":
        return value + 1_000_000
    if cls is MInstr and name == "lituse":
        return (other.uid, LituseKind.JSR)
    if cls is MInstr and name == "gpdisp_pair":
        return other.uid
    if cls is MInstr and name == "gprel":
        return ("gprelhigh", "g", 8, other.uid)
    new = _NEW.get((cls, name))
    if callable(new):
        return new(value)
    if value is None:
        if new is None:
            raise AssertionError(f"no new value for {cls.__name__}.{name}")
        return new
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum) and not isinstance(value, int):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, Op):
        return OPS["subq" if value.name != "subq" else "addq"]
    if isinstance(value, Instruction):
        return value.replace(disp=value.disp + 1)
    if isinstance(value, bytearray):
        return value + b"\x01"
    if isinstance(value, tuple) and isinstance(value[0], str):
        return (value[0] + "x",) + value[1:]
    raise AssertionError(f"no new value for {cls.__name__}.{name} = {value!r}")


@pytest.mark.parametrize("cls", list(_LOCATE), ids=lambda cls: cls.__name__)
def test_the_value_form_carries_every_field(cls):
    reference = _sample()
    digest = module_digest(encode_module(reference))
    for field in dataclasses.fields(cls):
        module = _sample()
        obj = _LOCATE[cls](module)
        setattr(obj, field.name, _changed(cls, field.name, obj, module))
        value = encode_module(module)
        floor = next_uid()
        decoded = decode_module(value)
        if field.name == "uid":
            # Uids are identity, not content: the digest ignores them
            # and decoding allocates fresh ones.
            assert module_digest(value) == digest
            assert _LOCATE[cls](decoded).uid > floor
        else:
            assert _view(module) != _view(reference), field.name
            assert module_digest(value) != digest, field.name
        assert _view(decoded) == _view(module), field.name


def test_references_to_no_item_decode_to_uids_no_item_has():
    module = _sample()
    use = _first_instr_with(module, "lituse")
    use.lituse = (next_uid(), LituseKind.BASE)
    decoded = decode_module(encode_module(module))
    uids = {item.uid for item in decoded.all_items() if isinstance(item, MInstr)}
    assert _LOCATE[MInstr](decoded).lituse[0] not in uids
    assert encode_module(decoded) == encode_module(module)


# -- real modules round-trip ------------------------------------------------------


def _check_round_trip(module: SymbolicModule, encoded: bytes) -> None:
    """``encoded`` is ``dump_object(reassemble_module(module))``."""
    value = encode_module(module)
    floor = next_uid()
    decoded = decode_module(value)
    assert encode_module(decoded) == value, module.name
    assert module_digest(encode_module(decoded)) == module_digest(value)
    assert dump_object(reassemble_module(decoded)) == encoded, module.name
    uids = [item.uid for item in decoded.all_items() if isinstance(item, MInstr)]
    assert uids == sorted(set(uids)), module.name
    assert not uids or uids[0] > floor, module.name


def _checked_om_link(monkeypatch, objects, libmc) -> int:
    """An om-full link that round-trips every module its rounds leave,
    at the finish; returns how many modules it checked."""
    real = repro.om.driver.reassemble_module
    seen = []

    def reassemble(module, placement=None):
        obj = real(module, placement)
        _check_round_trip(module, dump_object(obj))
        seen.append(module.name)
        return obj

    monkeypatch.setattr(repro.om.driver, "reassemble_module", reassemble)
    lib = Archive(libmc.name, load_archive(dump_archive(libmc.members)))
    om_link(objects, [lib], level=OMLevel.FULL)
    monkeypatch.undo()
    return len(seen)


def _check_fresh(objects, libmc) -> None:
    for obj in resolve_inputs(objects, [libmc]).modules:
        module = translate_module(obj)
        _check_round_trip(module, dump_object(reassemble_module(module)))


@pytest.mark.parametrize("program", PROGRAMS + DECAF_PROGRAMS)
def test_benchsuite_modules_round_trip(program, libmc, monkeypatch):
    for mode in ("each", "all"):
        objects = [make_crt0()] + build_program(program, mode)
        _check_fresh(objects, libmc)
        assert _checked_om_link(monkeypatch, objects, libmc) == len(
            resolve_inputs(objects, [libmc]).modules
        )


def test_chain_and_libmc_modules_round_trip(libmc, monkeypatch):
    chain = compile_sources(list(generate_scale_program(11, 128).modules))
    objects = [make_crt0()] + chain
    _check_fresh(objects, libmc)
    assert _checked_om_link(monkeypatch, objects, libmc) == 129
    for member in libmc.members:
        module = translate_module(member)
        _check_round_trip(module, dump_object(reassemble_module(module)))


# -- digests do not depend on the process -------------------------------------------

_DIGESTS = """
import json
import repro.om.driver
from repro.benchsuite import build_program, build_stdlib
from repro.linker import make_crt0
from repro.linker.resolve import resolve_inputs
from repro.om import OMLevel, om_link
from repro.om.symbolic import encode_module, module_digest, translate_module

libmc = build_stdlib()
objects = [make_crt0()] + build_program("li", "each")
digests = [
    module_digest(encode_module(translate_module(obj)))
    for obj in resolve_inputs(objects, [libmc]).modules
]
real = repro.om.driver.reassemble_module

def reassemble(module, placement=None):
    digests.append(module_digest(encode_module(module)))
    return real(module, placement)

repro.om.driver.reassemble_module = reassemble
om_link(objects, [libmc], level=OMLevel.FULL)
print(json.dumps(digests))
"""


def test_digests_match_across_hash_seeds():
    src = str(Path(repro.om.driver.__file__).parents[2])

    def digests(seed: str) -> list[str]:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _DIGESTS], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        return json.loads(out)

    first = digests("1")
    assert len(first) > 2 and len(set(first)) > 1
    assert digests("2") == first
