"""The encodable ranges: one table of every displacement and immediate field.

Each entry is one encodable form with its field width, signedness,
scale (bytes per unit) and base (what the value counts from), after
the per-mode tables of binary rewriters; the queries below are derived
from them.  The encoder, the assemblers, the linker's relocation
patching and GP window, OM, the relaxation fixpoint, the compiler's
constant materialization and the fuzz generator all query this table
and state no bound of their own.  The decoder
(:func:`repro.isa.encoding.decode`), the machine's ``ldah`` semantics
and the JIT's hint reader transcribe the widths themselves, on
purpose: a wrong entry here then shows up as an encode/decode or
interpreter divergence instead of agreeing with itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Field:
    """One encodable form: the values ``lo`` to ``hi`` of a ``bits``-wide
    field, in units of ``scale`` bytes counted from ``base``."""

    name: str
    bits: int
    signed: bool
    scale: int
    base: str
    lo: int
    hi: int

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def holds(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def _field(name: str, bits: int, *, signed: bool, scale: int = 1,
           base: str = "") -> Field:
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return Field(name, bits, signed, scale, base, lo, hi)


MEM_DISP = _field("memory displacement", 16, signed=True, base="rb")
BRANCH_DISP = _field("branch displacement", 21, signed=True, scale=4,
                     base="pc+4")
JUMP_HINT = _field("jump hint", 14, signed=False, scale=4, base="0")
OPERATE_LIT = _field("operate literal", 8, signed=False)
PAL_FUNC = _field("PAL function", 26, signed=False)

#: GP sits this far past the start of its GAT group (0x7FF0, the
#: conventional bias).  GAT reduction only moves data down toward the
#: group start, so ``-GP_BIAS`` is a floor no later round can cross.
GP_BIAS = 32752

#: The GP-relative window: the displacements one ``lda``/``ldq`` off GP
#: reaches, floored at the start of GP's GAT group.
GP_WINDOW = replace(MEM_DISP, name="GP window", base="gp", lo=-GP_BIAS)

#: The 8-byte GAT slots one GP addresses: its whole window (8190).
DEFAULT_GAT_CAPACITY = (GP_WINDOW.hi - GP_WINDOW.lo + 1) // 8

#: The words a branch reaches each way from PC + 4: the default of the
#: narrower reach OM and the relaxation fixpoint may be given.
BRANCH_REACH_WORDS = -BRANCH_DISP.lo

_DISP_LO, _DISP_HI, _DISP_MASK = MEM_DISP.lo, MEM_DISP.hi, MEM_DISP.mask
_DISP_SIGN = -_DISP_LO
_DISP_BITS = MEM_DISP.bits
_GP_LO, _GP_HI = GP_WINDOW.lo, GP_WINDOW.hi
_WORD = BRANCH_DISP.scale


def gp_reaches(d: int) -> bool:
    """May an escaped literal at GP + ``d`` be materialized with a single
    ``lda`` off GP?"""
    return _GP_LO <= d <= _GP_HI


def gp_rebases(d: int, offsets: list[int]) -> bool:
    """May every use of an address load of GP + ``d`` be rebased onto GP,
    each use's own displacement (``offsets``, none negative, so that the
    floor check on ``d`` covers them) folded in?"""
    return (
        _GP_LO <= d
        and all(0 <= off for off in offsets)
        and all(d + off <= _GP_HI for off in offsets)
    )


def split_hi_lo(value: int) -> tuple[int, int]:
    """``value`` as an ``ldah`` high half and a signed ``lda`` low half:
    ``(hi << 16) + lo == value``."""
    lo = ((value & _DISP_MASK) ^ _DISP_SIGN) - _DISP_SIGN
    return (value - lo) >> _DISP_BITS, lo


def shared_high(disps: list[int]) -> int:
    """The one ``ldah`` high half every low half of a group shares: the
    smallest whose signed low window covers the largest displacement,
    if it covers the smallest too.  Raises ValueError when none does,
    which a tiny span that straddles a window edge can cause."""
    hi = (max(disps) - _DISP_HI + _DISP_MASK) >> _DISP_BITS
    if min(disps) - (hi << _DISP_BITS) < _DISP_LO:
        raise ValueError("gprel group spans more than one ldah window")
    return hi


def shares_one_high(disps: list[int]) -> bool:
    """The shared-``ldah`` group test: may one ``ldah`` serve uses at
    these displacements on every layout?

    Only when they are all one displacement.  The signed low half cuts
    GP space into fixed 64 KB windows, and two distinct displacements
    straddle an edge between them on some layout (a later round's
    smaller GAT moves the data down), where :func:`shared_high` has no
    answer.  This keeps the split independent of the layout.
    """
    return min(disps) == max(disps)


def branch_window(reach_words: int, slack_bytes: int = 0) -> tuple[int, int]:
    """The lowest and highest word displacement a branch of
    ``reach_words`` words each way takes, ``slack_bytes`` short of
    either end."""
    slack_words = -(-slack_bytes // _WORD)
    return -reach_words + slack_words, reach_words - 1 - slack_words


def bsr_reaches(caller_addr: int, callee_addr: int, reach_words: int) -> bool:
    """OM's one-shot ``jsr`` -> ``bsr`` range check: the branch reach
    less 64 KB of slack for the code motion the decision cannot see."""
    return abs(callee_addr - caller_addr) < _WORD * reach_words - (1 << 16)
