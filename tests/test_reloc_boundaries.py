"""16-bit displacement boundary behaviour.

The GAT-split and GP-relative conversion legality checks all hinge on
signed 16-bit windows: displacements of exactly ±32768/32767 in the
linker's relocation patching, the ldah-window straddle in GAT-split
groups, and the ``-32752`` GAT-floor lower bound of the GP window
(:mod:`repro.isa.ranges`).
"""

import pytest

from repro.isa.ranges import (
    gp_reaches,
    gp_rebases,
    shared_high,
    shares_one_high,
    split_hi_lo,
)
from repro.isa.textasm import assemble_text
from repro.linker import link
from repro.linker.relocate import _patch_disp16
from repro.linker.resolve import LinkError
from repro.machine import run
from repro.om import OMLevel, OMOptions, om_link


# -- _patch_disp16 -------------------------------------------------------------


def _word_image(word: int = 0xFFFF0000) -> bytearray:
    return bytearray(word.to_bytes(4, "little"))


def test_patch_disp16_accepts_extremes():
    image = _word_image()
    _patch_disp16(image, 0, 32767, "hi edge")
    assert int.from_bytes(image, "little") & 0xFFFF == 0x7FFF
    image = _word_image()
    _patch_disp16(image, 0, -32768, "lo edge")
    assert int.from_bytes(image, "little") & 0xFFFF == 0x8000


def test_patch_disp16_preserves_upper_bits():
    image = _word_image(0xABCD0000)
    _patch_disp16(image, 0, -1, "upper bits")
    assert int.from_bytes(image, "little") == 0xABCDFFFF


@pytest.mark.parametrize("disp", [32768, -32769, 65536, -65536])
def test_patch_disp16_rejects_out_of_range(disp):
    with pytest.raises(LinkError):
        _patch_disp16(_word_image(), 0, disp, "overflow")


# -- split_hi_lo ---------------------------------------------------------------


@pytest.mark.parametrize("value", [0, 1, -1, 32767, -32768, 32768, -32769,
                                   65535, 65536, 0x12345678, -0x12345678])
def test_split_hi_lo_reconstructs(value):
    hi, lo = split_hi_lo(value)
    assert -32768 <= lo <= 32767
    assert (hi << 16) + lo == value


def test_split_hi_lo_boundaries():
    assert split_hi_lo(32767) == (0, 32767)
    assert split_hi_lo(32768) == (1, -32768)
    assert split_hi_lo(-32768) == (0, -32768)
    assert split_hi_lo(-32769) == (-1, 32767)


# -- GAT-split ldah window selection -------------------------------------------


def test_pick_gprel_high_zero_window():
    assert shared_high([0]) == 0
    assert shared_high([-32768, 32767]) == 0  # the exact hi=0 window


def test_pick_gprel_high_next_window():
    assert shared_high([32768]) == 1
    assert shared_high([32768, 98303]) == 1  # the exact hi=1 window


def test_pick_gprel_high_negative_window():
    assert shared_high([-32769]) == -1
    assert shared_high([-98304, -32769]) == -1


def test_pick_gprel_high_rejects_window_overflow():
    with pytest.raises(ValueError):
        shared_high([-32768, 32768])  # spans 64KB + 1


def test_pick_gprel_high_rejects_straddle():
    # A tiny span can still straddle two ldah windows: 32767 needs
    # hi=0, 32769 needs hi=1, and no single hi covers both.
    with pytest.raises(ValueError):
        shared_high([32767, 32769])


def test_patch_of_picked_high_and_lows_in_range():
    """The (hi, lo) pairs shared_high implies always patch cleanly."""
    for disps in ([0, 100, 32767], [-32768, 0], [32768, 40000], [-32769, -40000]):
        hi = shared_high(disps)
        _patch_disp16(_word_image(), 0, hi, "hi")
        for disp in disps:
            _patch_disp16(_word_image(), 0, disp - (hi << 16), "lo")


# -- the GP window's conversion queries (-32752 GAT floor) ---------------------


def test_nullify_lower_bound_is_gat_floor():
    assert gp_rebases(-32752, [0])
    assert not gp_rebases(-32753, [0])


def test_nullify_upper_bound_folds_use_offsets():
    assert gp_rebases(0, [32767])
    assert not gp_rebases(0, [32768])
    assert gp_rebases(32767, [0])
    assert not gp_rebases(32768, [0])


def test_nullify_rejects_negative_use_offsets():
    assert not gp_rebases(0, [-1])


def test_direct_range_boundaries():
    assert gp_reaches(-32752)
    assert not gp_reaches(-32753)
    assert gp_reaches(32767)
    assert not gp_reaches(32768)


def test_split_range_boundaries():
    """One ``ldah`` serves a group only when its uses share one
    displacement: any two distinct ones straddle a window edge under
    some GP, where no high half covers both."""
    assert shares_one_high([0])
    assert shares_one_high([40000, 40000, 40000])
    assert not shares_one_high([0, 1])
    assert not shares_one_high([0, 24])
    assert not shares_one_high([40000, 40000 + 32767])
    with pytest.raises(ValueError):
        shared_high([32767, 32768])  # [0, 1] with GP 32767 bytes lower
    with pytest.raises(ValueError):
        shared_high([32760, 32784])  # [0, 24] with GP 32760 bytes lower


#: One address load whose two uses sit 24 bytes apart, ``target`` placed
#: so that their displacements from GP straddle the edge between two
#: ``ldah`` windows (32767 | 32768).
STRADDLE = """
        .ent    main
main:   ldah    $gp, 0($pv)       !gpdisp:main
        lda     $gp, 0($gp)       !gpdisp_pair
        ldq     $t0, target($gp)  !literal
        ldq     $a0, 0($t0)       !lituse_base
        call_pal putint
        ldq     $a0, 24($t0)      !lituse_base
        call_pal putint
        lda     $v0, 0($zero)
        ret     $zero, ($ra)
        .end    main

        .data
pad:    .space  {pad}
target: .quad   11, 22, 33, 44
"""

OM_VARIANTS = {
    "om-simple": (OMLevel.SIMPLE, OMOptions()),
    "om-full": (OMLevel.FULL, OMOptions()),
    "om-full-wpo": (OMLevel.FULL, OMOptions(partitions=4)),
    "om-full-layout": (OMLevel.FULL, OMOptions(layout=True, relax=True)),
    "om-full-verify": (OMLevel.FULL, OMOptions(verify=True)),
}


@pytest.mark.parametrize("variant", OM_VARIANTS)
@pytest.mark.parametrize("pad", [65496, 65504, 65512])
def test_split_group_never_straddles_an_ldah_window(pad, variant, crt0, libmc):
    obj = assemble_text(STRADDLE.format(pad=pad), "s.o")
    assert run(link([crt0, obj], [libmc])).output == "11\n44\n"
    level, options = OM_VARIANTS[variant]
    result = om_link([crt0, obj], [libmc], level=level, options=options)
    assert run(result.executable).output == "11\n44\n"
