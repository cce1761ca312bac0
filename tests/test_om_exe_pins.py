"""OM's output bytes and counts, pinned across commits.

Every cell links one benchsuite program in one compile mode under one
link variant and records the SHA-256 of ``dump_executable``; every OM
cell also records its ``OMStats`` and ``PassCounters``, the numerators
and denominators of the paper's Figs. 3-5.  The fuzz oracle's
``exe-bytes`` pin only compares variants within one commit; these
tables compare a commit with the one that generated them, so a change
that claims to keep OM's output must leave both unchanged.

A change to OM's output on purpose regenerates the tables and says so
in CHANGES.md::

    PYTHONPATH=src python tests/test_om_exe_pins.py
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.benchsuite import build_program, build_stdlib
from repro.linker import link, make_crt0
from repro.linker.executable import dump_executable
from repro.objfile.archive import Archive
from repro.objfile.serialize import dump_archive, load_archive
from repro.om import OMLevel, OMOptions, om_link

PROGRAMS = ("eqntott", "li", "nasa7", "mixcall")
MODES = ("each", "all")
VARIANTS = {
    "om-simple": (OMLevel.SIMPLE, OMOptions),
    "om-full": (OMLevel.FULL, OMOptions),
    "om-full-sched": (OMLevel.FULL, lambda: OMOptions(schedule=True)),
    "om-full-wpo": (OMLevel.FULL, lambda: OMOptions(partitions=4)),
}
#: A narrow jsr->bsr reach (nasa7's om-full text words / 8) so the
#: relaxation fixpoint iterates and demotes sites.
RELAX_CELL = ("nasa7", "each", "om-full-relax235")
RELAX_WORDS = 235


PINS = {
    ('eqntott', 'all', 'ld'): 'e00e0b24a74800227225cb794b265e85506c70159f5852eeb88bcf6c18280f52',
    ('eqntott', 'all', 'om-full'): 'c510a55822bfebc767c493af1ec6250ef07f1e1492cf90dea67edde7e54e01f3',
    ('eqntott', 'all', 'om-full-sched'): '2a56db32bab47f3888a57cfc603bf9f6f45476bc84f900b597b3d5d4d330264e',
    ('eqntott', 'all', 'om-full-wpo'): 'c510a55822bfebc767c493af1ec6250ef07f1e1492cf90dea67edde7e54e01f3',
    ('eqntott', 'all', 'om-simple'): '9d0f2c3bb5dbccfcaae9cf0bc3bc0fd9318addf9c53866b5939be5df36c1411c',
    ('eqntott', 'each', 'ld'): '0579fbbe5bfb2d59e35c582c4973b49ca72e54234e78cfb170b27496279ccf94',
    ('eqntott', 'each', 'om-full'): '9aa1c7c96a16f606afcba51a776ef084fc9a0884947a12d046816070a497b727',
    ('eqntott', 'each', 'om-full-sched'): '06e270698d1494e577f36fdb4a30d3391be537652194d3b67ee1451dda2f959f',
    ('eqntott', 'each', 'om-full-wpo'): '9aa1c7c96a16f606afcba51a776ef084fc9a0884947a12d046816070a497b727',
    ('eqntott', 'each', 'om-simple'): '02898a0ef99b311fdfa7a3fbf245d120543cf0d26cf26e7286a912b0f51fb2ae',
    ('li', 'all', 'ld'): 'c856858cf71d38915b39b334ece11548716e19219dee55724570247231ee4fad',
    ('li', 'all', 'om-full'): 'dd6eb45b5dff79cd437b8d7e506a6303081dfff9f0050beff957724a1d5cd98a',
    ('li', 'all', 'om-full-sched'): '534239991909b24e866a926cdf23a3ad815c9a1d234c2225345726fff097ccd1',
    ('li', 'all', 'om-full-wpo'): 'dd6eb45b5dff79cd437b8d7e506a6303081dfff9f0050beff957724a1d5cd98a',
    ('li', 'all', 'om-simple'): '0fa86cb6f530bc70ccd3fa4554aa177f74b4c6ca5e0a36fd541efb745aa460a1',
    ('li', 'each', 'ld'): '8557e9c4e26f2c693b1b05e9cf10da3e7f3509a1ef26c2b4bb9b80258688ea5b',
    ('li', 'each', 'om-full'): '80eccbea327a399f15d363ac9d0084c02b3a2dc4ffe96891ddf1f44fd1d0d36e',
    ('li', 'each', 'om-full-sched'): 'efadd3910e55512a7298790a8cd4f6f3ee271e5da2d2865cdf5836971e97dd22',
    ('li', 'each', 'om-full-wpo'): '80eccbea327a399f15d363ac9d0084c02b3a2dc4ffe96891ddf1f44fd1d0d36e',
    ('li', 'each', 'om-simple'): '7a58c9a7234b7086303a5de2b38846b87e1faba7263a48e83a70536778253606',
    ('mixcall', 'all', 'ld'): 'dc5f97226f9df002aa3e7cf57cb9e8b0897e18e273728aaeb7f1e49477e55bd4',
    ('mixcall', 'all', 'om-full'): '3b739ef0e02fe893011ffee18be3ea24c41f8ee11407acb337e2434814cdbfb6',
    ('mixcall', 'all', 'om-full-sched'): '7bed80740e0cfc90719dfe73f7c79be1a4f3b0666663d0f49c17441747df2662',
    ('mixcall', 'all', 'om-full-wpo'): '3b739ef0e02fe893011ffee18be3ea24c41f8ee11407acb337e2434814cdbfb6',
    ('mixcall', 'all', 'om-simple'): '736c5f9a9b6b85d78186acb1a06b6a9ae32732947c67105132debf16e3e701c1',
    ('mixcall', 'each', 'ld'): '690c3f07655f9e189fa1da22eb864ff980be9bb9d84d5cebf068e28d8e23d129',
    ('mixcall', 'each', 'om-full'): '02b0b6cd03ff417bf2a78427d32a085c78701aa86879f34d9166403c507fe903',
    ('mixcall', 'each', 'om-full-sched'): '08398de7350a3de51bfde1aa0bdcf5d80c79941ca60a9512078f3d83bfbcda7e',
    ('mixcall', 'each', 'om-full-wpo'): '02b0b6cd03ff417bf2a78427d32a085c78701aa86879f34d9166403c507fe903',
    ('mixcall', 'each', 'om-simple'): '58718f0851e0e95964196276e54634428802e2033588c6d6f08f76a0c4b24e4a',
    ('nasa7', 'all', 'ld'): '067642b2b35ab856fda4d453baf3948e39e040602768efd6e624ce93efb0f97e',
    ('nasa7', 'all', 'om-full'): '0e056a9bd093bb9ad064024559a785c0262fd9efb084ab830656dbda17e8cd65',
    ('nasa7', 'all', 'om-full-sched'): '1f96882d0435488ddb44bc9454ffb2c3e06607910524bfc8ddddf702ad8d5c14',
    ('nasa7', 'all', 'om-full-wpo'): '0e056a9bd093bb9ad064024559a785c0262fd9efb084ab830656dbda17e8cd65',
    ('nasa7', 'all', 'om-simple'): 'dd4a637e3f784d114eec6ce7e3dcbebcc573df385d5fa4ede61b5f0fea467d1b',
    ('nasa7', 'each', 'ld'): '948c097c78a6f046d567fa740aca6ae8dd64d81b341c05bffc731c8ce89c2cfa',
    ('nasa7', 'each', 'om-full'): '4c03e29b00489d41e2067fa40ae602df5d30c014d97dfdc8861a3d8ba0dd138b',
    ('nasa7', 'each', 'om-full-relax235'): '59dce480c0740428b69a1d28de78b2b8023c2934e5e4b13d3ff5370fd48dfaa3',
    ('nasa7', 'each', 'om-full-sched'): '40d06fda5c4df2e8ec792109c81f5d1a4f6edbf5d5e0f59bb2745cd27143ce08',
    ('nasa7', 'each', 'om-full-wpo'): '4c03e29b00489d41e2067fa40ae602df5d30c014d97dfdc8861a3d8ba0dd138b',
    ('nasa7', 'each', 'om-simple'): '92e0c06fd02d4838bdc47f6849f4662b9be8cb1db74b4f61e8746f1ed9f8ff72',
}

#: ``(astuple(OMStats), astuple(PassCounters))`` per OM cell: the
#: level; before and after ``CodeCounts`` (instructions, nops,
#: addr_loads, pv_loads, gp_resets, calls, indirect_calls); loads
#: converted and nullified; GAT and text bytes before and after; procs
#: moved, relax iterations and demotions; then the ``PassCounters``
#: fields in declaration order.
COUNTS = {
    ('eqntott', 'all', 'om-full'): (('full', (1190, 0, 48, 27, 25, 28, 5), (1072, 0, 2, 5, 0, 28, 5), 10, 36, 160, 8, 4808, 4324, 0, 0, 0), (10, 14, 22, 25, 22, 22, 16, 0, 118, 0)),
    ('eqntott', 'all', 'om-full-sched'): (('full', (1190, 0, 48, 27, 25, 28, 5), (1072, 0, 2, 5, 0, 28, 5), 10, 36, 160, 8, 4808, 4356, 0, 0, 0), (10, 14, 22, 25, 22, 22, 16, 0, 118, 0)),
    ('eqntott', 'all', 'om-full-wpo'): (('full', (1190, 0, 48, 27, 25, 28, 5), (1072, 0, 2, 5, 0, 28, 5), 10, 36, 160, 8, 4808, 4324, 0, 0, 0), (10, 14, 22, 25, 22, 22, 16, 0, 118, 0)),
    ('eqntott', 'all', 'om-simple'): (('simple', (1190, 0, 48, 27, 25, 28, 5), (1190, 68, 20, 23, 0, 28, 5), 10, 18, 160, 104, 4808, 4808, 0, 0, 0), (10, 14, 4, 25, 22, 4, 0, 68, 0, 0)),
    ('eqntott', 'each', 'om-full'): (('full', (1196, 0, 50, 29, 27, 29, 5), (1072, 0, 2, 5, 0, 29, 5), 10, 38, 176, 8, 4840, 4324, 0, 0, 0), (10, 14, 24, 27, 24, 24, 16, 0, 124, 0)),
    ('eqntott', 'each', 'om-full-sched'): (('full', (1196, 0, 50, 29, 27, 29, 5), (1072, 0, 2, 5, 0, 29, 5), 10, 38, 176, 8, 4840, 4356, 0, 0, 0), (10, 14, 24, 27, 24, 24, 16, 0, 124, 0)),
    ('eqntott', 'each', 'om-full-wpo'): (('full', (1196, 0, 50, 29, 27, 29, 5), (1072, 0, 2, 5, 0, 29, 5), 10, 38, 176, 8, 4840, 4324, 0, 0, 0), (10, 14, 24, 27, 24, 24, 16, 0, 124, 0)),
    ('eqntott', 'each', 'om-simple'): (('simple', (1196, 0, 50, 29, 27, 29, 5), (1196, 72, 22, 25, 0, 29, 5), 10, 18, 176, 120, 4840, 4840, 0, 0, 0), (10, 14, 4, 27, 24, 4, 0, 72, 0, 0)),
    ('li', 'all', 'om-full'): (('full', (806, 0, 58, 18, 18, 18, 1), (688, 0, 6, 1, 0, 18, 1), 8, 44, 200, 48, 3256, 2772, 0, 0, 0), (8, 27, 17, 18, 17, 17, 19, 0, 118, 0)),
    ('li', 'all', 'om-full-sched'): (('full', (806, 0, 58, 18, 18, 18, 1), (688, 0, 6, 1, 0, 18, 1), 8, 44, 200, 48, 3256, 2788, 0, 0, 0), (8, 27, 17, 18, 17, 17, 19, 0, 118, 0)),
    ('li', 'all', 'om-full-wpo'): (('full', (806, 0, 58, 18, 18, 18, 1), (688, 0, 6, 1, 0, 18, 1), 8, 44, 200, 48, 3256, 2772, 0, 0, 0), (8, 27, 17, 18, 17, 17, 19, 0, 118, 0)),
    ('li', 'all', 'om-simple'): (('simple', (806, 0, 58, 18, 18, 18, 1), (806, 67, 19, 14, 0, 18, 1), 8, 31, 200, 112, 3256, 3256, 0, 0, 0), (8, 27, 4, 18, 17, 4, 0, 67, 0, 0)),
    ('li', 'each', 'om-full'): (('full', (860, 0, 75, 36, 36, 36, 1), (689, 0, 6, 1, 0, 36, 1), 8, 61, 240, 48, 3480, 2788, 0, 0, 0), (8, 26, 35, 36, 35, 35, 19, 0, 171, 0)),
    ('li', 'each', 'om-full-sched'): (('full', (860, 0, 75, 36, 36, 36, 1), (689, 0, 6, 1, 0, 36, 1), 8, 61, 240, 48, 3480, 2788, 0, 0, 0), (8, 26, 35, 36, 35, 35, 19, 0, 171, 0)),
    ('li', 'each', 'om-full-wpo'): (('full', (860, 0, 75, 36, 36, 36, 1), (689, 0, 6, 1, 0, 36, 1), 8, 61, 240, 48, 3480, 2788, 0, 0, 0), (8, 26, 35, 36, 35, 35, 19, 0, 171, 0)),
    ('li', 'each', 'om-simple'): (('simple', (860, 0, 75, 36, 36, 36, 1), (860, 104, 35, 30, 0, 36, 1), 8, 32, 240, 136, 3480, 3480, 0, 0, 0), (8, 26, 6, 36, 35, 6, 0, 104, 0, 0)),
    ('mixcall', 'all', 'om-full'): (('full', (813, 0, 40, 23, 23, 23, 5), (714, 0, 3, 5, 0, 23, 5), 4, 33, 128, 24, 3284, 2884, 0, 0, 0), (4, 15, 18, 23, 18, 18, 10, 0, 99, 0)),
    ('mixcall', 'all', 'om-full-sched'): (('full', (813, 0, 40, 23, 23, 23, 5), (714, 0, 3, 5, 0, 23, 5), 4, 33, 128, 24, 3284, 2912, 0, 0, 0), (4, 15, 18, 23, 18, 18, 10, 0, 99, 0)),
    ('mixcall', 'all', 'om-full-wpo'): (('full', (813, 0, 40, 23, 23, 23, 5), (714, 0, 3, 5, 0, 23, 5), 4, 33, 128, 24, 3284, 2884, 0, 0, 0), (4, 15, 18, 23, 18, 18, 10, 0, 99, 0)),
    ('mixcall', 'all', 'om-simple'): (('simple', (813, 0, 40, 23, 23, 23, 5), (813, 64, 18, 20, 0, 23, 5), 4, 18, 128, 72, 3284, 3284, 0, 0, 0), (4, 15, 3, 23, 18, 3, 0, 64, 0, 0)),
    ('mixcall', 'each', 'om-full'): (('full', (776, 0, 41, 22, 22, 22, 3), (678, 0, 3, 3, 0, 22, 3), 4, 34, 144, 24, 3140, 2740, 0, 0, 0), (4, 15, 19, 22, 19, 19, 10, 0, 98, 0)),
    ('mixcall', 'each', 'om-full-sched'): (('full', (776, 0, 41, 22, 22, 22, 3), (678, 0, 3, 3, 0, 22, 3), 4, 34, 144, 24, 3140, 2768, 0, 0, 0), (4, 15, 19, 22, 19, 19, 10, 0, 98, 0)),
    ('mixcall', 'each', 'om-full-wpo'): (('full', (776, 0, 41, 22, 22, 22, 3), (678, 0, 3, 3, 0, 22, 3), 4, 34, 144, 24, 3140, 2740, 0, 0, 0), (4, 15, 19, 22, 19, 19, 10, 0, 98, 0)),
    ('mixcall', 'each', 'om-simple'): (('simple', (776, 0, 41, 22, 22, 22, 3), (776, 62, 19, 19, 0, 22, 3), 4, 18, 144, 88, 3140, 3140, 0, 0, 0), (4, 15, 3, 22, 19, 3, 0, 62, 0, 0)),
    ('nasa7', 'all', 'om-full'): (('full', (2112, 0, 131, 53, 53, 53, 0), (1867, 0, 0, 0, 0, 53, 0), 52, 79, 216, 0, 8492, 7500, 0, 0, 0), (52, 26, 53, 53, 53, 53, 30, 0, 245, 0)),
    ('nasa7', 'all', 'om-full-sched'): (('full', (2112, 0, 131, 53, 53, 53, 0), (1867, 0, 0, 0, 0, 53, 0), 52, 79, 216, 0, 8492, 7532, 0, 0, 0), (52, 26, 53, 53, 53, 53, 30, 0, 245, 0)),
    ('nasa7', 'all', 'om-full-wpo'): (('full', (2112, 0, 131, 53, 53, 53, 0), (1867, 0, 0, 0, 0, 53, 0), 52, 79, 216, 0, 8492, 7500, 0, 0, 0), (52, 26, 53, 53, 53, 53, 30, 0, 245, 0)),
    ('nasa7', 'all', 'om-simple'): (('simple', (2112, 0, 131, 53, 53, 53, 0), (2112, 135, 50, 50, 0, 53, 0), 52, 29, 216, 152, 8492, 8492, 0, 0, 0), (52, 26, 3, 53, 53, 3, 0, 135, 0, 0)),
    ('nasa7', 'each', 'om-full'): (('full', (2161, 0, 146, 69, 69, 69, 0), (1868, 0, 0, 0, 0, 69, 0), 51, 95, 288, 0, 8748, 7548, 0, 0, 0), (51, 26, 69, 69, 69, 69, 30, 0, 293, 0)),
    ('nasa7', 'each', 'om-full-relax235'): (('full', (2161, 0, 146, 69, 69, 69, 0), (2032, 0, 44, 44, 44, 69, 0), 51, 51, 288, 152, 8748, 8188, 50, 2, 44), (51, 26, 25, 25, 25, 25, 14, 0, 129, 0)),
    ('nasa7', 'each', 'om-full-sched'): (('full', (2161, 0, 146, 69, 69, 69, 0), (1868, 0, 0, 0, 0, 69, 0), 51, 95, 288, 0, 8748, 7580, 0, 0, 0), (51, 26, 69, 69, 69, 69, 30, 0, 293, 0)),
    ('nasa7', 'each', 'om-full-wpo'): (('full', (2161, 0, 146, 69, 69, 69, 0), (1868, 0, 0, 0, 0, 69, 0), 51, 95, 288, 0, 8748, 7548, 0, 0, 0), (51, 26, 69, 69, 69, 69, 30, 0, 293, 0)),
    ('nasa7', 'each', 'om-simple'): (('simple', (2161, 0, 146, 69, 69, 69, 0), (2161, 168, 65, 65, 0, 69, 0), 51, 30, 288, 216, 8748, 8748, 0, 0, 0), (51, 26, 4, 69, 69, 4, 0, 168, 0, 0)),
}


def compute_tables() -> tuple[dict, dict]:
    """Link every cell: ``(executable digests, OM counts)``.

    A cell's counts are ``(astuple(OMStats), astuple(PassCounters))``.
    """
    stdlib_blob = dump_archive(build_stdlib().members)

    def digest(executable) -> str:
        return hashlib.sha256(dump_executable(executable)).hexdigest()

    digests: dict[tuple[str, str, str], str] = {}
    counts: dict[tuple[str, str, str], tuple] = {}
    for program in PROGRAMS:
        for mode in MODES:
            blob = dump_archive([make_crt0()] + build_program(program, mode))

            def om(key, level, options):
                lib = Archive("libmc", load_archive(stdlib_blob))
                result = om_link(load_archive(blob), [lib], level=level,
                                 options=options)
                digests[key] = digest(result.executable)
                counts[key] = (astuple(result.stats), astuple(result.counters))

            lib = Archive("libmc", load_archive(stdlib_blob))
            digests[(program, mode, "ld")] = digest(
                link(load_archive(blob), [lib])
            )
            for variant, (level, options) in VARIANTS.items():
                om((program, mode, variant), level, options())
            if (program, mode) == RELAX_CELL[:2]:
                relax = OMOptions(
                    layout=True, relax=True, bsr_range_words=RELAX_WORDS
                )
                om(RELAX_CELL, OMLevel.FULL, relax)
    return digests, counts


def _format(name, table) -> str:
    rows = "\n".join(
        f"    {key!r}: {value!r}," for key, value in sorted(table.items())
    )
    return f"{name} = {{\n{rows}\n}}"


@pytest.fixture(scope="module")
def tables():
    return compute_tables()


def _check(name, table, pins) -> None:
    if table != pins:
        changed = sorted(
            key for key in table.keys() | pins.keys()
            if table.get(key) != pins.get(key)
        )
        raise AssertionError(
            f"{len(changed)} pinned cell(s) changed: {changed}\n"
            f"recomputed table:\n{_format(name, table)}"
        )


def test_om_executables_match_their_pins(tables):
    _check("PINS", tables[0], PINS)


def test_om_counts_match_their_pins(tables):
    _check("COUNTS", tables[1], COUNTS)


if __name__ == "__main__":
    digests, counts = compute_tables()
    print(_format("PINS", digests))
    print()
    print(_format("COUNTS", counts))
