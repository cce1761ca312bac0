"""OM's output bytes, pinned across commits.

Every cell links one benchsuite program in one compile mode under one
link variant and records the SHA-256 of ``dump_executable``.  The fuzz
oracle's ``exe-bytes`` pin only compares variants within one commit;
this table compares a commit with the one that generated it, so a
change that claims to keep OM's output must leave it unchanged.

A change to OM's output on purpose regenerates the table and says so
in CHANGES.md::

    PYTHONPATH=src python tests/test_om_exe_pins.py
"""

from __future__ import annotations

import hashlib

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


def compute_table() -> dict[tuple[str, str, str], str]:
    """Link every cell and return its executable digest."""
    stdlib_blob = dump_archive(build_stdlib().members)

    def digest(executable) -> str:
        return hashlib.sha256(dump_executable(executable)).hexdigest()

    table: dict[tuple[str, str, str], str] = {}
    for program in PROGRAMS:
        for mode in MODES:
            blob = dump_archive([make_crt0()] + build_program(program, mode))

            def om(level, options):
                lib = Archive("libmc", load_archive(stdlib_blob))
                result = om_link(load_archive(blob), [lib], level=level,
                                 options=options)
                return result.executable

            lib = Archive("libmc", load_archive(stdlib_blob))
            table[(program, mode, "ld")] = digest(
                link(load_archive(blob), [lib])
            )
            for variant, (level, options) in VARIANTS.items():
                table[(program, mode, variant)] = digest(om(level, options()))
            if (program, mode) == RELAX_CELL[:2]:
                relax = OMOptions(
                    layout=True, relax=True, bsr_range_words=RELAX_WORDS
                )
                table[RELAX_CELL] = digest(om(OMLevel.FULL, relax))
    return table


def _format(table) -> str:
    return "\n".join(
        f"    {key!r}: {value!r}," for key, value in sorted(table.items())
    )


def test_om_executables_match_their_pins():
    table = compute_table()
    if table != PINS:
        changed = sorted(
            key for key in table.keys() | PINS.keys()
            if table.get(key) != PINS.get(key)
        )
        raise AssertionError(
            f"{len(changed)} pinned cell(s) changed: {changed}\n"
            f"recomputed table:\nPINS = {{\n{_format(table)}\n}}"
        )


if __name__ == "__main__":
    print(f"PINS = {{\n{_format(compute_table())}\n}}")
