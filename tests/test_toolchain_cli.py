"""Toolchain CLI integration tests (the real-toolchain workflow)."""

import json
import pickle

import pytest

from repro.benchsuite import build_stdlib
from repro.objfile.fileio import save_archive
from repro.toolchain import main

MAIN_SRC = """
extern int helper(int x);
int main() {
    __putint(helper(20) + 2);
    return 0;
}
"""

HELPER_SRC = "int helper(int x) { return x * 2; }"


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "main.mc").write_text(MAIN_SRC)
    (tmp_path / "helper.mc").write_text(HELPER_SRC)
    save_archive(build_stdlib(), tmp_path / "libmc.a")
    return tmp_path


def test_compile_link_run(workspace, capsys):
    main(["cc", str(workspace / "main.mc")])
    main(["cc", str(workspace / "helper.mc")])
    main(
        [
            "ld",
            str(workspace / "main.o"),
            str(workspace / "helper.o"),
            "-o",
            str(workspace / "prog.exe"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "prog.exe")])
    assert capsys.readouterr().out == "42\n"


def test_om_link_smaller_and_same_output(workspace, capsys):
    main(["cc", str(workspace / "main.mc")])
    main(["cc", str(workspace / "helper.mc")])
    objects = [str(workspace / "main.o"), str(workspace / "helper.o")]
    lib = ["-l", str(workspace / "libmc.a")]
    main(["ld", *objects, "-o", str(workspace / "a.exe"), *lib])
    main(["om", *objects, "-o", str(workspace / "b.exe"), *lib])
    capsys.readouterr()
    main(["run", str(workspace / "a.exe")])
    base_out = capsys.readouterr().out
    main(["run", str(workspace / "b.exe")])
    assert capsys.readouterr().out == base_out == "42\n"

    a = pickle.loads((workspace / "a.exe").read_bytes())
    b = pickle.loads((workspace / "b.exe").read_bytes())
    assert b.text_size < a.text_size


def test_om_partitions_write_the_same_bytes(workspace, capsys):
    main(["cc", str(workspace / "main.mc")])
    main(["cc", str(workspace / "helper.mc")])
    objects = [str(workspace / "main.o"), str(workspace / "helper.o")]
    lib = ["-l", str(workspace / "libmc.a")]
    main(["om", *objects, "-o", str(workspace / "full.exe"), *lib])
    capsys.readouterr()
    main(["om", *objects, "--partitions", "2",
          "-o", str(workspace / "wpo.exe"), *lib])
    assert "wpo: shards=2 " in capsys.readouterr().out
    assert (workspace / "wpo.exe").read_bytes() == (
        workspace / "full.exe"
    ).read_bytes()


def test_compile_all_mode(workspace, capsys):
    main(
        [
            "cc",
            "-all",
            str(workspace / "main.mc"),
            str(workspace / "helper.mc"),
            "-o",
            str(workspace / "unit.o"),
        ]
    )
    main(
        [
            "ld",
            str(workspace / "unit.o"),
            "-o",
            str(workspace / "all.exe"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "all.exe")])
    assert capsys.readouterr().out == "42\n"


def test_ar_and_demand_pull(workspace, tmp_path, capsys):
    main(["cc", str(workspace / "helper.mc")])
    main(["ar", str(tmp_path / "libh.a"), str(workspace / "helper.o")])
    main(["cc", str(workspace / "main.mc")])
    main(
        [
            "ld",
            str(workspace / "main.o"),
            "-o",
            str(workspace / "prog.exe"),
            "-l",
            str(tmp_path / "libh.a"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "prog.exe")])
    assert capsys.readouterr().out == "42\n"


def test_dis_object_and_executable(workspace, capsys):
    main(["cc", str(workspace / "helper.mc")])
    capsys.readouterr()
    main(["dis", str(workspace / "helper.o")])
    out = capsys.readouterr().out
    assert "sll" in out or "addq" in out or "mulq" in out

    main(["cc", str(workspace / "main.mc")])
    main(
        [
            "ld",
            str(workspace / "main.o"),
            str(workspace / "helper.o"),
            "-o",
            str(workspace / "p.exe"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["dis", str(workspace / "p.exe")])
    out = capsys.readouterr().out
    assert "0x012000" in out  # text base addresses


def test_om_gc_flag(workspace, capsys):
    main(["cc", str(workspace / "main.mc")])
    main(["cc", str(workspace / "helper.mc")])
    main(
        [
            "om",
            str(workspace / "main.o"),
            str(workspace / "helper.o"),
            "-o",
            str(workspace / "gc.exe"),
            "-l",
            str(workspace / "libmc.a"),
            "-gc",
            "-sched",
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "gc.exe")])
    assert capsys.readouterr().out == "42\n"


DECAF_SRC = """
extern int helper(int x);
class Adder {
    int bias;
    int apply(int x) { return helper(x) + bias; }
}
int main() {
    Adder a = new Adder();
    a.bias = 2;
    print(a.apply(20));
    return 0;
}
"""


def test_decaf_source_dispatches_by_extension(workspace, capsys):
    (workspace / "dmain.dcf").write_text(DECAF_SRC)
    main(["cc", str(workspace / "dmain.dcf")])
    main(["cc", str(workspace / "helper.mc")])
    main(
        [
            "om",
            str(workspace / "dmain.o"),
            str(workspace / "helper.o"),
            "-o",
            str(workspace / "d.exe"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "d.exe")])
    assert capsys.readouterr().out == "42\n"


def test_lang_flag_overrides_extension(workspace, capsys):
    # Decaf source under a .mc name compiles when --lang forces it.
    (workspace / "forced.mc").write_text(DECAF_SRC)
    main(["cc", "--lang", "decaf", str(workspace / "forced.mc")])
    main(["cc", str(workspace / "helper.mc")])
    main(
        [
            "ld",
            str(workspace / "forced.o"),
            str(workspace / "helper.o"),
            "-o",
            str(workspace / "f.exe"),
            "-l",
            str(workspace / "libmc.a"),
        ]
    )
    capsys.readouterr()
    main(["run", str(workspace / "f.exe")])
    assert capsys.readouterr().out == "42\n"


def test_mixed_language_compile_all_is_rejected(workspace):
    (workspace / "dmain.dcf").write_text(DECAF_SRC)
    with pytest.raises(SystemExit, match="mixed languages"):
        main(
            [
                "cc",
                "-all",
                str(workspace / "dmain.dcf"),
                str(workspace / "helper.mc"),
                "-o",
                str(workspace / "unit.o"),
            ]
        )


def test_metrics_scrapes_a_daemon_in_both_formats(capsys):
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs.metrics import SCHEMA
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    from tests.test_serve_server import stub_runner

    with ServerThread(
        None, ServeConfig(workers=1),
        executor=ThreadPoolExecutor(max_workers=1), job_runner=stub_runner,
    ) as st:
        with ServeClient(st.address, timeout=30) as client:
            assert client.compile(sources=[["m.mc", "hello"]])["ok"]
        address = f"{st.address[0]}:{st.address[1]}"
        capsys.readouterr()
        assert main(["metrics", address]) == 0
        text = capsys.readouterr().out
        assert main(["metrics", address, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
    lines = text.splitlines()
    assert "# TYPE serve_completed_total counter" in lines
    assert "serve_completed_total 1" in lines
    assert 'serve_request_seconds_count{op="compile"} 1' in lines
    assert doc["schema"] == SCHEMA
    values = {series["name"]: series.get("value") for series in doc["metrics"]}
    assert values["serve_completed_total"] == 1
    assert values["serve_requests_total"] == 3  # the compile and both scrapes
