"""Disk cache behaviour and the command-line interface."""

import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flagops import cache as cm
from flagops import cli, nilcox, verify
from flagops.cli import main


def test_cache_roundtrip(tmp_path):
    entry = cm.CacheEntry.make({"kind": "schubert", "n": 3, "degree": 4}, {"rows": [1, 2, 3]})
    back = cm.roundtrip(tmp_path, entry)
    assert back == entry
    assert cm.load(tmp_path, entry.key) == entry


def test_cache_tamper_quarantines(tmp_path):
    entry = cm.CacheEntry.make({"kind": "schubert", "n": 3, "degree": 4}, {"rows": [1]})
    path = cm.store(tmp_path, entry)
    blob = json.loads(path.read_text())
    blob["payload"]["rows"] = [999]
    path.write_text(json.dumps(blob))
    assert cm.load(tmp_path, entry.key) is None  # rejected
    assert not path.exists()  # moved aside, not deleted
    quarantined = list(tmp_path.glob("*.quarantined-*"))
    assert len(quarantined) == 1
    # a fresh store works again
    cm.store(tmp_path, entry)
    assert cm.load(tmp_path, entry.key) == entry


def test_cache_version_bump_is_miss(tmp_path):
    entry = cm.CacheEntry.make({"kind": "schubert", "n": 3, "degree": 4}, [1, 2])
    path = cm.store(tmp_path, entry)
    blob = json.loads(path.read_text())
    blob["schema_version"] = 999
    path.write_text(json.dumps(blob))
    assert cm.load(tmp_path, entry.key) is None
    assert path.exists()  # version mismatch is a miss, not corruption


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_compute_schubert_matches_table():
    code, out = run_cli("compute", "schubert", "--n", "3", "--word", "2,1,0")
    assert code == 0
    blob = json.loads(out)
    assert blob["terms"] == [
        {"coeff": "1/2", "p": [2, 1], "x": [0, 0, 0]},
        {"coeff": "1/6", "p": [1, 1, 1], "x": [0, 0, 0]},
    ]


def test_compute_kschur_and_structure():
    code, out = run_cli("compute", "kschur", "--n", "3", "--partition", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["basis"] == "p"
    assert {tuple(t["partition"]): t["coeff"] for t in blob["terms"]} == {
        (2,): "1/2",
        (1, 1): "1/2",
    }
    code, out = run_cli("compute", "structure", "--n", "2", "--u", "0", "--v", "0")
    assert code == 0
    blob = json.loads(out)
    assert blob["terms"] == [
        {"coeff": "2", "u": "0", "v": "0", "w": "1.0", "window": [-1, 4]}
    ]


def test_compute_ribbons_text_lists_each_ribbon_with_its_sign_and_windows():
    args = ("compute", "ribbons", "--n", "4", "--word", "0,3,2,1,0", "--m", "3")
    code, out = run_cli(*args, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    code, text = run_cli(*args, "--format", "text")
    assert code == 0
    header, *lines = text.strip().split("\n")
    assert header == "n=4 m=3 inside=[-1,0,2,9]: 3 ribbons"
    assert len(lines) == len(blob["ribbons"]) == 3
    for line, ribbon in zip(lines, blob["ribbons"]):
        sign, chain = line.split(": ")
        assert int(sign) == ribbon["sigma"]
        windows = chain.split(" -")
        assert windows[0] == "[-1,0,2,9]"
        for step, shown in zip(ribbon["chain"], windows[1:]):
            i, j = step["index"]
            assert shown == f"({i},{j})-> [{','.join(map(str, step['to']))}]"
    assert lines[2] == "+1: [-1,0,2,9] -(0,6)-> [-1,1,2,8] -(0,5)-> [0,1,2,7] -(0,3)-> [0,1,3,6]"


def test_compute_deterministic_and_cache_transparent(tmp_path):
    args = ("compute", "structure", "--n", "3", "--u", "1,0", "--v", "0")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0 and out1 == out2
    code3, out3 = run_cli(*args, "--cache-dir", str(tmp_path))
    code4, out4 = run_cli(*args, "--cache-dir", str(tmp_path))  # served from cache
    assert code3 == code4 == 0
    assert out3 == out4 == out1
    assert list(tmp_path.glob("*.json"))


def test_bounds_exit_code_2(capsys):
    code, _ = run_cli("compute", "schubert", "--n", "9", "--word", "0")
    assert code == 2
    code, _ = run_cli("compute", "kschur", "--n", "3", "--partition", "3")
    assert code == 2
    code, _ = run_cli("compute", "ribbons", "--n", "3", "--word", "1,0", "--m", "5")
    assert code == 2
    capsys.readouterr()
    for kind, parts in [("kschur", "0"), ("kschur", "-1"), ("kschur", "2,-1"), ("affschur", "0")]:
        code, out = run_cli("compute", kind, "--n", "3", "--partition", parts)
        assert code == 2 and out == "", (kind, parts)
        assert "--partition needs positive integer parts" in capsys.readouterr().err


def test_affschur_answers_up_to_the_max_degree_ceiling(capsys):
    # 16 is cli.DEGREE_CEIL, the one degree ceiling
    args = ("compute", "affschur", "--n", "6", "--partition", "5,5,5,1")
    code, out = run_cli(*args, "--max-degree", "16")
    assert code == 0
    blob = json.loads(out)
    assert blob["basis"] == "m" and blob["k"] == 5
    assert {"partition": [5, 5, 5, 1], "coeff": "1"} in blob["terms"]
    capsys.readouterr()
    code, out = run_cli(*args, "--max-degree", "17")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --max-degree must be between 0 and 16")


def _drop_coeff(payload):
    del payload["terms"][0]["coeff"]


def _set_first_term(field, value):
    def edit(payload):
        payload["terms"][0][field] = value

    return edit


def _float_first_entry(field):
    def edit(payload):
        values = payload["terms"][0][field]
        values[0] = float(values[0])

    return edit


def _bool_window(payload):
    # the same window with True in place of an entry 1, which int() reads back
    for t in payload["terms"]:
        if 1 in t["window"]:
            t["window"] = [True if e == 1 else e for e in t["window"]]
            return
    raise AssertionError("no window holds the entry 1")


# hand edits of a cached payload, each valid JSON that passes the cache's
# digest once the digest is recomputed: (kind, edit, start of the error)
MALFORMED_PAYLOADS = [
    ("schubert", _set_first_term("x", [1]), "error: x part"),
    ("schubert", lambda payload: payload.clear(), "error: malformed R_n element"),
    ("schubert", _drop_coeff, "error: malformed R_n element"),
    ("schubert", lambda payload: payload.update(terms="oops"), "error: malformed R_n element"),
    ("schubert", lambda payload: payload.update(n=4, terms=[]), "error: cached element has n = 4"),
    ("structure", lambda payload: payload.clear(), "error: malformed structure"),
    ("structure", _drop_coeff, "error: malformed structure"),
    ("structure", lambda payload: payload.update(terms="oops"), "error: malformed structure"),
    ("structure", _set_first_term("window", [0]), "error: malformed structure"),
    ("structure", _set_first_term("window", [1, 2, 3]), "error: malformed structure"),
    ("structure", _set_first_term("coeff", "two"), "error: malformed structure"),
    ("structure", _set_first_term("coeff", [2]), "error: malformed structure"),
    # JSON numbers where to_json writes strings and ints
    ("schubert", _set_first_term("coeff", 0.1), "error: malformed R_n element"),
    ("schubert", _set_first_term("coeff", 1), "error: malformed R_n element"),
    ("schubert", _set_first_term("p", [True]), "error: malformed R_n element"),
    ("schubert", _float_first_entry("x"), "error: malformed R_n element"),
    ("structure", _set_first_term("coeff", 0.5), "error: malformed structure"),
    ("structure", _float_first_entry("window"), "error: malformed structure"),
    ("structure", _bool_window, "error: malformed structure"),
]
COMPUTE_ARGS = {
    "schubert": ("compute", "schubert", "--n", "3", "--word", "2,1"),
    "structure": ("compute", "structure", "--n", "3", "--u", "1,0", "--v", "0"),
}


def test_cache_entry_with_malformed_x_part_exits_2(tmp_path, capsys):
    # a hand-edited entry whose digest was recomputed passes the cache's
    # check; the payload must still be parsed and refused cleanly, in either
    # output format, while an intact entry prints what a fresh run prints
    for j, (kind, edit, message) in enumerate(MALFORMED_PAYLOADS):
        for fmt in ("json", "text"):
            cache_dir = tmp_path / f"{j}-{fmt}"
            args = COMPUTE_ARGS[kind] + ("--format", fmt)
            code, fresh = run_cli(*args, "--cache-dir", str(cache_dir))
            assert code == 0 and run_cli(*args, "--cache-dir", str(cache_dir)) == (0, fresh)
            (path,) = cache_dir.glob("*.json")
            blob = json.loads(path.read_text())
            edit(blob["payload"])
            blob["digest"] = cm.compute_digest(blob["payload"])
            path.write_text(json.dumps(blob))
            capsys.readouterr()
            code, out = run_cli(*args, "--cache-dir", str(cache_dir))
            err = capsys.readouterr().err
            assert code == 2 and out == "", (kind, j, fmt)
            assert err.startswith(message) and "Traceback" not in err, (kind, j, fmt, err)


def test_cache_dir_naming_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "not-a-dir"
    path.write_text("x")
    for argv in (
        ("compute", "schubert", "--n", "3", "--word", "2,1", "--cache-dir", str(path)),
        ("cache", "list", "--cache-dir", str(path)),
        ("compute", "schubert", "--n", "3", "--word", "2,1", "--cache-dir", str(path / "sub")),
    ):
        code, out = run_cli(*argv)
        assert code == 2 and out == "", argv
        err = capsys.readouterr().err
        assert err.startswith("error: --cache-dir must be a directory"), argv
        assert "Traceback" not in err
    assert path.read_text() == "x"


def test_verify_cli_pass_and_structure():
    code, out = run_cli("verify", "schubert-table")
    assert code == 0
    blob = json.loads(out)
    assert blob["suite"] == "schubert-table" and blob["passed"] is True
    assert any("p_3" in f or "exponent" in f for f in blob["flags"])
    assert all(c["status"] == "pass" for c in blob["checks"])


def test_verify_cli_failure_exits_1_with_witness(monkeypatch):
    monkeypatch.setattr(verify.bo, "act_dunkl", lambda x, i: nilcox.zero(x.n))
    code, out = run_cli("verify", "chevalley", "--n", "2", "--max-length", "2")
    assert code == 1
    blob = json.loads(out)
    assert blob["passed"] is False
    failed = {c["name"]: c for c in blob["checks"] if c["status"] == "fail"}
    witness = failed["mn-difference-is-dunkl[n=2,a=0]"]["witness"]
    assert set(witness) == {"n", "a", "w"} and (witness["n"], witness["a"]) == (2, 0)


def test_cache_cli(tmp_path):
    entry = cm.CacheEntry.make({"kind": "x", "n": 3, "degree": 1}, {"v": 1})
    cm.store(tmp_path, entry)
    code, out = run_cli("cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "ok"
    # corrupt it and verify quarantines
    path = cm.entry_path(tmp_path, entry.key)
    blob = json.loads(path.read_text())
    blob["payload"] = {"v": 2}
    path.write_text(json.dumps(blob))
    code, out = run_cli("cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "quarantined"


def test_cache_commands_take_no_bound_flags(tmp_path, capsys):
    # cache list|verify read only --format and --cache-dir; a bound flag there
    # is a usage error, not a value silently ignored
    for flag in ("--n", "--max-length", "--max-degree"):
        with pytest.raises(SystemExit) as info:
            main(["cache", "list", "--cache-dir", str(tmp_path), flag, "3"])
        assert info.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err, flag


CORRUPTIONS = {
    "empty": lambda text: "",
    "truncated": lambda text: text[: len(text) // 2],
    "non-object": lambda text: "[1, 2, 3]",
    "wrong-keys": lambda text: json.dumps({"schema": 1, "data": json.loads(text)["payload"]}),
    "misfiled-key": lambda text: text.replace('"degree":', '"degree":1', 1),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_cache_file_recomputes(tmp_path, corruption):
    args = ("compute", "structure", "--n", "3", "--u", "1,0", "--v", "0")
    code, plain = run_cli(*args)
    assert code == 0
    code, _ = run_cli(*args, "--cache-dir", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.glob("*.json")
    path.write_text(CORRUPTIONS[corruption](path.read_text()))
    code, out = run_cli(*args, "--cache-dir", str(tmp_path))
    assert code == 0 and out == plain
    assert list(tmp_path.glob("*.quarantined-*"))  # moved aside, not deleted
    assert cm.list_entries(tmp_path)[0][2]  # rewritten as a good entry
    code, out = run_cli(*args, "--cache-dir", str(tmp_path))  # served from cache
    assert code == 0 and out == plain


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_cache_verify_quarantines_corrupt_files(tmp_path, corruption):
    entry = cm.CacheEntry.make({"kind": "x", "n": 3, "degree": 1}, {"v": 1})
    path = cm.store(tmp_path, entry)
    path.write_text(CORRUPTIONS[corruption](path.read_text()))
    code, out = run_cli("cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "corrupt"
    code, out = run_cli("cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "quarantined"
    assert not path.exists() and list(tmp_path.glob("*.quarantined-*"))


def test_directory_at_entry_path_is_quarantined(tmp_path):
    args = ("compute", "schubert", "--n", "3", "--word", "1,0")
    code, plain = run_cli(*args)
    assert code == 0
    blocker = tmp_path / "schubert-1.0-n3-d2.json"
    blocker.mkdir()
    code, out = run_cli(*args, "--cache-dir", str(tmp_path))
    assert code == 0 and out == plain
    assert blocker.is_file()  # rewritten as a good entry
    assert [q.is_dir() for q in tmp_path.glob("*.quarantined-*")] == [True]  # moved aside
    other = tmp_path / "x-n3-d1.json"
    other.mkdir()
    code, out = run_cli("cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    status = {e["file"]: e["status"] for e in json.loads(out)["entries"]}
    assert status == {blocker.name: "ok", other.name: "corrupt"}
    code, out = run_cli("cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0
    status = {e["file"]: e["status"] for e in json.loads(out)["entries"]}
    assert status == {blocker.name: "ok", other.name: "quarantined"}
    assert not other.exists() and len(list(tmp_path.glob("*.quarantined-*"))) == 2


# committed digests of CLI stdout, one per request (read only)
CLI_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"


@pytest.mark.parametrize(
    "kind, count",
    [
        ("affschur", 37),
        ("kschur", 37),
        ("stanley", 165),
        ("schubert", 124),
        ("structure", 411),
        ("ribbons", 450),
    ],
)
def test_compute_cli_output_matches_committed_digests(kind, count):
    digests = json.loads(CLI_DIGESTS.read_text())
    requests = {key: want for key, want in digests.items() if key.startswith(f"compute {kind} ")}
    assert len(requests) == count
    for key, want in requests.items():
        code, out = run_cli(*key.split())
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == want, key


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "flagops.cli", "compute", "stanley", "--n", "3", "--word", "1,0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert {tuple(t["partition"]) for t in blob["terms"]} == {(2,), (1, 1)}


def _refuse(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def test_failed_cache_store_warns_and_keeps_stdout(tmp_path, monkeypatch, capsys):
    args = ("compute", "schubert", "--n", "3", "--word", "2,1,0")
    code, plain = run_cli(*args)
    assert code == 0
    capsys.readouterr()
    monkeypatch.setattr(cm, "store", _refuse)
    code, out = run_cli(*args, "--cache-dir", str(tmp_path))
    assert code == 0 and out == plain
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: result not cached:")
    assert not list(tmp_path.iterdir())


def test_refused_renames_are_a_miss_and_a_skipped_store(tmp_path, monkeypatch, capsys):
    args = ("compute", "structure", "--n", "3", "--u", "1,0", "--v", "0")
    code, plain = run_cli(*args)
    assert code == 0
    run_cli(*args, "--cache-dir", str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    path.write_text("")
    capsys.readouterr()
    monkeypatch.setattr(cm.os, "replace", _refuse)
    # the quarantine rename and the store's rename both fail: one warning each
    code, out = run_cli(*args, "--cache-dir", str(tmp_path))
    assert code == 0 and out == plain
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["warning", "warning"]
    assert "Traceback" not in "".join(err)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left
    code, out = run_cli("cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"][0]["status"] == "corrupt"
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"warning: {path.name} left in place")


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_traceback(buffering):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes a byte
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    flags = ["-u"] if buffering == "unbuffered" else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "flagops.cli", "compute", "stanley", "--word", "0,0"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=300,
    )
    os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


# requests that ``python -m flagops.cli`` (that is, ``cli.run``) must answer
# byte for byte as ``main(argv)`` does in-process
RUN_REQUESTS = [
    ("compute", "stanley", "--n", "3", "--word", "1,0"),
    ("compute", "structure", "--n", "3", "--u", "1,0", "--v", "0", "--format", "text"),
    ("compute", "kschur", "--n", "9", "--partition", "2"),  # exit 2
    ("compute", "kschur", "--n", "3", "--partition", "3"),  # exit 2
    ("verify", "all"),
    ("compute", "affschur", "--n", "6", "--max-degree", "16", "--partition", "5,5,5,1"),
]
_WALL_TIME = re.compile(rb'"wall_time_s": [-+0-9.eE]+')


def _masked(stdout: bytes) -> bytes:
    return _WALL_TIME.sub(b'"wall_time_s": null', stdout)


@pytest.mark.parametrize("argv", RUN_REQUESTS, ids="_".join)
def test_run_prints_and_exits_as_main_returns(argv, capsys):
    code = main(list(argv))
    want = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "flagops.cli", *argv], capture_output=True, timeout=300
    )
    assert proc.returncode == code
    assert _masked(proc.stdout) == _masked(want.out.encode())
    assert proc.stderr == want.err.encode()


class _Exited(Exception):
    pass


def test_run_flushes_both_streams_before_os_exit(tmp_path, monkeypatch):
    streams = {name: io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for name in ("stdout", "stderr")}
    for name, stream in streams.items():
        monkeypatch.setattr(sys, name, stream)  # buffered: a write reaches the bytes on flush
    argv = ["compute", "schubert", "--n", "3", "--word", "2,1,0", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", ["flagops", *argv])
    monkeypatch.setattr(cm, "store", _refuse)  # a warning line on stderr beside the stdout
    monkeypatch.setattr(cli, "_observed", lambda: False)  # as in a process nothing watches
    seen = []

    def exit_now(code):
        seen.append((code, {name: s.buffer.getvalue() for name, s in streams.items()}))
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", exit_now)
    with pytest.raises(_Exited):
        cli.run()
    ((code, written),) = seen
    assert code == 0
    assert json.loads(written["stdout"]) == json.loads(run_cli(*argv[:-2])[1])
    assert written["stderr"].decode().startswith("warning: result not cached:")


def test_run_exits_through_sys_exit_under_a_profiler(monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("os._exit under a profiler"))
    monkeypatch.setattr(sys, "argv", ["flagops", "compute", "stanley", "--n", "3", "--word", "1,0"])
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
    finally:
        sys.setprofile(None)
    assert exited.value.code == 0
    assert json.loads(capsys.readouterr().out)["basis"] == "m"


def test_memory_error_exits_3_with_one_line(monkeypatch, capsys):
    def exhausted(w):
        raise MemoryError

    monkeypatch.setattr("flagops.cli.sr.affine_schubert", exhausted)
    assert main(["compute", "schubert", "--n", "3", "--word", "1,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: out of memory")


# the modules that a timed ``import flagops.cli`` must not pay for
STARTUP_FREE = (
    "dataclasses",
    "inspect",
    "typing",
    "hashlib",
    "traceback",
    "random",
    "pathlib",
    "urllib.parse",
    "ipaddress",
    "fnmatch",
)


def test_cli_startup_imports():
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); import flagops.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & set(STARTUP_FREE)
    # every module the benchmark's tracer wraps is there after the import
    spec = importlib.util.spec_from_file_location("tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert {f"flagops.{m}" for m in tracing.TRACED_MODULES} <= loaded
