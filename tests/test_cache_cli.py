"""Disk cache behaviour and the command-line interface."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from flagops import cache as cm
from flagops import nilcox, verify
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
