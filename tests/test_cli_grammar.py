"""``cli.parse_args`` against the argparse parser it replaced.

Every argv below goes through both parsers.  Where argparse accepts it, both
give the same value for every attribute; where argparse prints its help,
``parse_args`` returns None; where argparse refuses it, ``cli.main`` returns
2 with nothing on stdout and one ``error:`` line on stderr.
"""

import contextlib
import importlib.util
import io
import re
import shlex
from pathlib import Path

import pytest

from argparse_oracle import build_parser
from flagops import cli

ROOT = Path(__file__).resolve().parents[1]


def _oracle(argv):
    """argparse's attributes for argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _assert_as_oracle(argv, capsys):
    want = _oracle(argv)
    if want == 2:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        (line,) = err.splitlines()
        assert line.startswith("error: "), argv
    elif want == 0:
        assert cli.parse_args(argv) is None, argv
    else:
        assert vars(cli.parse_args(argv)) == want, argv


def _pool_requests():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    requests = [list(workloads.CLI_VERIFY)]
    requests += [argv for slot in workloads.cli_pool().values() for argv in slot]
    return [argv + ["--cache-dir", "D"] for argv in requests]  # as the runner appends it


def _ci_requests():
    """Every flagops command line in the CI workflow, up to its pipe or redirect."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    found = re.findall(r"(?:flagops|python -m flagops\.cli) ((?:-|compute |verify |cache )[^|>\n]*)", text)
    requests = []
    for line in found:
        argv = shlex.split(line)
        ns = ["2", "3", "4", "5", "6"] if "$n" in argv else [None]
        requests += [[n if a == "$n" else a for a in argv] for n in ns]
    return requests


def test_parser_matches_argparse_on_every_pooled_request(capsys):
    requests = _pool_requests()
    assert len(requests) > 400
    for argv in requests:
        _assert_as_oracle(argv, capsys)


def test_parser_matches_argparse_on_every_ci_command(capsys):
    requests = _ci_requests()
    assert ["verify", "all", "--n", "6", "--format", "json"] in requests
    assert ["--help"] in requests and ["compute", "nosuchkind"] in requests
    for argv in requests:
        _assert_as_oracle(argv, capsys)


EDGE_CASES = [
    # accepted
    "compute stanley --n 3 --word 1,0",
    "compute stanley --n=3 --word=1,0",
    "compute --n 3 stanley --word 1,0",
    "compute --format text --n 3 ribbons --word 1,0 --m 2",
    "compute stanley --n 3 --n 4 --word 1,0 --word 0",
    "verify all --max-l 5",
    "verify all --max-d=8 --max-length=3",
    "compute stanley --form text",
    "compute stanley --f text",
    "compute ribbons --m 2",
    "compute ribbons --m=2",
    "compute kschur --p 2,1 --c D",
    "compute stanley --n -1",
    "compute stanley --cache-dir -1",
    "compute stanley --word=",
    "compute stanley --word ''",
    "compute stanley --n ' 3'",
    "compute stanley --word '-1, 0'",
    "compute stanley --word=-1,0",
    "compute structure --u 0,0 --v 1",
    "cache list --cache-dir D",
    "cache verify --format text --cache-dir=D",
    "verify mn-rule --n 3 --cache-dir D",
    # help, where argparse prints its help and exits 0
    "--help",
    "-h",
    "--he",
    "compute --help",
    "compute stanley --h",
    "verify all -h --n x",
    "cache list --help",
    "--bogus compute --help",
    "compute stanley extra --help",
    # refused
    "",
    "bogus",
    "compute",
    "compute bogus",
    "compute bogus --help",
    "verify all --m 3",
    "verify all --help --m 3",
    "compute stanley --ma 3",
    "compute stanley --word -1,0",
    "compute stanley --word",
    "compute stanley --word --n 3",
    "compute stanley --bogus",
    "compute stanley --bogus=1",
    "compute stanley -x",
    "compute stanley --n x",
    "compute stanley --n=",
    "compute stanley --n 3.5",
    "compute stanley --n -1.5",
    "compute stanley --format xml",
    "compute stanley --form=xml",
    "cache list --n 3",
    "cache list --max-length 3",
    "cache list --cache-dir D --m 3",
    "verify all extra",
    "verify nosuite",
    "--n 3 compute stanley",
    "--bogus compute stanley",
    "compute stanley --help=x",
    "-hx",
    "compute stanley -hx",
    "verify all --n",
]


@pytest.mark.parametrize("line", EDGE_CASES)
def test_parser_matches_argparse_on_edge_cases(line, capsys):
    _assert_as_oracle(shlex.split(line), capsys)


@pytest.mark.parametrize("argv", [["--"], ["compute", "--", "stanley"], ["compute", "stanley", "--"]])
def test_double_dash_is_refused(argv, capsys):
    # argparse reads -- as the end of the flags; no request needs it, and here it exits 2
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[cmd, "--help"] for cmd in cli.COMMANDS])
def test_help_exits_0_and_lists_the_grammar(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(cli.__doc__.rstrip())
    sections = out.split("\n\n")
    for command, (name, choices, flags) in cli.COMMANDS.items():
        (section,) = [s for s in sections if s.startswith(f"{command} {name.upper()}\n")]
        assert re.search(rf"^    {name.upper()} +{re.escape('|'.join(choices))}$", section, re.M)
        for flag in flags:
            assert re.search(rf"^    {flag} +\S+$", section, re.M), (command, flag)
