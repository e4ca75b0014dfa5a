"""The argparse parser that ``flagops.cli`` used before its table parser.

``build_parser`` below is that parser as it was, kept as an oracle: a test
parses the same argv lists through both and asserts the same attributes, and
that an argv argparse refuses is refused (exit 2) by ``cli.main`` too.
"""

from __future__ import annotations

import argparse

from flagops import cli
from flagops import verify as verify_mod
from flagops.cli import DEGREE_CEIL, LENGTH_CEIL, N_CEIL


def _output_flags(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--cache-dir", default=None)


def _common_flags(p):
    p.add_argument("--n", type=int, default=None, help="modulus n (2..%d)" % N_CEIL)
    p.add_argument("--max-length", type=int, default=None, help="length bound (<= %d)" % LENGTH_CEIL)
    p.add_argument("--max-degree", type=int, default=None, help="degree bound (<= %d)" % DEGREE_CEIL)
    _output_flags(p)


def build_parser():
    parser = argparse.ArgumentParser(prog="flagops", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one object")
    p_compute.add_argument(
        "kind", choices=("schubert", "stanley", "kschur", "affschur", "ribbons", "structure")
    )
    _common_flags(p_compute)
    p_compute.add_argument("--word", help="comma-separated residues, e.g. 2,1,0")
    p_compute.add_argument("--partition", help="comma-separated parts, e.g. 2,1")
    p_compute.add_argument("--m", type=int, default=None, help="ribbon size")
    for name in ("u", "v"):
        p_compute.add_argument(
            f"--{name}",
            help=f"comma-separated residues of a word for {name} (structure); the word "
            "is multiplied out and need not be reduced, so 0,0 is the identity",
        )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify_mod.SUITES + ("all",))
    # verify caches nothing and ignores --cache-dir; it accepts the flag so
    # that one --cache-dir can be appended to every command (perfbench's cli
    # workload does)
    _common_flags(p_verify)

    p_cache = sub.add_parser("cache", help="inspect the on-disk cache")
    p_cache.add_argument("action", choices=("list", "verify"))
    _output_flags(p_cache)
    p_cache.set_defaults(n=None, max_length=None, max_degree=None)  # no bounds to check
    return parser
