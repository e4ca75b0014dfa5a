"""Command-line interface: compute objects, run verification suites, cache.

Exit codes: 0 success / all checks pass, 1 verification check failure,
2 usage or bound violation, 3 internal inconsistency or crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import cache as cache_mod
from . import schubert as sr
from . import strongorder as so
from . import symfunc as sf
from . import verify as verify_mod
from .afperm import from_reduced_word
from .errors import BoundExceededError, FlagopsError, InternalInconsistencyError
from .partitions import as_partition

N_CEIL = 6
LENGTH_CEIL = 12
DEGREE_CEIL = 16


def _common_flags(p):
    p.add_argument("--n", type=int, default=None, help="modulus n (2..%d)" % N_CEIL)
    p.add_argument("--max-length", type=int, default=None, help="length bound (<= %d)" % LENGTH_CEIL)
    p.add_argument("--max-degree", type=int, default=None, help="degree bound (<= %d)" % DEGREE_CEIL)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--cache-dir", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="flagops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one object")
    p_compute.add_argument(
        "kind", choices=("schubert", "stanley", "kschur", "affschur", "ribbons", "structure")
    )
    _common_flags(p_compute)
    p_compute.add_argument("--word", help="comma-separated residues, e.g. 2,1,0")
    p_compute.add_argument("--partition", help="comma-separated parts, e.g. 2,1")
    p_compute.add_argument("--m", type=int, default=None, help="ribbon size")
    p_compute.add_argument("--u", help="reduced word for u (structure)")
    p_compute.add_argument("--v", help="reduced word for v (structure)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify_mod.SUITES + ("all",))
    _common_flags(p_verify)

    p_cache = sub.add_parser("cache", help="inspect the on-disk cache")
    p_cache.add_argument("action", choices=("list", "verify"))
    _common_flags(p_cache)
    return parser


def _parse_ints(text, what):
    if text is None or text == "":
        return ()
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise BoundExceededError(f"cannot parse {what}: {text!r}")


def _parse_partition(text):
    try:
        return as_partition(_parse_ints(text, "--partition"))
    except ValueError:
        raise BoundExceededError(f"--partition needs positive integer parts, got {text!r}")


def _check_bounds(args):
    n = args.n
    if n is not None and not 2 <= n <= N_CEIL:
        raise BoundExceededError(f"--n must be between 2 and {N_CEIL}, got {n}")
    if args.max_length is not None and not 0 <= args.max_length <= LENGTH_CEIL:
        raise BoundExceededError(f"--max-length must be between 0 and {LENGTH_CEIL}")
    if args.max_degree is not None and not 0 <= args.max_degree <= DEGREE_CEIL:
        raise BoundExceededError(f"--max-degree must be between 0 and {DEGREE_CEIL}")
    if args.cache_dir is not None:
        path = Path(args.cache_dir)
        if any(q.exists() and not q.is_dir() for q in (path, *path.parents)):
            raise BoundExceededError(f"--cache-dir must be a directory, and {path} cannot be one")


def _emit(args, obj, text_fn=None):
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text_fn(obj) if text_fn else obj)


def _maybe_cached(args, key, compute_payload):
    """Payload via the digest-validated cache when --cache-dir is set."""
    if args.cache_dir is None:
        return compute_payload()
    hit = cache_mod.load(args.cache_dir, key)
    if hit is not None:
        return hit.payload
    payload = compute_payload()
    cache_mod.store(args.cache_dir, cache_mod.CacheEntry.make(key, payload))
    return payload


def _cmd_compute(args) -> int:
    n = args.n if args.n is not None else 3
    max_degree = args.max_degree if args.max_degree is not None else 8
    max_length = args.max_length if args.max_length is not None else 8

    if args.kind == "schubert":
        word = _parse_ints(args.word, "--word")
        w = from_reduced_word(n, word)
        if w.length > max_length:
            raise BoundExceededError(
                f"element length {w.length} exceeds --max-length {max_length}"
            )
        payload = _maybe_cached(
            args,
            {"kind": f"schubert-{'.'.join(map(str, w.reduced_word()))}", "n": n, "degree": w.length},
            lambda: sr.affine_schubert(w).to_json(),
        )
        _emit(args, payload, lambda p: repr(sr.RnElement.from_json(p)))
        return 0

    if args.kind == "stanley":
        w = from_reduced_word(n, _parse_ints(args.word, "--word"))
        if w.length > max_length:
            raise BoundExceededError(
                f"element length {w.length} exceeds --max-length {max_length}"
            )
        _emit(args, sf.affine_stanley(w).to_json(), _symfunc_text)
        return 0

    if args.kind in ("kschur", "affschur"):
        lam = _parse_partition(args.partition)
        if any(p > n - 1 for p in lam):
            raise BoundExceededError(f"partition {list(lam)} is not {n - 1}-bounded")
        if sum(lam) > max_degree:
            raise BoundExceededError(f"|partition| exceeds --max-degree {max_degree}")
        f = sf.k_schur_p(n, lam) if args.kind == "kschur" else sf.affine_schur(n, lam)
        _emit(args, f.to_json(), _symfunc_text)
        return 0

    if args.kind == "ribbons":
        w = from_reduced_word(n, _parse_ints(args.word, "--word"))
        m = args.m if args.m is not None else 1
        if not 1 <= m < n:
            raise BoundExceededError(f"--m must satisfy 1 <= m < n, got {m}")
        if w.length > max_length:
            raise BoundExceededError(
                f"element length {w.length} exceeds --max-length {max_length}"
            )
        payload = {
            "n": n,
            "inside": list(w.window),
            "m": m,
            "ribbons": [r.to_json() for r in so.ribbons(w, m)],
        }
        _emit(args, payload)
        return 0

    if args.kind == "structure":
        u = from_reduced_word(n, _parse_ints(args.u, "--u"))
        v = from_reduced_word(n, _parse_ints(args.v, "--v"))
        if u.length + v.length > max_degree:
            raise BoundExceededError(
                f"l(u)+l(v) = {u.length + v.length} exceeds --max-degree {max_degree}"
            )
        key = {
            "kind": f"structure-{'.'.join(map(str, u.reduced_word()))}-{'.'.join(map(str, v.reduced_word()))}",
            "n": n,
            "degree": u.length + v.length,
        }
        payload = _maybe_cached(args, key, lambda: _structure_payload(n, u, v))
        if args.format == "text":
            lines = ["u,v,w,value"]
            for t in payload["terms"]:
                lines.append(f"{t['u']},{t['v']},{t['w']},{t['coeff']}")
            print("\n".join(lines))
        else:
            _emit(args, payload)
        return 0

    raise BoundExceededError(f"unknown compute kind {args.kind}")  # pragma: no cover


def _structure_payload(n, u, v):
    table = sr.structure_constants(u, v)
    udot = ".".join(map(str, u.reduced_word()))
    vdot = ".".join(map(str, v.reduced_word()))
    terms = []
    for w in sorted(table, key=lambda w: (w.length, w.window)):
        terms.append(
            {
                "u": udot,
                "v": vdot,
                "w": ".".join(map(str, w.reduced_word())),
                "window": list(w.window),
                "coeff": str(table[w]),
            }
        )
    return {"n": n, "u": udot, "v": vdot, "terms": terms}


def _symfunc_text(payload) -> str:
    bits = []
    for t in payload["terms"]:
        bits.append(f"({t['coeff']})*{payload['basis']}{t['partition']}")
    return " + ".join(bits) if bits else "0"


def _cmd_verify(args) -> int:
    suites = verify_mod.SUITES if args.suite == "all" else (args.suite,)
    reports = [
        verify_mod.run_suite(s, n=args.n, max_length=args.max_length, max_degree=args.max_degree)
        for s in suites
    ]
    if args.format == "json":
        blob = [r.to_json() for r in reports]
        print(json.dumps(blob[0] if len(blob) == 1 else blob, sort_keys=True, indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] suite {r.suite} ({r.wall_time_s:.1f}s)")
            for c in r.checks:
                print(f"    [{c.status}] {c.name}" + (f"  witness={c.witness}" if c.witness else ""))
            for fl in r.flags:
                print(f"    note: {fl}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_cache(args) -> int:
    if args.cache_dir is None:
        raise BoundExceededError("cache commands need --cache-dir")
    entries = cache_mod.list_entries(args.cache_dir)
    rows = []
    for path, key, ok in entries:
        if args.action == "verify" and not ok:
            quarantined = cache_mod.quarantine(path)
            rows.append({"file": path.name, "key": key, "status": "quarantined", "to": quarantined.name})
        else:
            rows.append({"file": path.name, "key": key, "status": "ok" if ok else "corrupt"})
    _emit(args, {"cache_dir": str(args.cache_dir), "entries": rows},
          lambda p: "\n".join(f"{r['status']}\t{r['file']}" for r in p["entries"]) or "(empty)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "cache":
            return _cmd_cache(args)
        parser.error(f"unknown command {args.command}")  # pragma: no cover
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FlagopsError) as exc:
        if isinstance(exc, InternalInconsistencyError):
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - crash path
        traceback.print_exc()
        return 3
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
