"""Command-line interface: compute objects, run verification suites, cache.

Grammar: ``flagops COMMAND POSITIONAL [FLAG VALUE]...``, with the commands
and the flags of each in ``COMMANDS``:

- ``compute KIND`` takes ``--n``, ``--max-length``, ``--max-degree``,
  ``--format``, ``--cache-dir``, ``--word``, ``--partition``, ``--m``,
  ``--u`` and ``--v``;
- ``verify SUITE`` (a suite, or ``all``) takes the five flags from ``--n`` to
  ``--cache-dir``;
- ``cache list|verify`` takes ``--format`` and ``--cache-dir``.

``--n`` is the modulus, ``--max-length`` and ``--max-degree`` bound the
length and the degree (their ceilings end the help).  ``--word`` is a
comma-separated word of residues (``2,1,0``), ``--partition`` the
comma-separated parts (``2,1``) and ``--m`` the ribbon size.  ``--u`` and
``--v`` are words for u and v (``structure``); each is multiplied out and
need not be reduced, so ``0,0`` is the identity.

A flag's value follows it (``--n 4``) or is joined to it by ``=``
(``--n=4``).  Flags go before or after the positional, the last of a
repeated flag wins, and a unique prefix names a flag (``--max-l 5``,
``--form text``), though an exact name wins (``--m`` on ``compute``).  A
value that starts with ``-`` is read only if it is a negative number.  An
omitted flag is None; ``--format`` defaults to ``json``.  ``-h`` or
``--help`` prints this text and a synopsis, and exits 0.  An ambiguous
prefix, a missing value, an unknown command, flag or choice, a value that is
not an int where an int is due, ``--``, or no command exits 2 with one
``error:`` line.

Exit codes: 0 success / all checks pass, 1 verification check failure,
2 usage or bound violation, 3 internal inconsistency, memory exhaustion or
crash, 141 stdout closed by its reader (as in ``flagops ... | head``;
128 + SIGPIPE, what a shell reports for a tool that SIGPIPE ended), with no
traceback except on a crash.

--cache-dir only saves work.  An entry whose digest checks out but whose
payload does not parse as the requested object is quarantined and
recomputed, as one with a bad digest is.  When the cache layer fails with an
OSError (a directory that refuses writes, a quarantine rename that is
refused), the command prints one ``warning:`` line on stderr per failed
operation, treats the load as a miss or skips the store, and otherwise runs
as without a cache: the same stdout and the same exit code.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import cache as cache_mod
from . import schubert as sr
from . import strongorder as so
from . import symfunc as sf
from . import verify as verify_mod
from .afperm import AffinePermutation, from_reduced_word
from .errors import BoundExceededError, FlagopsError, InternalInconsistencyError
from .partitions import as_partition

EXIT_BROKEN_PIPE = 141
N_CEIL = 6
LENGTH_CEIL = 12
DEGREE_CEIL = 16

# The grammar, read by parse_args and by the synopsis of --help: each command
# names its positional, that positional's choices, and its flags, each with a
# type: int, str or a tuple of choices.
_BOUND_FLAGS = {"--n": int, "--max-length": int, "--max-degree": int}
_OUTPUT_FLAGS = {"--format": ("json", "text"), "--cache-dir": str}
COMMANDS = {
    "compute": (
        "kind",
        ("schubert", "stanley", "kschur", "affschur", "ribbons", "structure"),
        {**_BOUND_FLAGS, **_OUTPUT_FLAGS,
         "--word": str, "--partition": str, "--m": int, "--u": str, "--v": str},
    ),
    # verify caches nothing and ignores --cache-dir; it accepts the flag so
    # that one --cache-dir can be appended to every command (perfbench's cli
    # workload does)
    "verify": ("suite", verify_mod.SUITES + ("all",), {**_BOUND_FLAGS, **_OUTPUT_FLAGS}),
    "cache": ("action", ("list", "verify"), _OUTPUT_FLAGS),
}
_HELP = ("-h", "--help")


class UsageError(FlagopsError):
    """An argv that the grammar refuses: exit 2."""


def parse_args(argv):
    """The request argv names, as a namespace; None for ``-h``/``--help``.

    Every flag of ``_BOUND_FLAGS`` and of the command is an attribute, None
    when omitted, except ``format``, which defaults to ``json``.  Raises
    UsageError for what the grammar refuses.

    >>> parse_args(["compute", "stanley", "--n=4", "--word", "1,0"]).n
    4
    >>> parse_args(["verify", "all", "--max-l", "5"]).max_length
    5
    """
    argv = list(argv)
    # the command level ends at its first positional: the command
    i = next((i for i, token in enumerate(argv) if _flag(token, {}) is None), len(argv))
    values, extras = {}, []
    if not _read(argv[: i + 1], {}, "command", tuple(COMMANDS), values, extras):
        return None
    name, choices, flags = COMMANDS[values["command"]]
    values.update(dict.fromkeys(map(_dest, {**_BOUND_FLAGS, **flags}), None), format="json")
    if not _read(argv[i + 1 :], flags, name, choices, values, extras):
        return None
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def _read(tokens, flags, name, choices, values, extras) -> bool:
    """Read one level of argv, its flags and its positional, into values.

    False at ``-h``/``--help``.  A token that is no flag of the level, or a
    second positional, goes to extras.  As in argparse, every token is
    classified before any is read, so an ambiguous prefix is refused even
    after ``--help``.
    """
    parsed = [_flag(token, flags) for token in tokens]
    i = 0
    while i < len(tokens):
        token, flag = tokens[i], parsed[i]
        i += 1
        if flag is None:  # a positional
            if name in values:
                extras.append(token)
            elif token not in choices:
                raise UsageError(f"argument {name}: {_invalid_choice(token, choices)}")
            else:
                values[name] = token
            continue
        flag, value = flag
        if flag is None:
            extras.append(token)
        elif flag in _HELP:
            if value is not None:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            return False
        else:
            if value is None:
                if i == len(tokens) or parsed[i] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                value = tokens[i]
                i += 1
            values[_dest(flag)] = _convert(flag, flags[flag], value)
    if name not in values:
        raise UsageError(f"the following arguments are required: {name}")
    return True


def _flag(token, flags):
    """How argparse classifies token at a level with these flags.

    None for a positional or a value; ``(flag, value)`` for a flag, with
    value None unless joined by ``=``; ``(None, token)`` for an unknown flag.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":  # argparse's end of flags; refused here
        return None, token
    if token in flags or token in _HELP:
        return token, None
    head, eq, value = token.partition("=")
    if eq and (head in flags or head in _HELP):
        return head, value
    if token.startswith("--"):
        matches = [f for f in (*_HELP, *flags) if f.startswith(head)]
        value = value if eq else None
    else:  # only -h is one dash and one letter, and it takes no value
        matches, value = (["-h"] if token.startswith("-h") else []), token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, token


def _dest(flag) -> str:
    return flag[2:].replace("-", "_")


def _convert(flag, kind, text):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        raise UsageError(f"argument {flag}: {_invalid_choice(text, kind)}")
    return text


def _invalid_choice(text, choices) -> str:
    return f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"


def _help() -> str:
    """The module docstring, then a synopsis of every command from COMMANDS."""
    lines = [__doc__.rstrip(), "",
             "usage: flagops COMMAND POSITIONAL [FLAG VALUE]...",
             "       flagops [COMMAND] -h|--help"]
    for command, (name, choices, flags) in COMMANDS.items():
        lines += ["", f"{command} {name.upper()}", f"    {name.upper():<14} {'|'.join(choices)}"]
        lines += [f"    {flag:<14} {_metavar(kind)}" for flag, kind in flags.items()]
    lines += ["", f"ceilings: --n 2..{N_CEIL}, --max-length {LENGTH_CEIL}, --max-degree {DEGREE_CEIL}"]
    return "\n".join(lines)


def _metavar(kind) -> str:
    return {int: "INT", str: "TEXT"}.get(kind) or "|".join(kind)


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
        from pathlib import Path  # here, not at the top: only --cache-dir needs it

        path = Path(args.cache_dir)
        if any(q.exists() and not q.is_dir() for q in (path, *path.parents)):
            raise BoundExceededError(f"--cache-dir must be a directory, and {path} cannot be one")


def _emit(args, obj, text_fn=None):
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text_fn(obj) if text_fn else obj)


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _maybe_cached(args, key, compute_payload, parse):
    """parse(payload), the payload read from the cache when --cache-dir is set.

    parse reads a fresh payload too, so a hit prints what a miss prints.  A
    cached payload passed the digest check, not parse's: one that parse
    refuses with ValueError is quarantined, as an entry with a bad digest
    is, and recomputed.  An OSError from the cache is a warning and a miss
    or a skipped store.
    """
    if args.cache_dir is None:
        return parse(compute_payload())
    try:
        hit = cache_mod.load(args.cache_dir, key)
        if hit is not None:
            try:
                return parse(hit.payload)
            except ValueError:
                cache_mod.quarantine(cache_mod.entry_path(args.cache_dir, key))
    except OSError as exc:
        _warn(f"cache not read, recomputing: {exc}")
    payload = compute_payload()
    try:
        cache_mod.store(args.cache_dir, cache_mod.CacheEntry.make(key, payload))
    except OSError as exc:
        _warn(f"result not cached: {exc}")
    return parse(payload)


def _check_length(w, max_length):
    if w.length > max_length:
        raise BoundExceededError(f"element length {w.length} exceeds --max-length {max_length}")


def _cmd_compute(args) -> int:
    n = args.n if args.n is not None else 3
    max_degree = args.max_degree if args.max_degree is not None else 8
    max_length = args.max_length if args.max_length is not None else 8

    if args.kind == "schubert":
        word = _parse_ints(args.word, "--word")
        w = from_reduced_word(n, word)
        _check_length(w, max_length)

        def parse(payload):
            element = sr.RnElement.from_json(payload)
            if element.n != n:
                raise ValueError(f"cached element has n = {element.n}, not {n}")
            if element.degrees() != [w.length]:  # S_w is nonzero, of degree l(w)
                raise ValueError(f"cached element is not homogeneous of degree {w.length}")
            return element

        element = _maybe_cached(
            args,
            {"kind": f"schubert-{'.'.join(map(str, w.reduced_word()))}", "n": n, "degree": w.length},
            lambda: sr.affine_schubert(w).to_json(),
            parse,
        )
        _emit(args, element.to_json(), lambda _: repr(element))
        return 0

    if args.kind == "stanley":
        w = from_reduced_word(n, _parse_ints(args.word, "--word"))
        _check_length(w, max_length)
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
        _check_length(w, max_length)
        payload = {
            "n": n,
            "inside": list(w.window),
            "m": m,
            "ribbons": [r.to_json() for r in so.ribbons(w, m)],
        }
        _emit(args, payload, _ribbons_text)
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
        payload = _maybe_cached(
            args,
            key,
            lambda: _structure_payload(n, u, v, sr.structure_constants(u, v)),
            lambda payload: _structure_payload(n, u, v, _structure_table(n, key["degree"], payload)),
        )
        if args.format == "text":
            lines = ["u,v,w,value"]
            for t in payload["terms"]:
                lines.append(f"{t['u']},{t['v']},{t['w']},{t['coeff']}")
            print("\n".join(lines))
        else:
            _emit(args, payload)
        return 0

    raise BoundExceededError(f"unknown compute kind {args.kind}")  # pragma: no cover


def _structure_payload(n, u, v, table):
    """The printed form of the structure constants {w: p^w_{u,v}} of u and v."""
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


def _structure_table(n, d, payload) -> dict:
    """{w: coeff} from a structure payload: one nonzero coefficient per w of length d."""
    table = {}
    try:
        for t in payload["terms"]:
            window, coeff = t["window"], t["coeff"]
            if type(coeff) is not str or not all(type(e) is int for e in window):
                raise ValueError(f"term {t} needs int window entries and a string coeff")
            w = AffinePermutation(n, window)
            c = sr.RnElement.exact(coeff)
            if w.length != d or c == 0 or w in table:
                raise ValueError(f"bad term {t}")
            table[w] = c
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed structure-constant payload: {exc}") from None
    return table


def _symfunc_text(payload) -> str:
    bits = []
    for t in payload["terms"]:
        bits.append(f"({t['coeff']})*{payload['basis']}{t['partition']}")
    return " + ".join(bits) if bits else "0"


def _ribbons_text(payload) -> str:
    """A header, then one line per ribbon: its sign and its chain of windows."""

    def window(values):
        return "[" + ",".join(map(str, values)) + "]"

    inside = window(payload["inside"])
    lines = [f"n={payload['n']} m={payload['m']} inside={inside}: {len(payload['ribbons'])} ribbons"]
    for r in payload["ribbons"]:
        chain = "".join(f" -({s['index'][0]},{s['index'][1]})-> {window(s['to'])}" for s in r["chain"])
        lines.append(f"{r['sigma']:+d}: {inside}{chain}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    suites = verify_mod.SUITES if args.suite == "all" else (args.suite,)
    for s in suites:  # a bound above a suite's ceiling exits 2 before any check runs
        verify_mod.expand(s, n=args.n, max_length=args.max_length, max_degree=args.max_degree)
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
        row = {"file": path.name, "key": key, "status": "ok" if ok else "corrupt"}
        if args.action == "verify" and not ok:
            try:
                row.update(status="quarantined", to=cache_mod.quarantine(path).name)
            except OSError as exc:
                _warn(f"{path.name} left in place, not quarantined: {exc}")
        rows.append(row)
    _emit(args, {"cache_dir": str(args.cache_dir), "entries": rows},
          lambda p: "\n".join(f"{r['status']}\t{r['file']}" for r in p["entries"]) or "(empty)")
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help())
            code = 0
        else:
            _check_bounds(args)
            command = {"compute": _cmd_compute, "verify": _cmd_verify, "cache": _cmd_cache}
            code = command[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FlagopsError) as exc:
        if isinstance(exc, InternalInconsistencyError):
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller --n, --max-length or --max-degree",
              file=sys.stderr)
        return 3
    except Exception:  # pragma: no cover - crash path
        import traceback  # here, not at the top: only a crash needs it

        traceback.print_exc()
        return 3


def _drop_stdout():
    """The reader is gone: point stdout at /dev/null, so that what is still
    buffered cannot fail a second flush."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run():
    """Entry point of ``flagops`` and ``python -m flagops.cli``: ``main()``,
    then end the process at its last byte.

    It flushes stdout and stderr and exits by ``os._exit``, which skips
    interpreter finalization: module teardown and the final garbage
    collections over every memo, about 7 ms of a 50 ms request.  Nothing is
    lost by skipping it.  flagops registers no ``atexit`` handler, starts no
    thread, and keeps no file open past the ``read_text`` or ``write_text``
    that opened it, so the two flushes are all that finalization would still
    write.  A flush that meets a closed reader exits 141, as in ``main``.

    Under a tracer or a profiler (coverage, a debugger, ``python -m cProfile
    -m flagops.cli``; see ``_observed``) it exits by ``sys.exit`` instead, so
    that they still write their reports.  ``main(argv)`` is the in-process
    API; it returns the exit code and never exits its caller.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        _drop_stdout()
        code = EXIT_BROKEN_PIPE
    if not _observed():
        os._exit(code)
    sys.exit(code)


def _observed() -> bool:
    """True when a tracer or a profiler watches this process, and so has a
    report to write at interpreter exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage use it
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":  # pragma: no cover
    run()
