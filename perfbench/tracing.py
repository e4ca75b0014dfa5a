"""Span tracing of flagops from outside the package.

``Tracer.install()`` swaps the functions of each traced flagops module for
timing wrappers, and rebinds every other name that refers to the same
function object (the bindings that ``from X import f`` made, such as
``schubert.rref`` or ``verify.elements_of_length``).  Each wrapped call
records a span (name, start, end, parent) into flat arrays; ``summarize``
derives calls, self time and inclusive shares from them after the run.

Only traced runs call ``install``; timed runs never import this module's
wrappers into flagops.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

TRACED_MODULES = (
    "afperm",
    "kernels",
    "nilcox",
    "bruhat_ops",
    "strongorder",
    "schubert",
    "linalg",
    "symfunc",
    "cache",
    "cli",
    "verify",
)

# Methods that carry layer work but are reached through instances, not module
# globals.  Module functions need no list: every public one is wrapped.
TRACED_METHODS = {
    "afperm": ("AffinePermutation.marked_covers", "AffinePermutation.cover_classes"),
    "schubert": ("SchubertBasis.expand",),
}

MARK = "__perfbench_span__"
ROOT = -1


def is_wrapped(obj) -> bool:
    return getattr(obj, MARK, None) is not None


def lru_functions() -> dict:
    """``module.name`` -> lru_cache wrapper, for every memo in flagops.*."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("flagops.") or mod is None:
            continue
        short = modname.split(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            obj = getattr(obj, "__wrapped__", obj) if is_wrapped(obj) else obj
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                out[f"{short}.{name}"] = obj
    return out


def cache_infos() -> dict:
    """hits, misses and currsize of every lru_cache in flagops.*."""
    return {
        name: {"hits": ci.hits, "misses": ci.misses, "currsize": ci.currsize}
        for name, fn in lru_functions().items()
        for ci in [fn.cache_info()]
    }


def installed_wrappers() -> list:
    """Names in flagops.* that currently hold a timing wrapper."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("flagops") or mod is None:
            continue
        for name, obj in vars(mod).items():
            if is_wrapped(obj):
                found.append(f"{modname}.{name}")
            elif inspect.isclass(obj):
                found.extend(
                    f"{modname}.{name}.{attr}" for attr, v in vars(obj).items() if is_wrapped(v)
                )
    return sorted(set(found))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [ROOT]
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def bump(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def spans(self) -> list:
        """(name, start, end, parent) tuples in start order."""
        return [
            (self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i])
            for i in range(len(self.span_name))
        ]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        lru = fn if hook is not None and hasattr(fn, "cache_info") else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            misses = lru.cache_info().misses if lru is not None else 0
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if hook is not None:
                missed = lru is not None and lru.cache_info().misses > misses
                hook(tracer, name, args, result, missed)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap the traced flagops functions and rebind every name for them."""
        import flagops  # noqa: F401 - make sure every submodule is loaded
        import flagops.cli  # noqa: F401

        originals = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules[f"flagops.{short}"]
            modname = mod.__name__
            for attr in sorted(vars(mod)):
                obj = vars(mod)[attr]
                if id(obj) in originals or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                if attr.startswith("_") and not hasattr(obj, "cache_info"):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
            for qual in TRACED_METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                fn = original
                if qual == "AffinePermutation.marked_covers":
                    fn = _counting_marked_covers(self, original)
                setattr(owner, meth, self._wrap(fn, f"{short}.{qual}"))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("flagops") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _counting_marked_covers(tracer, original):
    """marked_covers memoises per instance in ``_mcov``; count its hits."""
    key = "afperm.AffinePermutation.marked_covers"

    @functools.wraps(original)
    def marked_covers(self, a):
        tracer.bump(f"{key}.hits" if a in self._mcov else f"{key}.misses")
        return original(self, a)

    return marked_covers


# hooks run after a wrapped call: (tracer, name, args, result, missed_lru)


def _hook_kept(tracer, name, args, result, missed):
    if missed:
        tracer.bump(f"{name}.kept", len(result))


def _hook_distinct(tracer, name, args, result, missed):
    tracer._distinct.setdefault(name, set()).add(args)


def _hook_rref(tracer, name, args, result, missed):
    rows = args[0]
    for key, size in (("max_rows", len(rows)), ("max_cols", len(rows[0]) if rows else 0)):
        full = f"{name}.{key}"
        tracer.counters[full] = max(tracer.counters.get(full, 0), size)


def _hook_load(tracer, name, args, result, missed):
    tracer.bump(f"{name}.hits" if result is not None else f"{name}.misses")


def _hook_store(tracer, name, args, result, missed):
    tracer.bump(f"{name}.bytes", result.stat().st_size)


_HOOKS = {
    "bruhat_ops.mn_chain_terms": _hook_kept,
    "schubert.structure_constants": _hook_distinct,
    "linalg.rref": _hook_rref,
    "cache.load": _hook_load,
    "cache.store": _hook_store,
}


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent != ROOT:
            out[parent] -= end - start
    return out


def outermost_time(spans, predicate) -> float:
    """Total duration of spans matching ``predicate`` with no matching ancestor.

    Spans are in start order, so a parent always precedes its children.
    """
    covered = [False] * len(spans)  # an ancestor (or the span) matches
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        inside = parent != ROOT and covered[parent]
        match = predicate(name)
        if match and not inside:
            total += end - start
        covered[i] = inside or match
    return total


def summarize(tracer: Tracer, wall_s: float, item_name: str) -> dict:
    """Per-function calls and self time, counters and shares of ``wall_s``."""
    spans = tracer.spans()
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    counters = dict(tracer.counters)
    for name, seen in tracer._distinct.items():
        counters[f"{name}.distinct"] = len(seen)

    def module_in(*mods):
        return lambda name: name.split(".", 1)[0] in mods

    return {
        "wall_s": wall_s,
        "spans": len(spans),
        "calls": calls,
        "self_s": self_s,
        "counters": counters,
        "incl_s": {
            "schubert.cap_apply": outermost_time(spans, lambda n: n == "schubert.cap_apply"),
            "bruhat_strongorder": outermost_time(spans, module_in("bruhat_ops", "strongorder")),
        },
        "items_self_s": self_s.get(item_name, 0.0),
        "span_self_s": sum(selfs),
        "cache_info": cache_infos(),
    }
