"""Digest-validated JSON cache for computed bases and tables.

One file per key under the cache directory.  Entries carry a schema version
and a sha256 digest of the canonical payload encoding.  Version mismatches
are treated as misses.  Digest mismatches, and files that are not an entry
filed under their own key (unreadable, such as a directory; empty,
truncated, not a JSON object, missing fields), quarantine the file (rename,
never delete) and report a miss so the caller recomputes.  Writes go through
a temporary file and an atomic rename; a failed write removes the temporary
file and raises.

The digest is computed by the interpreter's own SHA-256 module, ``_sha2`` on
Python 3.12 and later, ``_sha256`` on 3.10 and 3.11: the module that
``hashlib`` itself falls back on when OpenSSL is missing, and so the same
hex digest.  ``import hashlib`` loads OpenSSL (``_hashlib``), about 3 ms of a
50 ms request; the built-in module loads in about 0.2 ms.  ``hashlib`` is
imported only by an interpreter built without the built-in module.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import namedtuple

SCHEMA_VERSION = 1
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
ENTRY_FIELDS = frozenset({"schema_version", "key", "digest", "payload"})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def compute_digest(payload) -> str:
    return _sha256()(canonical_json(payload).encode()).hexdigest()


def _sha256():
    """The sha256 constructor: the built-in module's, else hashlib's."""
    try:
        return __import__(_BUILTIN_SHA256).sha256
    except ImportError:
        import hashlib

        return hashlib.sha256


class CacheEntry(
    namedtuple("CacheEntry", "key payload digest schema_version", defaults=(SCHEMA_VERSION,))
):
    """One cache file: ``key`` is {"n": int, "kind": str, "degree": int}."""

    __slots__ = ()

    @staticmethod
    def make(key: dict, payload) -> "CacheEntry":
        return CacheEntry(key=dict(key), payload=payload, digest=compute_digest(payload))

    def verify(self) -> bool:
        return self.digest == compute_digest(self.payload)


def entry_path(cache_dir, key: dict) -> Path:
    from pathlib import Path  # here, not at the top: only cache paths need it

    name = f"{key['kind']}-n{key['n']}-d{key['degree']}.json"
    return Path(cache_dir) / name


def store(cache_dir, entry: CacheEntry) -> Path:
    path = entry_path(cache_dir, entry.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = {
        "schema_version": entry.schema_version,
        "key": entry.key,
        "digest": entry.digest,
        "payload": entry.payload,
    }
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    try:
        tmp.write_text(canonical_json(blob))
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)  # leave no partial file behind
        raise
    return path


def quarantine(path: Path) -> Path:
    target = path.with_name(path.name + f".quarantined-{int(time.time() * 1000)}")
    os.replace(path, target)
    return target


def _read_blob(path: Path) -> dict | None:
    """The parsed entry file, or None unless it is an entry filed under its key."""
    try:
        blob = json.loads(path.read_text())
        filed = entry_path(path.parent, blob["key"]) == path and ENTRY_FIELDS <= blob.keys()
    # unreadable (e.g. a directory), bad JSON, not an object, missing fields
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return blob if filed else None


def load(cache_dir, key: dict) -> CacheEntry | None:
    """Load an entry; None on miss, version mismatch, or quarantined corruption."""
    path = entry_path(cache_dir, key)
    if not path.exists():
        return None
    blob = _read_blob(path)
    if blob is None:
        quarantine(path)
        return None
    if blob["schema_version"] != SCHEMA_VERSION or blob["key"] != dict(key):
        return None
    entry = CacheEntry(
        key=blob["key"],
        payload=blob["payload"],
        digest=blob["digest"],
        schema_version=blob["schema_version"],
    )
    if not entry.verify():
        quarantine(path)
        return None
    return entry


def roundtrip(cache_dir, entry: CacheEntry) -> CacheEntry:
    """Write-then-read; the result is identical to the input."""
    store(cache_dir, entry)
    back = load(cache_dir, entry.key)
    if back != entry:  # pragma: no cover
        raise IOError(f"cache roundtrip mismatch for {entry.key}")
    return back


def list_entries(cache_dir):
    """(path, key, ok) triples for all entries in the directory."""
    from pathlib import Path

    out = []
    root = Path(cache_dir)
    if not root.exists():
        return out
    for path in sorted(root.glob("*.json")):
        blob = _read_blob(path)
        if blob is None:
            out.append((path, None, False))
            continue
        ok = blob["schema_version"] == SCHEMA_VERSION and compute_digest(
            blob["payload"]
        ) == blob["digest"]
        out.append((path, blob["key"], ok))
    return out
