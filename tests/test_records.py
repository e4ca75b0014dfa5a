"""The record types: immutable namedtuples compared by their fields."""

import pytest

from flagops import afperm as ap
from flagops import bruhat_ops as bo
from flagops import cache as cm
from flagops import schubert as sr
from flagops import strongorder as so
from flagops import verify


def _records():
    w = ap.from_reduced_word(3, [2, 1, 0])
    return {
        "MarkedCover": ap.marked_covers(w, 0)[0],
        "ConnectedTree": bo.tree_from_boxes([(0, 2), (1, 2)], 3, 1),
        "RibbonChain": so.ribbons(w, 2)[0],
        "RibbonTableau": so.ribbon_tableaux(w, (2, 1))[0],
        "SchubertBasis": sr.schubert_basis(3, 2),
        "CacheEntry": cm.CacheEntry.make({"kind": "x", "n": 3, "degree": 1}, {"v": [1]}),
        "CheckResult": verify.CheckResult("a-check", "pass", None),
        "CheckResult with witness": verify.CheckResult("a-check", "fail", {"n": 3}),
        "VerificationReport": verify.run_suite("leibniz", n=2, max_length=2),
    }


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_values(name):
    record = _records()[name]
    assert type(record).__name__ == name.split()[0]
    copy = type(record)(*record)  # a new record from equal fields
    assert copy is not record and copy == record and not copy != record
    if all(_hashable(field) for field in record):
        assert hash(copy) == hash(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__
    changed = record._replace(**{record._fields[0]: "other"})
    assert changed != record and type(changed) is type(record)
