"""The shared element base: NilCoxElement, RnElement and SymFunc arithmetic."""

from fractions import Fraction

import pytest

from flagops.afperm import from_reduced_word, identity
from flagops.errors import ModulusMismatchError
from flagops.nilcox import NilCoxElement
from flagops.schubert import RnElement
from flagops.symfunc import SymFunc


def rebuild(x, terms):
    """The element with x's context and the given terms, by the public constructor."""
    if isinstance(x, SymFunc):
        return SymFunc(x.basis, terms, x.k)
    return type(x)(x.n, terms)


def nilcox(n):
    return NilCoxElement(
        n, {identity(n): 3, from_reduced_word(n, [0]): Fraction(1, 2), from_reduced_word(n, [1, 0]): -2}
    )


def ring(n):
    zero = (0,) * n
    return RnElement(n, {((), zero): 3, ((1,), zero): Fraction(1, 2), ((), (1, 1) + zero[2:]): -2})


def symfunc(basis, k):
    return SymFunc(basis, {(): 3, (1,): Fraction(1, 2), (1, 1): -2}, k)


def canonical(c) -> bool:
    """The one coefficient form: an int when integral, else a Fraction; never 0."""
    return type(c) is (int if c.denominator == 1 else Fraction) and c != 0


SAMPLES = {"nilcox": nilcox(3), "ring": ring(3), "symfunc": symfunc("p", 2)}

MISMATCHES = [
    # (sample, operand with another context, error, operators that must raise)
    ("nilcox", nilcox(4), ModulusMismatchError, "+-*"),
    ("ring", ring(4), ModulusMismatchError, "+-*"),
    ("symfunc", symfunc("m", 2), ValueError, "+-"),  # products change basis
    ("symfunc", symfunc("p", 3), ValueError, "+-*"),
]

OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


@pytest.mark.parametrize(
    "name, other, error, ops", MISMATCHES, ids=["nilcox-n", "ring-n", "symfunc-basis", "symfunc-k"]
)
def test_mismatched_context_raises_the_type_error(name, other, error, ops):
    x = SAMPLES[name]
    for op in ops:
        with pytest.raises(error):
            OPS[op](x, other)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_elements_hash_equal(name):
    x = SAMPLES[name]
    twin = rebuild(x, dict(reversed(list(x.terms.items()))))
    assert twin == x and twin is not x
    assert hash(twin) == hash(x)
    assert len({x, twin, x.scale(2)}) == 2


def test_types_and_contexts_distinguish_elements():
    assert NilCoxElement(3) != RnElement(3)
    assert RnElement(3) != RnElement(4)
    assert SymFunc("p") != SymFunc("m")
    assert SymFunc("p", k=2) != SymFunc("p", k=3)
    with pytest.raises(TypeError):
        NilCoxElement(3) + RnElement(3)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_zero_results(name):
    x = SAMPLES[name]
    for z in (x - x, x.scale(0), 0 * x, x + -x):
        assert z.is_zero() and z.terms == {} and z == rebuild(x, {})


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_degrees_and_homogeneous_parts(name):
    x = SAMPLES[name]
    assert x.degrees() == [0, 1, 2]
    total = rebuild(x, {})
    for d in x.degrees():
        part = x.homogeneous(d)
        assert part.degrees() == [d]
        assert part == rebuild(x, {key: c for key, c in x.terms.items() if x._degree(key) == d})
        total = total + part
    assert total == x
    assert x.homogeneous(7).is_zero()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_results_equal_the_public_constructor(name):
    x = SAMPLES[name]
    keys = list(x.terms)
    # y cancels x's first term, changes the second and adds nothing new
    y = rebuild(x, {keys[0]: -x.terms[keys[0]], keys[1]: 1})
    expected = {
        "+": {keys[1]: x.terms[keys[1]] + 1, keys[2]: x.terms[keys[2]]},
        "-": {keys[0]: 2 * x.terms[keys[0]], keys[1]: x.terms[keys[1]] - 1, keys[2]: x.terms[keys[2]]},
        "scale": {key: Fraction(-2, 3) * c for key, c in x.terms.items()},
        "neg": {key: -c for key, c in x.terms.items()},
    }
    got = {"+": x + y, "-": x - y, "scale": x.scale(Fraction(-2, 3)), "neg": -x}
    for op, z in got.items():
        want = rebuild(x, expected[op])
        assert z == want, op
        assert list(z.terms) == list(want.terms), op
        assert all(canonical(c) for c in z.terms.values()), op
    assert Fraction(-2, 3) * x == got["scale"]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_coefficients_are_ints_where_integral(name):
    x = SAMPLES[name]
    keys = list(x.terms)
    half = rebuild(x, {keys[0]: Fraction(1, 2)})
    assert (half + half).terms == {keys[0]: 1}
    assert type((half + half).terms[keys[0]]) is int
    assert type((x - half).terms[keys[0]]) is Fraction
    # scaling by an integral Fraction leaves ints; by 1/3 gives Fractions
    doubled = x.scale(Fraction(4, 2))
    assert doubled.terms == {key: 2 * c for key, c in x.terms.items()}
    assert all(canonical(c) for c in doubled.terms.values())
    assert type(doubled.terms[keys[1]]) is int  # 2 * 1/2
    third = rebuild(x, {keys[0]: 3, keys[2]: 1}).scale(Fraction(1, 3))
    assert type(third.terms[keys[0]]) is int and type(third.terms[keys[2]]) is Fraction
    # the public constructor and from_json normalise their inputs
    twin = rebuild(x, {key: Fraction(2) for key in keys})
    plain = rebuild(x, {key: 2 for key in keys})
    assert twin == plain and hash(twin) == hash(plain)
    assert all(type(c) is int for c in twin.terms.values())
    data = x.to_json()
    for t in data["terms"]:
        t["coeff"] = "3/1"
    loaded = type(x).from_json(data)
    assert loaded.terms and all(c == 3 and type(c) is int for c in loaded.terms.values())
