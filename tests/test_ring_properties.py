"""Property tests on the ring R_n at n = 3 and n = 4."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flagops import schubert as sr
from flagops.partitions import partitions

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def ring_elements(draw, n, degree):
    """Elements of R_n of degree <= degree (exactly degree if homogeneous)."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, degree))
        p_part = draw(st.sampled_from(partitions(draw(st.integers(0, d)), n - 1)))
        x = [0] * n
        for _ in range(d - sum(p_part)):
            x[draw(st.integers(0, n - 1))] += 1
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms[(p_part, tuple(x))] = terms.get((p_part, tuple(x)), 0) + coeff
    return sr.RnElement(n, terms)


def elements_with_index(degree):
    return st.sampled_from((3, 4)).flatmap(
        lambda n: st.tuples(ring_elements(n, degree), st.integers(0, n - 1))
    )


@PROPERTY
@given(st.sampled_from((3, 4)).flatmap(lambda n: ring_elements(n, 6)))
def test_normal_form_is_idempotent(f):
    assert all(all(x[i] < f.n - i for i in range(f.n)) for _, x in f.terms)
    assert sr.RnElement(f.n, dict(f.terms)) == f


@PROPERTY
@given(elements_with_index(4))
def test_divided_difference_squares_to_zero(fi):
    f, i = fi
    assert sr.divided_difference(i, sr.divided_difference(i, f)).is_zero()


@PROPERTY
@given(elements_with_index(4))
def test_divided_differences_satisfy_braid_relation(fi):
    f, i = fi
    j = i + 1
    dd = sr.divided_difference
    assert dd(i, dd(j, dd(i, f))) == dd(j, dd(i, dd(j, f)))


@PROPERTY
@given(
    st.sampled_from(((3, 4), (4, 3))).flatmap(
        lambda nd: ring_elements(nd[0], nd[1]).map(lambda f: f.homogeneous(nd[1]))
    )
)
def test_schubert_expansion_round_trips(f):
    degree = max(f.degrees(), default=0)
    coeffs = sr.schubert_basis(f.n, degree).expand(f)
    total = sr.RnElement(f.n)
    for w, c in coeffs.items():
        total = total + sr.affine_schubert(w).scale(c)
    assert total == f
