import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from idealsieve.errors import ReduciblePolynomialError, UnsupportedFieldError
from idealsieve.linalg import det_int
from idealsieve.numberfield import (_discriminant, field_by_name, make_field,
                                    minkowski_norm)
from oracles import (coords_add, coords_minkowski_norm, coords_mul,
                     coords_neg, coords_norm, coords_scale, det_fraction)

ALL_FIELDS = ["Q", "Q(i)", "Q(sqrt2)", "Q(sqrt-2)", "Q(sqrt-3)", "Q(sqrt5)",
              "Q(sqrt-5)", "Q(zeta5)"]

# frozen discriminants, checked against the resultant formula
DISCS = {"Q": 1, "Q(i)": -4, "Q(sqrt2)": 8, "Q(sqrt-2)": -8,
         "Q(sqrt-3)": -3, "Q(sqrt5)": 5, "Q(sqrt-5)": -20, "Q(zeta5)": 125}


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_discriminants(name):
    assert make_field(name).discriminant == DISCS[name]


def test_unknown_field_rejected():
    with pytest.raises(UnsupportedFieldError):
        field_by_name("Q(sqrt17)")
    with pytest.raises(UnsupportedFieldError):
        make_field((3, 0, 1))  # x^2 + 3 is not monogenic for Q(sqrt-3)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomialError):
        make_field((-1, 0, 1))  # x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(ReduciblePolynomialError):
        make_field((1, 2, 1))  # (x + 1)^2


_X = sympy.Symbol("x")


@settings(max_examples=200, deadline=None)
@given(poly=st.integers(2, 5).flatmap(lambda n: st.lists(
    st.integers(-20, 20), min_size=n, max_size=n)).map(lambda c: c + [1]))
def test_discriminant_matches_resultant(poly):
    # disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree n
    n = len(poly) - 1
    f = sympy.Poly(sum(c * _X**i for i, c in enumerate(poly)), _X)
    res = sympy.resultant(f, f.diff(_X))
    assert _discriminant(poly) == (-1) ** (n * (n - 1) // 2) * res


def test_signatures():
    assert (make_field("Q").r1, make_field("Q").r2) == (1, 0)
    assert (make_field("Q(i)").r1, make_field("Q(i)").r2) == (0, 1)
    assert (make_field("Q(sqrt2)").r1, make_field("Q(sqrt2)").r2) == (2, 0)
    assert (make_field("Q(zeta5)").r1, make_field("Q(zeta5)").r2) == (0, 2)


def test_element_arithmetic_qi():
    K = make_field("Q(i)")
    x = K.element([1, 1])   # 1 + i
    y = K.element([2, -1])  # 2 - i
    assert (x * y).coords == (Fraction(3), Fraction(1))
    assert (x + y).coords == (Fraction(3), Fraction(0))
    assert x.norm() == 2
    assert y.norm() == 5


def test_poly_reduction_quartic():
    K = make_field("Q(zeta5)")
    t = K.theta
    # theta^4 = -(1 + t + t^2 + t^3)
    assert (t * t * t * t).coords == tuple(Fraction(-1) for _ in range(4))
    f = K.zero
    for i, c in enumerate(K.poly):
        f = f + K.element(c) * K.theta_power(i)
    assert not f


def test_minkowski_norm_values():
    K = make_field("Q(i)")
    # |1 + i| in the metric: both complex embeddings contribute,
    # sqrt(2 * |1+i|^2) = 2
    assert minkowski_norm(K, K.element([1, 1])) == pytest.approx(2.0)
    assert minkowski_norm(K, K.one) == pytest.approx(math.sqrt(2))
    Q = make_field("Q")
    assert minkowski_norm(Q, Q.element(7)) == pytest.approx(7.0)


def _roots(K):
    """The n complex embeddings of theta, from mpmath.polyroots at 40
    digits: the route the Minkowski metric took before the Gram matrix."""
    if K.degree == 1:
        return [mpmath.mpc(0)]
    with mpmath.workdps(40):
        return mpmath.polyroots([mpmath.mpf(c) for c in K.poly[::-1]],
                                maxsteps=200)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_gram_and_signature_match_embeddings(name):
    # the premise of the integer metric: every vetted field is totally real
    # or CM, so G_ij = sum over embeddings s of s(theta)^i conj(s(theta))^j
    # is an integer matrix, and r1, r2 read off G are the signature
    K = make_field(name)
    roots = _roots(K)
    n = K.degree
    with mpmath.workdps(40):
        for i in range(n):
            for j in range(n):
                g = mpmath.fsum(r ** i * mpmath.conj(r) ** j for r in roots)
                assert abs(g - K.gram[i][j]) < mpmath.mpf(10) ** -30
        real = sum(abs(mpmath.im(r)) < mpmath.mpf(10) ** -20 for r in roots)
    assert (K.r1, K.r2) == (real, (n - real) // 2)
    assert K.r1 in (0, n)  # totally real or totally complex


def _minkowski_norm_float(K, x):
    """The float route the metric replaced: Horner at each complex root in
    floating point, then the square root of the sum of |s(x)|^2."""
    s = 0.0
    for r in map(complex, _roots(K)):
        v = 0j
        for c in reversed(x.coords):
            v = v * r + complex(c)
        s += v.real * v.real + v.imag * v.imag
    return math.sqrt(s)


coord = st.integers(min_value=-30, max_value=30)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(coord, min_size=2, max_size=2),
       b=st.lists(coord, min_size=2, max_size=2))
def test_norm_multiplicative(a, b):
    K = make_field("Q(i)")
    x, y = K.element(a), K.element(b)
    assert (x * y).norm() == x.norm() * y.norm()


@settings(max_examples=60, deadline=None)
@given(a=st.lists(coord, min_size=2, max_size=2),
       b=st.lists(coord, min_size=2, max_size=2))
def test_minkowski_triangle_inequality(a, b):
    K = make_field("Q(sqrt-2)")
    x, y = K.element(a), K.element(b)
    lhs = minkowski_norm(K, x + y)
    assert lhs <= minkowski_norm(K, x) + minkowski_norm(K, y) + 1e-9


rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(ALL_FIELDS),
       coords=st.lists(rational, min_size=4, max_size=4))
def test_minkowski_norm_matches_float_route(name, coords):
    K = field_by_name(name)
    x = K.element(coords[:K.degree])
    assert minkowski_norm(K, x) == pytest.approx(_minkowski_norm_float(K, x),
                                                 rel=1e-15, abs=0)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["Q", "Q(i)"]),
       coords=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2))
def test_minkowski_norm_is_float_route_on_integers(name, coords):
    # every float operation of the old route is exact here, so the two
    # agree bit for bit
    K = field_by_name(name)
    x = K.element(coords[:K.degree])
    assert minkowski_norm(K, x) == _minkowski_norm_float(K, x)


def test_norm_arithmetic_mean_geometric():
    # |N(x)|^(1/n) <= |x|_Min / sqrt(n) (AM-GM over embeddings)
    K = make_field("Q(sqrt5)")
    x = K.element([3, 2])
    n = K.degree
    assert abs(float(x.norm())) ** (1 / n) <= \
        minkowski_norm(K, x) / math.sqrt(n) + 1e-9


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(ALL_FIELDS),
       coords=st.lists(rational, min_size=4, max_size=4))
def test_norm_matches_fraction_determinant(name, coords):
    K = field_by_name(name)
    x = K.element(coords[:K.degree])
    assert x.norm() == coords_norm(K, tuple(x.coords))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_int_matches_fraction_determinant(rows):
    # small entries hit zero pivots and singular matrices often
    assert det_int(rows) == det_fraction(rows)


def _in_lowest_terms(x):
    return (type(x.num) is tuple and len(x.num) == x.K.degree
            and all(type(a) is int for a in x.num)
            and type(x.den) is int and x.den >= 1
            and math.gcd(x.den, *x.num) == 1)


# denominators 1 .. 12
small_rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(ALL_FIELDS),
       a=st.lists(small_rational, min_size=4, max_size=4),
       b=st.lists(small_rational, min_size=4, max_size=4),
       m=st.integers(-50, 50), q=small_rational)
def test_element_arithmetic_matches_fraction_oracle(name, a, b, m, q):
    K = field_by_name(name)
    a, b = tuple(a[:K.degree]), tuple(b[:K.degree])
    x, y = K.element(a), K.element(b)
    m_, q_ = ((m,) + (0,) * (K.degree - 1), (q,) + (0,) * (K.degree - 1))
    cases = [(x, a), (y, b), (x + y, coords_add(a, b)),
             (x - y, coords_add(a, coords_neg(b))), (-x, coords_neg(a)),
             (x * y, coords_mul(K, a, b)), (x * m, coords_scale(m, a)),
             (m * x, coords_scale(m, a)), (x * q, coords_scale(q, a)),
             (q * x, coords_scale(q, a)), (x + m, coords_add(a, m_)),
             (q - x, coords_add(q_, coords_neg(a)))]
    for z, want in cases:
        assert z.coords == want
        assert all(type(c) is Fraction for c in z.coords)
        assert _in_lowest_terms(z)
        assert K.element(z.coords) == z
        assert z.norm() == coords_norm(K, want)
        assert minkowski_norm(K, z) == coords_minkowski_norm(K, want)
        assert bool(z) == any(want)
    assert (x == y) == (a == b)
    # equal values built by different routes are equal, with equal hashes
    w = (x + y) - y
    assert w == x and hash(w) == hash(x)
    assert (w.num, w.den) == (x.num, x.den)
