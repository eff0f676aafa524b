import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from idealsieve import lattice
from idealsieve.errors import BudgetExceededError
from idealsieve.ideals import FractionalIdeal, factor_rational_prime
from idealsieve.lattice import (Parallelotope, admissible_modulus,
                                ball_elements, ball_rows,
                                fundamental_domain_reduce,
                                in_scaled_domain, points_in_parallelotope)
from idealsieve.linalg import adjugate, det_int
from idealsieve.numberfield import SUPPORTED_POLYS, make_field, minkowski_norm
from oracles import mat_inv_fraction, parallelotope_oracle

Q = make_field("Q")
QI = make_field("Q(i)")


def test_ball_rational():
    O = FractionalIdeal.unit_ideal(Q)
    pts = ball_elements(Q, O, 3.5)
    assert sorted(int(x.coords[0]) for x in pts) == [-3, -2, -1, 0, 1, 2, 3]


def test_ball_gaussian_brute_force():
    O = FractionalIdeal.unit_ideal(QI)
    r = 4.3
    got = {tuple(int(c) for c in x.coords) for x in ball_elements(QI, O, r)}
    want = set()
    for a in range(-5, 6):
        for b in range(-5, 6):
            if 2 * (a * a + b * b) < r * r:  # both embeddings contribute
                want.add((a, b))
    assert got == want


def test_ball_of_ideal():
    # lattice (1+i): only elements of even norm
    a = FractionalIdeal.principal(QI, QI.element([1, 1]))
    pts = ball_elements(QI, a, 3.0)
    for x in pts:
        if x:
            assert x.norm() % 2 == 0


def test_ball_pattern_B15():
    # the constellation pattern over Q(i): {0, +-1, +-i}
    O = FractionalIdeal.unit_ideal(QI)
    got = {tuple(int(c) for c in x.coords) for x in ball_elements(QI, O, 1.5)}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_ball_budget(monkeypatch):
    O = FractionalIdeal.unit_ideal(QI)
    monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        ball_elements(QI, O, 1e4)


def test_interval_reduction():
    O = FractionalIdeal.unit_ideal(Q)
    red, shift = fundamental_domain_reduce(O, Q.element(17), 10)
    assert int(red.coords[0]) == -3 and int(shift.coords[0]) == 20
    # boundary convention: (-N/2, N/2], so 5 stays, -5 moves to 5
    red, _ = fundamental_domain_reduce(O, Q.element(5), 10)
    assert int(red.coords[0]) == 5
    red, _ = fundamental_domain_reduce(O, Q.element(-5), 10)
    assert int(red.coords[0]) == 5


def test_reduction_gaussian():
    O = FractionalIdeal.unit_ideal(QI)
    x = QI.element([3, 1])
    red, shift = fundamental_domain_reduce(O, x, 2)
    assert red + shift == x
    assert in_scaled_domain(O, red, 2)
    assert O.contains(shift)
    for c in shift.coords:
        assert c % 2 == 0
    assert tuple(int(c) for c in red.coords) == (1, 1)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-100, 100), b=st.integers(-100, 100),
       N=st.integers(1, 20))
def test_reduction_property(a, b, N):
    O = FractionalIdeal.unit_ideal(QI)
    x = QI.element([a, b])
    red, shift = fundamental_domain_reduce(O, x, N)
    assert red + shift == x
    assert in_scaled_domain(O, red, N)
    assert all((c / N).denominator == 1 for c in O.coords(shift))


def test_reduction_ideal_lattice():
    # reduce modulo N * (prime above 5): shifts live in that lattice
    (P5, _) = factor_rational_prime(QI, 5)
    a = P5.ideal()
    x = QI.element([7, 4])  # 7+4i = (2+i)(2+i) ... member check not needed
    x = a.basis_elements()[0] * QI.element(3)
    red, shift = fundamental_domain_reduce(a, x, 4)
    assert red + shift == x
    assert all((c / 4).denominator == 1 for c in a.coords(shift))


def test_parallelotope_counts():
    O = FractionalIdeal.unit_ideal(QI)
    box = Parallelotope(QI, QI.zero, [QI.element([1, 0]), QI.element([0, 1])])
    pts = points_in_parallelotope(O, box.scaled(3))
    assert len(pts) == 9  # [0,3) x [0,3)
    got = {tuple(int(c) for c in x.coords) for x in pts}
    assert got == {(a, b) for a in range(3) for b in range(3)}


def test_parallelotope_half_open():
    O = FractionalIdeal.unit_ideal(Q)
    box = Parallelotope(Q, Q.element(Fraction(-1, 2)), [Q.one])
    pts = points_in_parallelotope(O, box.scaled(2))
    # [-1, 1): contains -1 and 0, not 1
    assert sorted(int(x.coords[0]) for x in pts) == [-1, 0]


def test_parallelotope_skew_ideal():
    a = FractionalIdeal.principal(QI, QI.element([1, 1]))
    box = Parallelotope(QI, QI.zero, [QI.element([1, 0]), QI.element([0, 1])])
    pts = points_in_parallelotope(a, box.scaled(4))
    # index-2 sublattice of [0,4)^2
    assert len(pts) == 8


# every vetted field with O_K, the primes above 2, 3, 5 and 7 and their
# inverses (fractional ideals with den > 1), grouped by field
_BOX_AMBIENTS = [
    [(K, I) for I in [FractionalIdeal.unit_ideal(K)]
     + [J for p in (2, 3, 5, 7) for P in factor_rational_prime(K, p)
        for J in (P.ideal(), P.ideal().inverse())]]
    for K in map(make_field, SUPPORTED_POLYS)]


def _element(K, nums, den):
    return K.element([Fraction(a, den) for a in nums[:K.degree]])


_small_element = st.tuples(st.lists(st.integers(-4, 4), min_size=4,
                                    max_size=4), st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(_BOX_AMBIENTS).flatmap(st.sampled_from),
       origin=_small_element,
       edges=st.lists(_small_element, min_size=4, max_size=4),
       factor=(st.fractions(-3, 3, max_denominator=4)
               | st.floats(-3, 3)).filter(bool),
       budget=st.sampled_from([40, 5000]))
def test_parallelotope_matches_fraction_oracle(case, origin, edges, factor,
                                               budget):
    # small random edges are sometimes singular, and their order gives
    # both signs of the determinant
    K, I = case
    box = Parallelotope(K, _element(K, *origin),
                        [_element(K, *u) for u in edges[:K.degree]])
    box = box.scaled(factor)
    try:
        want = parallelotope_oracle(I, box, budget=budget)
    except (BudgetExceededError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            points_in_parallelotope(I, box, budget=budget)
        return
    got = points_in_parallelotope(I, box, budget=budget)
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(_BOX_AMBIENTS).flatmap(st.sampled_from),
       scales=st.lists(st.integers(1, 4), min_size=4, max_size=4),
       shear=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       flip=st.booleans(), origin=_small_element,
       factor=st.fractions(-4, 4, max_denominator=3).filter(bool),
       budget=st.sampled_from([30, 5000]))
def test_parallelotope_rows_expand_to_the_oracle(case, scales, shear, flip,
                                                 origin, factor, budget):
    # edges d_i (e_i + sum_{j > i} s_ij e_j) are sheared, so the bounds of
    # a row have negative, zero and positive slopes in its last
    # coefficient; flip negates the first edge, and with the sign of the
    # factor that gives both signs of the determinant
    K, I = case
    n = K.degree
    s = iter(shear)
    edges = [[0] * i + [d] + [d * next(s) for _ in range(i + 1, n)]
             for i, d in enumerate(scales[:n])]
    if flip:
        edges[0] = [-x for x in edges[0]]
    box = Parallelotope(K, _element(K, *origin),
                        [K.element(u) for u in edges]).scaled(factor)
    try:
        want = parallelotope_oracle(I, box, budget=budget)
    except BudgetExceededError as exc:
        # raised on the call, before a row is asked for
        with pytest.raises(BudgetExceededError, match=re.escape(str(exc))):
            lattice.parallelotope_rows(I, box, budget)
        return
    rows = list(lattice.parallelotope_rows(I, box, budget))
    assert all(lo <= hi for _, lo, hi in rows)
    assert [I.element_at(c + (t,)) for c, lo, hi in rows
            for t in range(lo, hi + 1)] == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_adjugate_times_matrix_is_det_identity(rows):
    # small entries give singular matrices (adj A A = 0) often
    n = len(rows)
    adj, det = adjugate(rows), det_int(rows)
    scalar = [[det * (i == j) for j in range(n)] for i in range(n)]
    assert all(type(a) is int for row in adj for a in row)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)]
            for row in adj] == scalar
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)]
            for row in rows] == scalar
    if det:
        assert [[Fraction(a, det) for a in row] for row in adj] \
            == mat_inv_fraction(rows)


@pytest.mark.parametrize("edges", [[[3, 0]], [[3, 0], [0, 3], [1, 1]]])
def test_parallelotope_needs_one_edge_per_degree(edges):
    # edges that are no basis of K are a singular edge matrix
    O = FractionalIdeal.unit_ideal(QI)
    box = Parallelotope(QI, QI.zero, [QI.element(u) for u in edges])
    with pytest.raises(ValueError, match="singular matrix"):
        points_in_parallelotope(O, box)


def test_admissible_moduli():
    assert admissible_modulus(1) == 1
    assert admissible_modulus(3) == 6
    assert admissible_modulus(5) == 30


def test_lattice_basis_roundtrip():
    a = FractionalIdeal.principal(QI, QI.element([2, 1])).inverse()
    x = a.element_at([3, -2])
    assert a.coords(x) == [3, -2]


def test_ball_on_skew_ideal_lattice_is_complete():
    # prime above 5 in Z[i] has the skew Z-basis {1 + 3i, 5i}; coefficient
    # ranges must come from the form on that basis, not from the lengths
    # of the basis vectors, or points like 2 + i are silently dropped
    K = make_field("Q(i)")
    (P, _) = factor_rational_prime(K, 5)
    r = 4.4722
    got = {tuple(x.coords) for x in ball_elements(K, P.ideal(), r)}
    brute = set()
    for m in range(-10, 11):
        for k in range(-10, 11):
            a, b = m, 3 * m + 5 * k
            if 2 * (a * a + b * b) < r * r:
                brute.add((a, b))
    assert got == brute
    assert (2, 1) in got


def _inner(K, u, v):
    """The Minkowski inner product u^T G v, in Fractions."""
    return sum(a * g * b for a, row in zip(u.coords, K.gram)
               for g, b in zip(row, v.coords))


def _ball_box(K, ideal, radius):
    """Half-widths floor(radius sqrt((Q^-1)_ii)) of the coefficient box,
    with Q the Gram matrix of the basis elements in Fractions."""
    basis = ideal.basis_elements()
    Q = [[_inner(K, u, v) for v in basis] for u in basis]
    r2 = Fraction(radius) ** 2
    return [math.isqrt(math.floor(r2 * row[i]))
            for i, row in enumerate(mat_inv_fraction(Q))]


def _ball_elements_oracle(K, ideal, radius, budget=10**7):
    """ball_elements by brute force over the coefficient box, each
    candidate summed from the basis elements and tested in Fractions: the
    loop Fincke-Pohst replaced."""
    if radius <= 0:
        return []
    basis = ideal.basis_elements()
    half = _ball_box(K, ideal, radius)
    total = 1
    for h in half:
        total *= 2 * h + 1
        if total > budget:
            raise BudgetExceededError(
                f"ball enumeration box has {total}+ candidates (budget {budget})")
    out = []
    r2 = Fraction(radius) ** 2
    for coeffs in itertools.product(*(range(-h, h + 1) for h in half)):
        x = K.zero
        for c, b in zip(coeffs, basis):
            if c:
                x = x + b * K.element(c)
        if _inner(K, x, x) < r2:
            out.append(x)
    out.sort(key=lambda x: tuple(x.coords))
    return out


# every vetted field with ambient O_K and each prime above 2, 3 and 5
# (among them the non-principal prime above 2 in Q(sqrt-5))
_BALL_AMBIENTS = [
    (K, I) for K in map(make_field, SUPPORTED_POLYS)
    for I in [FractionalIdeal.unit_ideal(K)]
    + [P.ideal() for p in (2, 3, 5) for P in factor_rational_prime(K, p)]]
_QI_UNIT = (QI, FractionalIdeal.unit_ideal(QI))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(_BALL_AMBIENTS), scale=st.floats(0, 2.5),
       on_point=st.none() | st.lists(st.integers(-3, 3), min_size=4,
                                     max_size=4))
# Z[i] points 1 + i, 2 + i and 5 attain radii 2, sqrt(10) and sqrt(50).
# 2 is a float, so 1 + i lies on the sphere and is excluded; the floats
# nearest sqrt(10) and sqrt(50) round up, so 2 + i and 5 lie inside
@example(case=_QI_UNIT, scale=0.0, on_point=[1, 1, 0, 0])
@example(case=_QI_UNIT, scale=0.0, on_point=[2, 1, 0, 0])
@example(case=_QI_UNIT, scale=0.0, on_point=[5, 0, 0, 0])
def test_ball_elements_matches_oracle(case, scale, on_point):
    K, I = case
    n = K.degree
    if on_point is None:
        radius = scale * math.sqrt(n) * float(I.norm()) ** (1 / n)
    else:
        # the radius a lattice point attains, so points lie on the boundary
        x = I.element_at(on_point[:n])
        radius = minkowski_norm(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "ENUMERATION_BUDGET", 20000)
        try:
            want = _ball_elements_oracle(K, I, radius, budget=20000)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                ball_elements(K, I, radius)
            return
        got = ball_elements(K, I, radius)
    assert [x.coords for x in got] == [x.coords for x in want]
    if on_point is not None:
        # norm < radius, decided exactly
        assert (x in got) == (_inner(K, x, x) < Fraction(radius) ** 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.sampled_from(_BALL_AMBIENTS), scale=st.floats(0, 2.5))
def test_ball_rows_reproduce_ball_elements(case, scale):
    # Q is the integer Gram form of the HNF rows; each row (c_0..c_{n-2},
    # lo, hi) is nonempty and inside the box, and expanded over its last
    # coefficient gives ball_elements, in order
    K, I = case
    radius = scale * math.sqrt(K.degree) * float(I.norm()) ** (1 / K.degree)
    try:
        Q, box, rows = ball_rows(I, radius, budget=20000)
    except BudgetExceededError:
        return
    basis = I.basis_elements()
    assert Q == [[_inner(K, u, v) * I.den ** 2 for v in basis] for u in basis]
    rows = list(rows)
    assert all(lo <= hi for _, lo, hi in rows)
    got = [c + (t,) for c, lo, hi in rows for t in range(lo, hi + 1)]
    assert all(abs(x) <= m for c in got for x, m in zip(c, box))
    assert [I.element_at(c) for c in got] == ball_elements(K, I, radius)
    if radius > 0:
        assert box == _ball_box(K, I, radius)


def test_ball_excludes_its_sphere():
    # 1 + i has norm exactly 2: the radius-2 ball of Z[i] is {0, +-1, +-i}
    O = FractionalIdeal.unit_ideal(QI)
    got = {tuple(int(c) for c in x.coords) for x in ball_elements(QI, O, 2)}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_ball_memory_bounded_by_blocks():
    # the prime above 100049 in Z[i] has the skew basis {1 + 82367i,
    # 100049i}: about 1e6 box candidates for a handful of ball points.
    # Holding the whole box as int64 coefficients alone would take 16 MB.
    (P, *_) = factor_rational_prime(QI, 100049)
    r = 2.5 * math.sqrt(100049)
    half = _ball_box(QI, P.ideal(), r)
    assert 9e5 < math.prod(2 * h + 1 for h in half) < 2e6
    tracemalloc.start()
    try:
        pts = ball_elements(QI, P.ideal(), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(pts) < 100
    assert peak < 2 * 2**20
