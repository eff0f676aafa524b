import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealsieve.errors import BudgetExceededError
from idealsieve.ideals import FractionalIdeal, factor_rational_prime
from idealsieve.lattice import (LatticeBasis, Parallelotope,
                                admissible_modulus, ball_elements,
                                fundamental_domain_reduce, in_scaled_domain,
                                points_in_parallelotope)
from idealsieve.numberfield import make_field, minkowski_norm

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


def test_ball_budget():
    O = FractionalIdeal.unit_ideal(QI)
    with pytest.raises(BudgetExceededError):
        ball_elements(QI, O, 1e4, budget=100)


def test_interval_reduction():
    O = FractionalIdeal.unit_ideal(Q)
    red, shift = fundamental_domain_reduce(Q, O, Q.element(17), 10)
    assert int(red.coords[0]) == -3 and int(shift.coords[0]) == 20
    # boundary convention: (-N/2, N/2], so 5 stays, -5 moves to 5
    red, _ = fundamental_domain_reduce(Q, O, Q.element(5), 10)
    assert int(red.coords[0]) == 5
    red, _ = fundamental_domain_reduce(Q, O, Q.element(-5), 10)
    assert int(red.coords[0]) == 5


def test_reduction_gaussian():
    O = FractionalIdeal.unit_ideal(QI)
    x = QI.element([3, 1])
    red, shift = fundamental_domain_reduce(QI, O, x, 2)
    assert red + shift == x
    assert in_scaled_domain(QI, O, red, 2)
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
    red, shift = fundamental_domain_reduce(QI, O, x, N)
    assert red + shift == x
    assert in_scaled_domain(QI, O, red, N)
    L = LatticeBasis(O)
    assert all((c / N).denominator == 1 for c in L.coords_of(shift))


def test_reduction_ideal_lattice():
    # reduce modulo N * (prime above 5): shifts live in that lattice
    (P5, _) = factor_rational_prime(QI, 5)
    a = P5.ideal()
    x = QI.element([7, 4])  # 7+4i = (2+i)(2+i) ... member check not needed
    x = a.basis_elements()[0] * QI.element(3)
    red, shift = fundamental_domain_reduce(QI, a, x, 4)
    assert red + shift == x
    L = LatticeBasis(a)
    assert all((c / 4).denominator == 1 for c in L.coords_of(shift))


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


def test_admissible_moduli():
    assert admissible_modulus(1) == 1
    assert admissible_modulus(3) == 6
    assert admissible_modulus(5) == 30


def test_lattice_basis_roundtrip():
    a = FractionalIdeal.principal(QI, QI.element([2, 1])).inverse()
    L = LatticeBasis(a)
    x = L.element_at([3, -2])
    assert [int(c) for c in L.coords_of(x)] == [3, -2]


def test_ball_on_skew_ideal_lattice_is_complete():
    # prime above 5 in Z[i] has the skew Z-basis {1 + 3i, 5i}; the
    # coefficient box must come from columns of the inverse embedding
    # matrix, or points like 2 + i are silently dropped
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
