import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from idealsieve import sieve
from idealsieve.correlation import (LinearFormSystem, F_euler,
                                    _mobius_totient, _pair_sum_ideals,
                                    _pair_sum_rational,
                                    auto_correlation_check,
                                    cross_correlation_sum,
                                    hypergraph_conditions_report,
                                    local_factor_omega, pattern_points,
                                    relative_density,
                                    singular_series_direct,
                                    singular_series_main_term,
                                    squarefree_ideals, tau_factor,
                                    tau_weight)
from idealsieve.ideals import (FractionalIdeal, enumerate_prime_ideals,
                               factor_rational_prime)
from idealsieve.lattice import Parallelotope
from idealsieve.linalg import hnf
from idealsieve.numberfield import make_field
from idealsieve.sieve import DEFAULT_BUMP, SieveConfig
from oracles import gauss_jordan_coords, singular_series_euler

Q = make_field("Q")
QI = make_field("Q(i)")


def unit_box(K):
    return Parallelotope(K, K.zero, [K.theta_power(j)
                                     for j in range(K.degree)])


# ---------------------------------------------------------------- forms

def test_forms_validation():
    LinearFormSystem(Q, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        LinearFormSystem(Q, [[1, 2], [2, 4]])  # proportional
    with pytest.raises(ValueError):
        LinearFormSystem(Q, [[0, 0]])
    with pytest.raises(ValueError):
        LinearFormSystem(Q, [[Fraction(1, 2), 1]])  # not in O_K
    with pytest.raises(ValueError):
        LinearFormSystem(QI, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])
    # i * (x + i y) = ix - y: proportional over O_K


def test_forms_apply():
    forms = LinearFormSystem(Q, [[1, 2]], shifts=[5])
    x = [Q.element(3), Q.element(4)]
    assert int((forms.apply(0, x) + forms.shifts[0]).coords[0]) == 16


# ---------------------------------------------------------------- omega

def test_omega_case_table_rational():
    forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    for p in (5, 7, 11):
        (P,) = factor_rational_prime(Q, p)
        assert local_factor_omega(forms, P, (0, 0), 6, 1) == 1
        assert local_factor_omega(forms, P, (1, 0), 6, 1) == Fraction(1, p)
        assert local_factor_omega(forms, P, (0, 1), 6, 1) == Fraction(1, p)
        assert local_factor_omega(forms, P, (1, 1), 6, 1) == Fraction(1, p * p)
    for p in (2, 3):
        (P,) = factor_rational_prime(Q, p)
        assert local_factor_omega(forms, P, (1, 0), 6, 1) == 0
        assert local_factor_omega(forms, P, (0, 0), 6, 1) == 1


def test_omega_case_table_gaussian():
    forms = LinearFormSystem(QI, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    for P in enumerate_prime_ideals(QI, 50):
        if P.p == 2:
            assert local_factor_omega(forms, P, (1, 1), 2, QI.one) == 0
            continue
        q = P.norm()
        assert local_factor_omega(forms, P, (0, 0), 2, QI.one) == 1
        assert local_factor_omega(forms, P, (1, 0), 2, QI.one) \
            == Fraction(1, q)
        assert local_factor_omega(forms, P, (1, 1), 2, QI.one) \
            == Fraction(1, q * q)


def test_omega_double_mark_degenerate_prime():
    # forms x and x + 2y agree mod 2, so the double mark costs only one
    # residue condition there, but two conditions at every odd prime
    forms = LinearFormSystem(Q, [[1, 0], [1, 2]])
    (P2,) = factor_rational_prime(Q, 2)
    assert local_factor_omega(forms, P2, (1, 1), 1, 1) == Fraction(1, 2)
    (P5,) = factor_rational_prime(Q, 5)
    assert local_factor_omega(forms, P5, (1, 1), 1, 1) == Fraction(1, 25)
    # either way the 1/Np bound per marked residue condition holds
    assert local_factor_omega(forms, P2, (1, 1), 1, 1) <= Fraction(1, 2)


def test_omega_crt_multiplicativity():
    forms = LinearFormSystem(Q, [[1, 1], [1, -1]])
    (P5,) = factor_rational_prime(Q, 5)
    (P7,) = factor_rational_prime(Q, 7)
    om5 = local_factor_omega(forms, P5, (1, 0), 1, 1)
    om7 = local_factor_omega(forms, P7, (0, 1), 1, 1)
    # joint count over Z/35 x Z/35 must equal the product
    count = 0
    for x in itertools.product(range(35), repeat=2):
        if (x[0] + x[1] + 1) % 5 == 0 and (x[0] - x[1] + 1) % 7 == 0:
            count += 1
    assert Fraction(count, 35 ** 2) == om5 * om7


def test_omega_in_unit_interval():
    forms = LinearFormSystem(QI, [[[1, 0], [1, 1]]])
    for P in enumerate_prime_ideals(QI, 30):
        om = local_factor_omega(forms, P, (1,), 1, QI.one)
        assert 0 <= om <= 1


def _coset_reps(ambient, sub):
    """Coset representatives of sub inside ambient (sub <= ambient)."""
    K = ambient.K
    n = K.degree
    # coordinates of sub's basis in ambient's basis
    rows = []
    for b in sub.basis_elements():
        c = gauss_jordan_coords(ambient, b)
        if any(ci.denominator != 1 for ci in c):
            raise ValueError("sub is not contained in ambient")
        rows.append([int(ci) for ci in c])
    H = hnf(rows, n)
    reps = []
    basis = ambient.basis_elements()
    for combo in itertools.product(*(range(H[i][i]) for i in range(n))):
        acc = K.zero
        for r, b in zip(combo, basis):
            if r:
                acc = acc + b * K.element(r)
        reps.append(acc)
    return reps


def _omega_coset_oracle(forms, P, marks, W, alpha):
    # the exhaustive count over (b / P b)^m that the F_p solve replaced
    if not any(marks):
        return Fraction(1)
    if W % P.p == 0:
        return Fraction(0)
    K = forms.K
    Pb = P.ideal() * forms.ambient
    reps = _coset_reps(forms.ambient, Pb)
    q = P.norm()
    Wel = K.element(W)
    marked = [i for i, t in enumerate(marks) if t]
    bprime = [Wel * forms.shifts[i] + alpha for i in marked]
    count = 0
    for x in itertools.product(reps, repeat=forms.m):
        ok = True
        for i, bp in zip(marked, bprime):
            v = Wel * forms.apply(i, x) + bp
            if not Pb.contains(v):
                ok = False
                break
        if ok:
            count += 1
    return Fraction(count, q ** forms.m)


# Ambients per field: O_K and the primes of norm <= 9, which in Q(sqrt-5)
# include the non-principal primes above 2 and 3.
OMEGA_FIELDS = [make_field(name) for name in
                ("Q", "Q(i)", "Q(sqrt-5)", "Q(sqrt-3)", "Q(zeta5)")]
OMEGA_AMBIENTS = {K: [FractionalIdeal.unit_ideal(K)]
                  + [P.ideal() for P in enumerate_prime_ideals(K, 9)
                     if P.norm() <= 9] for K in OMEGA_FIELDS}
OMEGA_PRIMES = {K: [P for P in enumerate_prime_ideals(K, 16)
                    if P.norm() <= 16] for K in OMEGA_FIELDS}


def _element_in(ideal, coeffs):
    basis = ideal.basis_elements()
    return sum((b * ideal.K.element(c) for b, c in zip(basis, coeffs)),
               ideal.K.zero)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_omega_matches_coset_oracle(data):
    K = data.draw(st.sampled_from(OMEGA_FIELDS), label="field")
    n = K.degree
    b = data.draw(st.sampled_from(OMEGA_AMBIENTS[K]), label="ambient")
    P = data.draw(st.sampled_from(OMEGA_PRIMES[K]), label="P")
    m = data.draw(st.integers(1, 2), label="m")
    assume(P.norm() ** m <= 256)
    s = data.draw(st.integers(1, 3), label="s")
    small = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    coeffs = data.draw(st.lists(st.lists(small, min_size=m, max_size=m),
                                min_size=s, max_size=s), label="coeffs")
    shifts = [_element_in(b, c) for c in data.draw(
        st.lists(small, min_size=s, max_size=s), label="shifts")]
    # alpha over a denominator of 1 or 2 lies outside b about as often
    # as inside it
    alpha = K.element(data.draw(small, label="alpha")) \
        * K.element(Fraction(1, data.draw(st.sampled_from([1, 2]))))
    try:
        forms = LinearFormSystem(K, coeffs, shifts=shifts, ambient=b)
    except ValueError:  # a zero or a proportional form
        assume(False)
    W = data.draw(st.sampled_from([1, 6]), label="W")
    for marks in itertools.product((False, True), repeat=s):
        assert local_factor_omega(forms, P, marks, W, alpha) \
            == _omega_coset_oracle(forms, P, marks, W, alpha)


def test_omega_follows_mutated_shift():
    # the cache is keyed on the content of the form system, so a shift
    # changed in place is seen by the next call
    (P5,) = factor_rational_prime(Q, 5)
    forms = LinearFormSystem(Q, [[1, 0], [5, 5]], shifts=[0, 0])
    assert local_factor_omega(forms, P5, (0, 1), 1, 1) == 0
    forms.shifts[1] = Q.element(4)
    assert local_factor_omega(forms, P5, (0, 1), 1, 1) == 1
    fresh = LinearFormSystem(Q, [[1, 0], [5, 5]], shifts=[0, 4])
    assert local_factor_omega(fresh, P5, (0, 1), 1, 1) == 1


# ---------------------------------------------------------------- singular series

def _singular_series_integer_oracle(R, W=1):
    # s = 1, over the rationals: sum mu(d) mu(d') phi phi' / lcm(d, d')
    phi = DEFAULT_BUMP
    logR = math.log(R)
    total = 0.0
    for d in range(1, int(R)):
        for dp in range(1, int(R)):
            md, mdp = sympy.mobius(d), sympy.mobius(dp)
            if md == 0 or mdp == 0:
                continue
            if math.gcd(d, W) != 1 or math.gcd(dp, W) != 1:
                continue
            val = (md * mdp * phi(math.log(d) / logR)
                   * phi(math.log(dp) / logR))
            total += val / (d * dp // math.gcd(d, dp))
    return total


def _pair_sum_lcm_oracle(R, W):
    # the D x D lcm matrix: sum over squarefree d, d' < R coprime to W of
    # mu(d) mu(d') phi phi' / lcm(d, d'), one fixed-order fsum per row
    phi = DEFAULT_BUMP
    logR = math.log(R)
    d = np.arange(1, int(math.ceil(R)), dtype=np.int64)
    mob = np.array([int(sympy.mobius(int(x))) for x in d], dtype=np.int64)
    keep = mob != 0
    if W > 1:
        keep &= np.gcd(d, W) == 1
    d = d[keep]
    c = mob[keep] * np.array([phi(math.log(int(x)) / logR) for x in d])
    lcm = (d[:, None] // np.gcd.outer(d, d)) * d[None, :]
    M = (c[:, None] * c[None, :]) / lcm
    return math.fsum(math.fsum(row) for row in M)


@settings(max_examples=30, deadline=None)
@given(R=st.floats(min_value=2.0, max_value=3000.0),
       W=st.sampled_from([1, 2, 6, 30, 210]))
def test_pair_sum_diagonalised_matches_lcm_oracle(R, W):
    got = _pair_sum_rational(R, W, math.log(R), DEFAULT_BUMP)
    assert got == pytest.approx(_pair_sum_lcm_oracle(R, W), rel=1e-12)


def _pair_sum_ideals_oracle(pairs, logR, phi):
    # the D x D double loop over squarefree ideals d, d' with N lcm(d, d')
    vals = []
    phis = [phi(math.log(n) / logR) if n > 1 else 1.0 for _, n in pairs]
    for i, (Si, ni) in enumerate(pairs):
        mi = (-1) ** len(Si)
        for j, (Sj, nj) in enumerate(pairs):
            lcm_norm = 1
            for P in Si | Sj:
                lcm_norm *= P.norm()
            mj = (-1) ** len(Sj)
            vals.append(mi * mj * phis[i] * phis[j] / lcm_norm)
    return math.fsum(vals)


@pytest.mark.parametrize("name", ["Q(i)", "Q(sqrt-5)", "Q(zeta5)"])
@pytest.mark.parametrize("R,W", [(30.5, 1), (300.0, 6), (1000.0, 2)])
def test_pair_sum_ideals_matches_lcm_oracle(name, R, W):
    pairs = squarefree_ideals(make_field(name), R, W)
    logR = math.log(R)
    got = _pair_sum_ideals(pairs, logR, DEFAULT_BUMP)
    assert got == pytest.approx(
        _pair_sum_ideals_oracle(pairs, logR, DEFAULT_BUMP), rel=1e-12)


def test_mobius_totient_sieve_matches_sympy():
    mu, tot = _mobius_totient(5000)
    assert mu[1:] == [sympy.mobius(k) for k in range(1, 5001)]
    assert tot[1:] == [sympy.totient(k) for k in range(1, 5001)]


def test_singular_series_rational_oracle():
    forms = LinearFormSystem(Q, [[1]])
    for R in (2.0, 10.0, 25.0):
        got = singular_series_direct(forms, R, 1)
        assert got == pytest.approx(_singular_series_integer_oracle(R),
                                    rel=1e-12)


def test_singular_series_trivial_R():
    forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    assert singular_series_direct(forms, 1.5, 6) == 1.0


def test_singular_series_fast_vs_direct():
    forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    fast = singular_series_direct(forms, 20.0, 6)
    primes = enumerate_prime_ideals(Q, 19)
    direct = singular_series_direct(forms, 20.0, 6, prime_support=primes,
                                    budget=10**8)
    assert fast == pytest.approx(direct, rel=1e-12)


def test_singular_series_gaussian_fast_vs_direct():
    forms = LinearFormSystem(QI, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                             shifts=[QI.zero, QI.zero])
    fast = singular_series_direct(forms, 8.0, 2, alpha=QI.one)
    primes = enumerate_prime_ideals(QI, 7)
    direct = singular_series_direct(forms, 8.0, 2, alpha=QI.one,
                                    prime_support=primes, budget=10**8)
    assert fast == pytest.approx(direct, rel=1e-12)


def test_euler_route_agrees_on_common_support():
    # with Euler weights and identical prime support, the direct tuple sum
    # factors exactly into the truncated Euler product; R is chosen so that
    # every squarefree product of the support fits under the norm cutoff
    forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    R = 36.0
    primes = enumerate_prime_ideals(Q, 7)  # {2, 3, 5, 7}; W = 6 keeps {5, 7}
    direct = singular_series_euler(forms, R, 6, primes, [0.0, 0.0],
                                   [0.0, 0.0])
    value, _, _ = F_euler(forms, [0.0, 0.0], [0.0, 0.0], 7, R, 6)
    assert direct == pytest.approx(value, rel=1e-9)


def test_f_euler_single_prime_oracle():
    # s = 1 at a single prime: 1 - 2 q^{-1-1/logR} + q^{-1-2/logR}
    forms = LinearFormSystem(Q, [[1]])
    R = 50.0
    logR = math.log(R)
    value, _, _ = F_euler(forms, [0.0], [0.0], 3, R, 2)
    q = 3.0
    want = 1 - 2 * q ** (-1 - 1 / logR) + q ** (-1 - 2 / logR)
    assert value.real == pytest.approx(want, rel=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_f_euler_tracks_main_term():
    # truncated Euler product stays near the predicted main term once the
    # prime cutoff passes R (truncation error and 1/logR corrections both
    # contribute, so only a coarse band is meaningful at feasible sizes)
    forms = LinearFormSystem(Q, [[1]])
    for R, P in ((10.0, 50), (20.0, 200)):
        value, main, tail = F_euler(forms, [0.0], [0.0], P, R, 6)
        assert abs(value / main - 1) < 0.2
        assert tail >= 1.0


def test_f_euler_nonzero_frequency():
    # t != t' gives a genuinely complex main term; the product should be
    # within the same coarse band of it
    forms = LinearFormSystem(Q, [[1]])
    value, main, _ = F_euler(forms, [1.0], [-0.5], 200, 20.0, 6)
    assert abs(main.imag) > 0
    assert abs(value / main - 1) < 0.3


def test_singular_series_main_term_value():
    forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    cphi = 59.7399608
    want = (cphi * 6 / (2 * math.log(100.0) * 1.0)) ** 2
    assert singular_series_main_term(forms, 100.0, 6) \
        == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------- cross correlation

def test_cross_correlation_counting_identity():
    forms = LinearFormSystem(Q, [[1, 0], [1, 1]], shifts=[0, 3])
    rep = cross_correlation_sum(forms, unit_box(Q), 11, lambda x: 1.0)
    assert rep.empirical == 1.0
    assert rep.ratio == 1.0


def test_cross_correlation_collapses_to_mean():
    forms = LinearFormSystem(Q, [[1]], shifts=[0])
    weight = lambda x: float(int(x.coords[0]) % 3)
    rep = cross_correlation_sum(forms, unit_box(Q), 9, weight)
    pts = [Q.element(v) for v in range(9)]
    direct = math.fsum(weight(p) for p in pts) / 9
    assert rep.empirical == pytest.approx(direct, rel=1e-15)


def test_cross_correlation_workers_bitwise():
    # one correctly rounded math.fsum: repeated runs give the same bytes
    forms = LinearFormSystem(Q, [[1, 0], [0, 1], [1, 1]])
    weight = lambda x: 1.0 / (1.0 + abs(float(x.coords[0])))
    r1 = cross_correlation_sum(forms, unit_box(Q), 13, weight)
    r2 = cross_correlation_sum(forms, unit_box(Q), 13, weight)
    assert r1.to_json() == r2.to_json()
    pts = [Q.element(v) for v in range(13)]
    direct = math.fsum(weight(x) * weight(y) * weight(x + y)
                       for x in pts for y in pts) / 13 ** 2
    assert r1.empirical == pytest.approx(direct, rel=1e-15)


# ---------------------------------------------------------------- tau / autocorr

def test_tau_factor_values():
    cfg = SieveConfig(Q, N=10**4, s=2, w=1, logR=math.log(50))
    c = float(cfg.s ** 2)
    assert tau_factor(cfg, Q.element(6)) \
        == pytest.approx((1 + c / 2) * (1 + c / 3))
    assert tau_weight(cfg, Q.element(6)) \
        == pytest.approx(4.0 * (1 + c / 2) * (1 + c / 3))
    assert tau_factor(cfg, Q.element(6)) == tau_factor(cfg, Q.element(-6))
    # prime support beyond R^2 is ignored
    big = sympy.nextprime(int(cfg.R ** 2) + 10)
    assert tau_factor(cfg, Q.element(big)) == 1.0


def test_tau_skips_w_primes():
    cfg = SieveConfig(Q, N=10**4, s=2, w=3, logR=math.log(50))
    c = float(cfg.s ** 2)
    assert tau_factor(cfg, Q.element(10)) == pytest.approx(1 + c / 5)


def test_auto_correlation_bound_holds():
    cfg = SieveConfig(Q, N=400, s=2, w=3, logR=math.log(12))
    y = [Q.element(0), Q.element(2)]
    rep = auto_correlation_check(y, unit_box(Q), cfg)
    assert rep.empirical >= 0
    assert rep.empirical <= rep.predicted


def test_auto_correlation_coincident_rejected():
    cfg = SieveConfig(Q, N=100, s=2)
    with pytest.raises(ValueError):
        auto_correlation_check([Q.element(1), Q.element(1)],
                               unit_box(Q), cfg)


def test_auto_correlation_computes_c_phi_once(monkeypatch):
    # each SieveConfig computes c_phi once and keeps it for its prefactor
    calls = []
    real = sieve.c_phi

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sieve, "c_phi", counting)
    y = [Q.element(0), Q.element(2)]
    reports = [auto_correlation_check(
        y, unit_box(Q), SieveConfig(Q, N=200, s=2, w=3, logR=math.log(12))
    ).to_json() for _ in range(2)]
    assert len(calls) == 2
    assert reports[0] == reports[1]


def test_auto_correlation_s1_mean():
    cfg = SieveConfig(Q, N=200, s=1, w=3, logR=math.log(10))
    rep = auto_correlation_check([Q.element(0)], unit_box(Q), cfg)
    from idealsieve.sieve import nu_weight

    pts = [Q.element(v) for v in range(200)]
    direct = math.fsum(nu_weight(cfg, p) for p in pts) / 200
    assert rep.empirical == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------- hypergraph

def test_hypergraph_trivial_measure_exact():
    for N in (101, 211):
        cfg = SieveConfig(Q, N=N, k=1.5)
        rep = hypergraph_conditions_report(cfg, [1.0] * N)
        assert rep["condition2"] == 1.0
        assert rep["condition3"] == 1.0
        assert rep["condition1_sup"] == 1.0
        assert rep["pattern_size"] == 3


def test_hypergraph_nontrivial_omegas():
    N = 31
    cfg = SieveConfig(Q, N=N, k=1.5)
    # Omega with mixed omegas exercises both delta copies
    J = pattern_points(Q, 1.5)
    Omegas = {0: [(1, 1), (0, 1)], 1: [(1, 1)], 2: [(1, 1)]}
    rep = hypergraph_conditions_report(cfg, [1.0] * N, Omegas=Omegas)
    assert rep["condition2"] == 1.0
    assert rep["condition3"] == 1.0


def test_hypergraph_scaled_measure():
    # nu~ = constant c: condition 2 has 3 factors (one per j), value c^3
    N = 31
    cfg = SieveConfig(Q, N=N, k=1.5)
    rep = hypergraph_conditions_report(cfg, [2.0] * N)
    assert rep["condition2"] == pytest.approx(8.0, rel=1e-12)


# The Python loops the three conditions ran on before the residue-table
# path, kept as the oracle: one assignment at a time, with each product
# (J_i - J_j) * residue taken in FieldElement arithmetic (memoized).

def _oracle_hypergraph(cfg, T, Omegas, M=2, sup_samples=8):
    K, N = cfg.K, cfg.N
    J = pattern_points(K, cfg.k)
    edges = {pos: [q for q in range(len(J)) if q != pos]
             for pos in range(len(J))}
    if Omegas is None:
        Omegas = {pos: [(1,) * len(edges[pos])] for pos in edges}
    res = [K.element(list(c))
           for c in itertools.product(range(N), repeat=K.degree)]
    products = {}

    def times(i, j, r):
        if (i, j, r) not in products:
            products[i, j, r] = [int(c) for c in ((J[i] - J[j]) * res[r]).coords]
        return products[i, j, r]

    def mean(terms, free, fixed):
        vals = []
        for assign in itertools.product(range(len(res)), repeat=len(free)):
            x = dict(fixed)
            x.update(zip(free, assign))
            prod = 1.0
            for j, deps in terms:
                acc = [0] * K.degree
                for v in deps:
                    acc = [a + b for a, b in zip(acc, times(v[0], j, x[v]))]
                prod *= T[tuple(a % N for a in acc)]
            vals.append(prod)
        return math.fsum(vals) / N ** (len(free) * K.degree)

    terms = [(j, [(i, om[a]) for a, i in enumerate(edges[j])])
             for j, omegas in Omegas.items() for om in omegas]
    used = sorted({v for _, deps in terms for v in deps})
    cond2 = mean(terms, used, {})
    j = next(iter(Omegas))
    i = edges[j][0]
    terms3 = [(j, [(ip, om[a]) for a, ip in enumerate(edges[j])])
              for om in Omegas[j]]
    outer = sorted({v for _, deps in terms3 for v in deps if v[0] != i})
    inner = sorted({v for _, deps in terms3 for v in deps if v[0] == i})
    cond3 = math.fsum(mean(terms3, inner, dict(zip(outer, xo))) ** M
                      for xo in itertools.product(range(len(res)),
                                                  repeat=len(outer)))
    cond3 /= N ** (len(outer) * K.degree)
    used1 = [v for v in used if v[1] == 1]
    used0 = [v for v in used if v[1] == 0]
    rng = random.Random(0)
    samples = ([tuple(rng.choice(range(len(res))) for _ in used0)
                for _ in range(sup_samples)] if used0 else [()])
    cond1 = max([0.0] + [mean(terms, used1, dict(zip(used0, x0)))
                         for x0 in samples])
    return {"condition1_sup": cond1, "condition2": cond2,
            "condition3": cond3}


# (field, k, smallest N, largest N); over Q(sqrt-2) the radius 2.1 puts
# sqrt-2 in the pattern, and over Q(i) the modulus 3 tells i from -i
_ORACLE_CASES = [("Q", 1.5, 2, 11), ("Q", 2.5, 2, 11),
                 ("Q(sqrt-2)", 2.1, 3, 3), ("Q(i)", 1.5, 2, 3)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_hypergraph_matches_python_oracle(data):
    name, k, n_lo, n_hi = data.draw(st.sampled_from(_ORACLE_CASES))
    K = make_field(name)
    size = len(pattern_points(K, k))
    # each pattern point gets one delta, and a key may add one random
    # vector on top, so terms share variables and the count stays small
    delta = data.draw(st.tuples(*[st.integers(0, 1)] * size))
    keys = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                              max_size=size, unique=True))
    vector = st.tuples(*[st.integers(0, 1)] * (size - 1))
    Omegas = data.draw(st.one_of(st.none(), st.fixed_dictionaries(
        {j: st.lists(vector, max_size=1).map(
            lambda extra, j=j: [tuple(delta[q] for q in range(size)
                                      if q != j)] + extra)
         for j in keys})))
    if Omegas is None:
        n_vars = size
    else:
        n_vars = len({(i, om[a]) for j, oms in Omegas.items() for om in oms
                      for a, i in enumerate(q for q in range(size)
                                            if q != j)})
    # the oracle walks N^(n * variables) assignments: keep it below 3^10
    cap = min(n_hi, int(round(3 ** (10 / (K.degree * n_vars)), 9)))
    assume(cap >= n_lo)
    N = data.draw(st.integers(n_lo, cap))
    T = np.array(data.draw(st.lists(st.floats(0.5, 2.0),
                                    min_size=N ** K.degree,
                                    max_size=N ** K.degree)))
    T = T.reshape((N,) * K.degree)
    cfg = SieveConfig(K, N=N, k=k)
    got = hypergraph_conditions_report(cfg, T, Omegas=Omegas)
    want = _oracle_hypergraph(cfg, T, Omegas)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12), key


def test_hypergraph_table_shape_checked():
    cfg = SieveConfig(QI, N=3, k=1.5)
    with pytest.raises(ValueError):
        hypergraph_conditions_report(cfg, [1.0] * 3)
    rep = hypergraph_conditions_report(cfg, np.full((3, 3), 2.0))
    assert rep["condition2"] == pytest.approx(2.0 ** 5, rel=1e-12)


# ---------------------------------------------------------------- density

def test_relative_density():
    amb = [Q.element(v) for v in range(10)]
    sub = amb[:3]
    assert relative_density(sub, amb, lambda x: 1.0) == pytest.approx(0.3)
    assert relative_density(amb, amb, lambda x: 2.0) == 1.0
    assert relative_density([], amb, lambda x: 1.0) == 0.0
    with pytest.raises(ZeroDivisionError):
        relative_density(sub, amb, lambda x: 0.0)
