import math
import operator
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from idealsieve import arith, clear_caches, correlation, ideals, lattice, sieve
from idealsieve.ideals import (FractionalIdeal, PrimeIdeal, TruncatedClass,
                               class_equivalent, count_ideals,
                               enumerate_prime_ideals, euler_phi,
                               factor_ideal, factor_rational_prime,
                               has_finite_unit_group, is_prime_element,
                               mobius, mobius_sieve, prime_divisors,
                               prime_norm_flags,
                               primes_dividing,
                               principal_generator, residue_degrees,
                               zeta_residue)
from idealsieve.numberfield import FIELDS, SUPPORTED_POLYS, make_field
from idealsieve.sieve import DEFAULT_BUMP, SieveConfig, lambda_R
from oracles import (add_oracle, class_equivalent_oracle,
                     count_ideals_oracle, factor_ideal_oracle,
                     gauss_jordan_coords, inverse_oracle, lambda_oracle,
                     mul_oracle, prime_norm_flags_oracle,
                     principal_generator_oracle, residue_degrees_oracle,
                     residue_rows_oracle)

Q = make_field("Q")
QI = make_field("Q(i)")
_X = sympy.Symbol("x")


# ---------------------------------------------------------------- splitting

def test_qi_splitting_oracle():
    # frozen: ramified at 2, inert at 3, split at 5
    (P2,) = factor_rational_prime(QI, 2)
    assert (P2.e, P2.f, P2.gpoly) == (2, 1, (1, 1))
    (P3,) = factor_rational_prime(QI, 3)
    assert (P3.e, P3.f) == (1, 2)
    P5a, P5b = factor_rational_prime(QI, 5)
    assert {P5a.gpoly, P5b.gpoly} == {(2, 1), (3, 1)}
    assert P5a.norm() == P5b.norm() == 5


def test_splitting_matches_legendre():
    K = make_field("Q(sqrt-3)")
    for p in sympy.primerange(5, 200):
        fs = residue_degrees(K, p)
        if pow(-3 % p, (p - 1) // 2, p) == 1:
            assert fs == [1, 1]
        else:
            assert fs == [2]


def test_quartic_splitting_by_order_mod_5():
    K = make_field("Q(zeta5)")
    for p in sympy.primerange(2, 300):
        primes = factor_rational_prime(K, p)
        if p == 5:
            assert len(primes) == 1 and primes[0].e == 4
            continue
        f = 1
        while pow(p, f, 5) != 1:
            f += 1
        assert all(P.f == f and P.e == 1 for P in primes)
        assert len(primes) == 4 // f


def test_zeta5_residue_degrees_read_off_p_mod_5():
    K = make_field("Q(zeta5)")
    for p in sympy.primerange(2, 10**4):
        assert residue_degrees(K, p) \
            == [P.f for P in factor_rational_prime(K, p)], p
    # the closed form neither splits p nor touches the splitting cache
    before = ideals.primes_above.cache_info()
    count_ideals(K, 10**5)
    assert ideals.primes_above.cache_info() == before


def test_galois_premise_primes_share_e_and_f():
    # is_prime_element reads primality off the norm, which is valid only
    # when the primes above p share (e, f), i.e. on Galois fields
    for poly in SUPPORTED_POLYS:
        K = make_field(poly)
        for p in sympy.primerange(2, 1000):
            primes = factor_rational_prime(K, p)
            assert len({(P.e, P.f) for P in primes}) == 1, (K.name, p)
            assert residue_degrees(K, p) == [P.f for P in primes]


def _factor_prime_generic(K, p):
    """Dedekind splitting by sympy's factorisation over GF(p)."""
    expr = sum(c * _X**i for i, c in enumerate(K.poly))
    _, facs = sympy.Poly(expr, _X, modulus=p).factor_list()
    primes = []
    for g, e in facs:
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        primes.append(PrimeIdeal(K, p, tuple(coeffs), int(e), g.degree()))
    return primes


def _splitting_oracle(K, p):
    return tuple(sorted(_factor_prime_generic(K, p),
                        key=lambda P: P.sort_key()))


def test_splitting_matches_sympy_every_field():
    # the abelian premise: factor_rational_prime reads the splitting off p
    # modulo the conductor, a closed form per field; this walks every vetted
    # polynomial, so a field that no closed form covers fails here
    for poly in SUPPORTED_POLYS:
        K = make_field(poly)
        for p in sympy.primerange(2, 2000):
            assert factor_rational_prime(K, p) == _splitting_oracle(K, p), \
                (K.name, p)


_PRIMES_1E5 = list(sympy.primerange(2, 10**5))
_FIELDS = [make_field(poly) for poly in SUPPORTED_POLYS]


def test_splitting_table_matches_the_rule_below_1e5():
    # the class table against the Kronecker / p mod 5 rule it replaced
    for K in _FIELDS:
        for p in _PRIMES_1E5:
            assert residue_degrees(K, p) == residue_degrees_oracle(K, p), \
                (K.name, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_prime_norm_flags_slices_match_per_prime_loop(data):
    # below the conductor, and next to a prime power p^f that is a norm
    K = data.draw(st.sampled_from(_FIELDS), label="field")
    if data.draw(st.booleans(), label="below conductor"):
        X = data.draw(st.integers(0, K.conductor - 1), label="X")
    else:
        q = data.draw(st.sampled_from([
            q for q in (p ** residue_degrees(K, p)[0] for p in _PRIMES_1E5)
            if q <= 10**5]), label="p^f")
        X = q + data.draw(st.sampled_from([-1, 0, 1]), label="offset")
    assert prime_norm_flags(K, X) == prime_norm_flags_oracle(K, X)


@pytest.mark.parametrize("K", _FIELDS, ids=lambda K: K.name)
def test_prime_norm_flags_slices_at_a_million(K):
    assert prime_norm_flags(K, 10**6) == prime_norm_flags_oracle(K, 10**6)


def test_splitting_reaches_no_jacobi(monkeypatch):
    # the table replaced the Kronecker symbol on every splitting path
    def forbidden(*args):
        raise AssertionError("jacobi called")

    for where in (arith, ideals):
        if hasattr(where, "jacobi"):
            monkeypatch.setattr(where, "jacobi", forbidden)
    for K in _FIELDS:
        for p in _PRIMES_1E5[:500]:
            residue_degrees(K, p)
        prime_norm_flags(K, 5000)
        mobius_sieve(K, 5000)


def _prime_in_class(n, r):
    """The least prime p >= n with p = r (mod 5)."""
    p = sympy.nextprime(n - 1)
    while p % 5 != r:
        p = sympy.nextprime(p)
    return p


# is_prime_element splits primes of 133 bits; every class mod 5 is drawn
@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 2**70), r=st.sampled_from([1, 2, 3, 4]))
@example(n=2**70 - 2**20, r=1)
@example(n=2**70 - 2**20, r=2)
@example(n=2**70 - 2**20, r=3)
@example(n=2**70 - 2**20, r=4)
def test_quartic_splitting_matches_sympy_large(n, r):
    K = make_field("Q(zeta5)")
    p = _prime_in_class(n, r)
    assert factor_rational_prime(K, p) == _splitting_oracle(K, p)


def test_caches_bounded(monkeypatch):
    # the bounds are pinned in test_hygiene; the FIFO keeps the newest keys
    monkeypatch.setattr(ideals, "FACTOR_CACHE_SIZE", 3)
    monkeypatch.setattr(ideals, "_FACTOR_CACHE", {})
    keys = []
    for m in range(2, 8):
        a = FractionalIdeal.principal(QI, QI.element(m))
        factor_ideal(a)
        keys.append(a.key())
    assert list(ideals._FACTOR_CACHE) == keys[-3:]  # oldest dropped first


def test_sum_ef_small():
    for name in ("Q", "Q(i)", "Q(sqrt5)", "Q(zeta5)"):
        K = make_field(name)
        for p in sympy.primerange(2, 100):
            assert sum(P.e * P.f for P in factor_rational_prime(K, p)) \
                == K.degree


# ---------------------------------------------------------------- ideals

def test_principal_norm_and_inverse():
    a = FractionalIdeal.principal(QI, QI.element([1, 1]))
    assert a.norm() == 2
    inv = a.inverse()
    # frozen: (1+i)^{-1} lattice {(1+i)/2, (1-i)/2} -> HNF ((1,1),(0,2))/2
    assert (inv.mat, inv.den) == (((1, 1), (0, 2)), 2)
    assert a * inv == FractionalIdeal.unit_ideal(QI)


def test_hnf_canonical_equality():
    x = QI.element([3, 1])
    u = QI.element([0, 1])  # unit i
    assert FractionalIdeal.principal(QI, x) == \
        FractionalIdeal.principal(QI, x * u)


def test_contains_and_module_structure():
    a = FractionalIdeal.principal(QI, QI.element([1, 2]))
    assert a.contains(QI.element([1, 2]))
    assert a.contains(QI.element([-2, 1]))  # i * (1 + 2i)
    assert not a.contains(QI.one)
    assert a.validate_module_structure()


def test_factor_reconstructs():
    x = QI.element([4, 3])  # 4 + 3i = i (2 - i)^2
    fac = factor_ideal(FractionalIdeal.principal(QI, x))
    assert fac.product(QI) == FractionalIdeal.principal(QI, x)
    ((P, e),) = fac.factors
    assert (P.norm(), e) == (5, 2)
    y = QI.element([2, 1]) * QI.element([2, -1])  # (2+i)(2-i) = 5
    fac2 = factor_ideal(FractionalIdeal.principal(QI, y))
    assert sorted(P.norm() ** e for P, e in fac2.factors) == [5, 5]


# principal ideals times P^e over every vetted field, P above 2, 3, 5, 11
# or 19: ramified above 2 in Q(i) and above 5 in Q(zeta5), and 11 = 1 and
# 19 = 4 mod 5 split in Q(zeta5) into primes of degree 1 and 2
_FACTOR_PRIMES = [(K, P) for K in map(make_field, SUPPORTED_POLYS)
                  for p in (2, 3, 5, 11, 19)
                  for P in factor_rational_prime(K, p)]


def _forbidden_inverse(self):
    raise AssertionError("inverse called")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(KP=st.sampled_from(_FACTOR_PRIMES),
       coeffs=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       e=st.integers(0, 3))
@example(KP=next(kp for kp in _FACTOR_PRIMES
                 if kp[0].name == "Q(zeta5)" and kp[1].p == 19),
         coeffs=[1, 0, 0, 0], e=3)
def test_factor_ideal_matches_valuation_oracle(KP, coeffs, e):
    # exponents by containment in P^j, with nothing inverted and no
    # cached factorization returned
    K, P = KP
    x = K.element(coeffs[:K.degree])
    assume(x)
    a = FractionalIdeal.principal(K, x)
    for _ in range(e):
        a = a * P.ideal()
    want = factor_ideal_oracle(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_FACTOR_CACHE", {})
        mp.setattr(FractionalIdeal, "inverse", _forbidden_inverse)
        got = factor_ideal(FractionalIdeal(K, a.mat, a.den))
    assert got.factors == want
    assert dict(want).get(P, 0) >= e


def test_mobius_values():
    two = FractionalIdeal.principal(QI, QI.element(2))
    assert mobius(two) == 0  # (2) = p^2 is not squarefree
    five = FractionalIdeal.principal(QI, QI.element(5))
    assert mobius(five) == 1  # two distinct primes
    pr = FractionalIdeal.principal(QI, QI.element([1, 1]))
    assert mobius(pr) == -1


def test_mobius_sieve_matches_sympy():
    assert mobius_sieve(Q, 5000)[1:] == [sympy.mobius(k)
                                         for k in range(1, 5001)]


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.integers(0, 150))
def test_mobius_sieve_matches_principal_ideal_oracle(name, n):
    # mu((m)) off the integer sieve against the ideal (m) built and read
    K = make_field(name)
    mu = mobius_sieve(K, n)
    assert len(mu) == n + 1
    for m in range(1, n + 1):
        assert mu[m] == mobius(FractionalIdeal.principal(K, K.element(m)))


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
@settings(max_examples=12, deadline=None, derandomize=True)
@given(X=st.sampled_from([0, 1, 2, 3, 4, 16, 81, 625])
       | st.integers(0, 3000))
def test_prime_norm_flags_match_is_prime_norm(name, X):
    # the one sieve against the norm-at-a-time test, 0 and 1 included
    K = make_field(name)
    flags = ideals.prime_norm_flags(K, X)
    assert len(flags) == X + 1
    assert [flags[N] for N in range(X + 1)] \
        == [ideals.is_prime_norm(K, N) for N in range(X + 1)]


def _oracle_mu(factors):
    return 0 if any(v > 1 for _, v in factors) else (-1) ** len(factors)


@st.composite
def _prime_power_product(draw):
    """A field and up to three distinct primes of _FACTOR_PRIMES above
    it, each with an exponent 0 to 3."""
    K = draw(st.sampled_from([make_field(f) for f in SUPPORTED_POLYS]))
    pool = [P for L, P in _FACTOR_PRIMES if L == K]
    return K, draw(st.lists(st.tuples(st.sampled_from(pool),
                                      st.integers(0, 3)),
                            max_size=3, unique_by=lambda t: t[0]))


_Z5 = make_field("Q(zeta5)")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_prime_power_product())
@example(case=(_Z5, [(factor_rational_prime(_Z5, 19)[0], 2),
                     (factor_rational_prime(_Z5, 2)[0], 1),
                     (factor_rational_prime(_Z5, 5)[0], 3)]))
def test_prime_divisors_and_mobius_match_valuation_oracle(case):
    # the distinct primes in factor_ideal's order, and mu read off their
    # norms, against the exponents of the valuation loop
    K, powers = case
    assume(math.prod(P.norm() ** e for P, e in powers)
           <= ideals.FACTOR_BUDGET)
    a = FractionalIdeal.unit_ideal(K)
    for P, e in powers:
        a = a * P.ideal() ** e
    want = factor_ideal_oracle(a)
    assert prime_divisors(a) == tuple(P for P, _ in want)
    assert mobius(a) == _oracle_mu(want)


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden call")


def test_mobius_lambda_and_tau_find_no_exponent(monkeypatch):
    # mobius, lambda_R and tau_factor read only the distinct primes: none
    # reaches factor_ideal, and mobius multiplies no ideals
    cases = []
    for K in map(make_field, SUPPORTED_POLYS):
        cfg = SieveConfig(K, N=10**4, s=2, w=1, logR=math.log(50))
        for m in (1, 6, 12, 30, 98, 361):
            a = FractionalIdeal.principal(K, K.element(m))
            want = factor_ideal_oracle(a)
            # tau_factor's product, c_tau = s^2 = 4, over primes off W
            tau = math.prod(1.0 + 4.0 / P.norm() for P, _ in want
                            if cfg.W % P.p and P.norm() <= cfg.R ** 2)
            cases.append((cfg, m, a, _oracle_mu(want),
                          lambda_oracle(a, 30.0, DEFAULT_BUMP), tau))
    for module in (ideals, sieve, correlation):
        monkeypatch.setattr(module, "factor_ideal", _forbidden,
                            raising=False)
    for cfg, m, a, _, lam, tau in cases:
        assert lambda_R(a, 30.0) == lam
        assert correlation.tau_factor(cfg, cfg.K.element(m)) == tau
    monkeypatch.setattr(FractionalIdeal, "__mul__", _forbidden)
    for _, _, a, mu, _, _ in cases:
        assert mobius(a) == mu


def test_euler_phi_brute_force():
    # |(O_K/(m))^x| for Q(i) by counting residues coprime to m
    for m in (2, 3, 5, 6):
        count = 0
        mm = FractionalIdeal.principal(QI, QI.element(m))
        for a in range(m):
            for b in range(m):
                x = QI.element([a, b])
                g = FractionalIdeal.principal(QI, x) + mm if (a or b) else mm
                if g == FractionalIdeal.unit_ideal(QI):
                    count += 1
        assert euler_phi(QI, m) == count
    assert euler_phi(Q, 6) == 2
    assert euler_phi(Q, 1) == 1


def test_enumerate_prime_ideals_sorted():
    primes = enumerate_prime_ideals(QI, 25)
    norms = [P.norm() for P in primes]
    assert norms == sorted(norms)
    assert norms == [2, 5, 5, 9, 13, 13, 17, 17]


# ---------------------------------------------------------------- counting

def _gaussian_count_oracle(X):
    # ideals of Z[i] with norm <= X: sum of (d_1(n) - d_3(n)) over n <= X
    total = 0
    for n in range(1, X + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                if d % 4 == 1:
                    total += 1
                elif d % 4 == 3:
                    total -= 1
    return total


def test_count_ideals_oracle_qi():
    for X in (10, 100, 400):
        assert count_ideals(QI, X) == _gaussian_count_oracle(X)


def test_count_ideals_rational():
    assert count_ideals(Q, 1000) == 1000


@pytest.mark.parametrize("poly", SUPPORTED_POLYS)
def test_count_ideals_matches_convolution_oracle(poly):
    K = make_field(poly)
    for x in (1, 2, 10, 1000, 60000, 99.5):
        assert count_ideals(K, x) == count_ideals_oracle(K, x), (K.name, x)


def test_count_ideals_loads_no_numpy():
    # a fresh interpreter, because this test process has numpy loaded
    code = ("import sys\n"
            "from idealsieve.ideals import count_ideals\n"
            "from idealsieve.numberfield import make_field\n"
            "print(count_ideals(make_field('Q(i)'), 1000))\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(count_ideals_oracle(QI, 1000)),
                                   "False"]


def test_zeta_residue_against_counts():
    # every field's residue must match the ideal-count slope
    for name in FIELDS:
        K = make_field(name)
        X = 60000
        slope = count_ideals(K, X) / X
        assert slope == pytest.approx(zeta_residue(K), rel=0.02), name


# ---------------------------------------------------------------- classes

def test_principal_generator():
    a = FractionalIdeal.principal(QI, QI.element([1, 1]))
    g = principal_generator(a)
    assert FractionalIdeal.principal(QI, g) == a


def test_principal_generator_of_skew_ideal():
    # P^12 above 5 in Z[i] has the HNF ((1, x), (0, 5^12)), far too skew
    # for a ball search in HNF coordinates (a 9.7e8-candidate box), and
    # dividing by a cube above 13 makes it fractional; reduction needs no box
    P5 = factor_rational_prime(QI, 5)[0].ideal()
    c = P5 ** 12 * factor_rational_prime(QI, 13)[0].ideal() ** -3
    g = principal_generator(c)
    assert FractionalIdeal.principal(QI, g) == c
    assert g.norm() == c.norm()


def test_non_principal_prime_has_no_generator():
    K = make_field("Q(sqrt-5)")
    (P2,) = factor_rational_prime(K, 2)
    assert principal_generator(P2.ideal()) is None


def test_class_equivalent_qi():
    O = FractionalIdeal.unit_ideal(QI)
    b = FractionalIdeal.principal(QI, QI.element(2))
    m = FractionalIdeal.principal(QI, QI.one)
    ok, xi = class_equivalent(O, b, m)
    assert ok
    assert FractionalIdeal.principal(QI, xi) == b


def test_class_equivalent_respects_congruence():
    O = FractionalIdeal.unit_ideal(Q)
    b = FractionalIdeal.principal(Q, Q.element(5))
    m3 = FractionalIdeal.principal(Q, Q.element(3))
    ok, xi = class_equivalent(O, b, m3)
    # 5 = 2 mod 3, -5 = 1 mod 3: witness must be -5
    assert ok and xi.coords == (Fraction(-5),)
    m4 = FractionalIdeal.principal(Q, Q.element(4))
    ok4, _ = class_equivalent(O, b, m4)
    assert ok4  # 5 = 1 mod 4


def test_class_inequivalent_sqrt5m():
    K = make_field("Q(sqrt-5)")
    O = FractionalIdeal.unit_ideal(K)
    (P2,) = factor_rational_prime(K, 2)
    ok, _ = class_equivalent(O, P2.ideal(),
                             FractionalIdeal.principal(K, K.one))
    assert not ok  # h = 2: the prime above 2 is not principal


def test_finite_unit_group_premise():
    # principal generators are the minimal vectors of a form of degree
    # <= 2, which holds only where every unit is a root of unity
    finite = {K.name for K in map(make_field, SUPPORTED_POLYS)
              if has_finite_unit_group(K)}
    assert finite == {"Q", "Q(i)", "Q(sqrt-2)", "Q(sqrt-3)", "Q(sqrt-5)"}
    assert all(make_field(name).degree <= 2 for name in finite)


# the fields with a finite unit group, and the primes of norm <= 30 in each
_GENERATOR_PRIMES = {
    K: [P.ideal() for P in enumerate_prime_ideals(K, 30)]
    for K in map(make_field, ("Q", "Q(i)", "Q(sqrt-2)", "Q(sqrt-3)",
                              "Q(sqrt-5)"))}


@st.composite
def _fractional_ideal(draw, K):
    """A product of up to two small primes with exponents in [-1, 1]:
    integral or fractional, and in Q(sqrt-5) principal or not.  Larger
    ideals can be too skew for the oracle's ball budget."""
    c = FractionalIdeal.unit_ideal(K)
    for _ in range(draw(st.integers(0, 2))):
        c = c * draw(st.sampled_from(_GENERATOR_PRIMES[K])) \
            ** draw(st.integers(-1, 1))
    return c


@settings(max_examples=500, deadline=None)
@given(data=st.data(), K=st.sampled_from(list(_GENERATOR_PRIMES)),
       k=st.integers(1, 5))
def test_generators_match_ball_oracle(data, K, k):
    a, b = data.draw(_fractional_ideal(K)), data.draw(_fractional_ideal(K))
    m = FractionalIdeal.principal(K, K.element(k)) \
        * data.draw(_fractional_ideal(K))
    c = b * a.inverse()
    assert principal_generator(c) == principal_generator_oracle(c)
    assert class_equivalent(a, b, m) == class_equivalent_oracle(a, b, m)


# ---------------------------------------------------------------- primality

def test_is_prime_element_rational():
    O = FractionalIdeal.unit_ideal(Q)
    for m in range(2, 60):
        assert is_prime_element(O, Q.element(m)) == sympy.isprime(m)
        assert is_prime_element(O, Q.element(-m)) == sympy.isprime(m)


def test_is_prime_element_gaussian():
    O = FractionalIdeal.unit_ideal(QI)
    assert is_prime_element(O, QI.element([1, 1]))
    assert is_prime_element(O, QI.element([0, 3]))   # 3i inert
    assert not is_prime_element(O, QI.element([5, 0]))  # 5 splits
    assert not is_prime_element(O, QI.element([2, 0]))  # 2 ramifies
    assert not is_prime_element(O, QI.one)


def test_is_prime_element_nonprincipal_ambient():
    K = make_field("Q(sqrt-5)")
    (P2,) = factor_rational_prime(K, 2)
    b = P2.ideal()
    # 2 is in b and (2) b^{-1} = b, prime: 2 is a prime element of b
    assert is_prime_element(b, K.element(2))
    # 4 gives (4) b^{-1} = b^3, not prime
    assert not is_prime_element(b, K.element(4))


# 2^40 + 15, 2^41 + 27 (= 4 mod 5), 2^45 + 59 (= 3 mod 4) and 2^132 + 67
# (= 3 mod 5) are prime, and so is 2^132 + (2^65 + 43)^2, the norm of
# 2^66 + (2^65 + 43) i; in Q(zeta5), N(a - zeta5) = a^4 + a^3 + a^2 + a + 1
# is prime at a = Z5_SPLIT
Z5_SPLIT = 2**33 + 22


@pytest.mark.parametrize("name, coords, prime", [
    ("Q", [(2**40 + 15) * (2**41 + 27)], False),  # 82-bit semiprime
    ("Q", [2**132 + 67], True),  # 133-bit prime
    ("Q", [(2**45 + 59) ** 2], False),  # square of a 46-bit prime
    ("Q(i)", [(2**40 + 15) * (2**41 + 27), 0], False),
    ("Q(i)", [2**66, 2**65 + 43], True),  # norm a 133-bit prime
    ("Q(i)", [2**45 + 59, 0], True),  # inert: norm the square of a prime
    ("Q(i)", [(2**45 + 59) ** 2, 0], False),
    ("Q(zeta5)", [Z5_SPLIT, -1, 0, 0], True),  # norm a 133-bit prime
    ("Q(zeta5)", [Z5_SPLIT ** 4 + Z5_SPLIT ** 3 + Z5_SPLIT ** 2 + Z5_SPLIT
                  + 1, 0, 0, 0], False),  # that prime splits into four
    ("Q(zeta5)", [2**132 + 67, 0, 0, 0], True),  # inert
    ("Q(zeta5)", [2**41 + 27, 0, 0, 0], False),  # two primes of degree 2
    ("Q(zeta5)", [(2**40 + 15) * (2**41 + 27), 0, 0, 0], False),
])
def test_is_prime_element_large_norms_fast(name, coords, prime):
    # primality is read off the norm without factoring it, so an untrusted
    # certificate cannot make the verifier factor a large semiprime
    K = make_field(name)
    O = FractionalIdeal.unit_ideal(K)
    t = time.perf_counter()
    assert is_prime_element(O, K.element(coords)) == prime
    assert time.perf_counter() - t < 0.1


def _is_prime_element_oracle(K, b, xi):
    """True iff the integral ideal (xi) b^{-1} is prime."""
    if not b.contains(xi):
        raise ValueError("xi is not an element of the ambient ideal")
    if not xi:
        return False
    c = FractionalIdeal.principal(K, xi) * b.inverse()
    if not c.is_integral():
        raise ValueError("(xi) b^{-1} is not integral; malformed ambient ideal")
    N = int(c.norm())
    if N <= 1:
        return False
    # N must be a prime power p^f with c equal to a single Dedekind prime
    p = None
    for q in (sympy.primefactors(N) if N < 2**40 else sorted(sympy.factorint(N))):
        p = q
        break
    f = 0
    M = N
    while M % p == 0:
        M //= p
        f += 1
    if M != 1:
        return False
    for P in factor_rational_prime(K, p):
        if P.f == f and P.ideal() == c:
            return True
    return False


# (K, b) for O_K and every prime above 2, 3, 5, 7 of every vetted field,
# the non-principal prime above 2 in Q(sqrt-5) among them
_AMBIENTS = [(K, b) for K in map(make_field, SUPPORTED_POLYS)
             for b in [FractionalIdeal.unit_ideal(K)]
             + [P.ideal() for p in (2, 3, 5, 7)
                for P in factor_rational_prime(K, p)]]


@settings(max_examples=1000, deadline=None)
@given(amb=st.sampled_from(_AMBIENTS),
       coeffs=st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_is_prime_element_matches_ideal_oracle(amb, coeffs):
    K, b = amb
    xi = K.zero
    for c, e in zip(coeffs, b.basis_elements()):
        xi = xi + e * K.element(c)
    assert is_prime_element(b, xi) == _is_prime_element_oracle(K, b, xi)


# the inverses of the primes above 2 and 3 of every vetted field (den > 1)
_INVERSE_AMBIENTS = [(K, P.ideal().inverse())
                     for K in map(make_field, SUPPORTED_POLYS)
                     for p in (2, 3) for P in factor_rational_prime(K, p)]


@settings(max_examples=300, deadline=None)
@given(amb=st.sampled_from(_INVERSE_AMBIENTS),
       coeffs=st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_is_prime_element_matches_ideal_oracle_den_above_one(amb, coeffs):
    K, b = amb
    assert b.den > 1
    xi = K.zero
    for c, e in zip(coeffs, b.basis_elements()):
        xi = xi + e * K.element(c)
    v = b.numerators(xi)
    assert v == tuple(x * b.den for x in xi.coords)
    assert is_prime_element(b, xi) == _is_prime_element_oracle(K, b, xi)


@settings(max_examples=300, deadline=None)
@given(amb=st.sampled_from(_AMBIENTS + _INVERSE_AMBIENTS), data=st.data())
def test_residue_rows_membership_matches_ideal_product(amb, data):
    # y in P b iff every row vanishes on y's b-coordinates mod p; y is
    # drawn from P b or from b, and the ambients include the non-principal
    # prime above 2 of Q(sqrt-5) and inverses of primes (den > 1)
    K, b = amb
    P = data.draw(st.sampled_from([P for p in (2, 3, 5, 7)
                                   for P in factor_rational_prime(K, p)]))
    Pb = P.ideal() * b
    coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=K.degree,
                                max_size=K.degree))
    y = (Pb if data.draw(st.booleans()) else b).element_at(coeffs)
    c = b.coefficients(y)
    rows = ideals.residue_rows(P, b)
    assert len(rows) == P.f  # b / P b has p^f elements
    assert all(g[-1] == 0 for g in rows[1:])
    assert all(sum(map(operator.mul, g, c)) % P.p == 0 for g in rows) \
        == Pb.contains(y)


# a product ambient per field: the first primes above 5 and 7 over the
# first prime above 3 (den > 1)
_PRODUCT_AMBIENTS = [(K, factor_rational_prime(K, 5)[0].ideal()
                      * factor_rational_prime(K, 7)[0].ideal()
                      * factor_rational_prime(K, 3)[0].ideal().inverse())
                     for K in map(make_field, SUPPORTED_POLYS)]


@settings(max_examples=500, deadline=None)
@given(amb=st.sampled_from(_AMBIENTS + _INVERSE_AMBIENTS
                           + _PRODUCT_AMBIENTS), data=st.data())
def test_residue_rows_match_ideal_product_oracle(amb, data):
    # the rows read off P = (p, g(theta)) are those of the lattice P b, for
    # every p < 60: ramified, inert and split, p | N(b) among them
    K, b = amb
    P = data.draw(st.sampled_from([P for p in arith.primerange(2, 60)
                                   for P in factor_rational_prime(K, p)]))
    assert ideals.residue_rows(P, b) == residue_rows_oracle(P, b)


def test_primes_dividing_rejects_a_point_off_the_ambient():
    # 2 - i and 1 are not in the first prime above 5 of Q(i): (y) b^{-1}
    # is not integral, and the error says so
    b = factor_rational_prime(QI, 5)[0].ideal()
    for y in (QI.element((2, -1)), QI.one):
        assert not b.contains(y)
        with pytest.raises(ValueError, match="requires an integral ideal"):
            primes_dividing(b, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(amb=st.sampled_from(_AMBIENTS + _INVERSE_AMBIENTS),
       coeffs=st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_primes_dividing_matches_factor_ideal(amb, coeffs):
    # the primes read off the norm are factor_ideal's, in its order
    K, b = amb
    y = b.element_at(coeffs[:K.degree])
    assume(y)
    want = tuple(P for P, _ in factor_ideal(
        FractionalIdeal.principal(K, y) * b.inverse()).factors)
    assert primes_dividing(b, y) == want


def test_is_prime_element_membership_and_zero():
    K = make_field("Q(sqrt-5)")
    (P2,) = factor_rational_prime(K, 2)
    b = P2.ideal()  # (2, 1 + sqrt-5): 1 is not in it, 2 and 1 + sqrt-5 are
    with pytest.raises(ValueError, match="not an element"):
        is_prime_element(b, K.one)
    assert is_prime_element(b, K.zero) is False
    assert is_prime_element(b, K.element(2)) is True
    O = FractionalIdeal.unit_ideal(K)
    half = K.element([Fraction(1, 2), 0])
    assert O.numerators(half) is None
    with pytest.raises(ValueError, match="not an element"):
        is_prime_element(O, half)
    inv = b.inverse()  # den 2: 1/2 + sqrt-5/2 is in it, 1/2 is not
    assert inv.numerators(half) == (1, 0)
    with pytest.raises(ValueError, match="not an element"):
        is_prime_element(inv, half)
    assert is_prime_element(inv, K.element([Fraction(1, 2)] * 2)) in (
        True, False)


# ---------------------------------------------------------------- truncated class

def test_truncated_class_build_and_verify():
    O = FractionalIdeal.unit_ideal(Q)
    m = FractionalIdeal.principal(Q, Q.element(6))
    tc = TruncatedClass.build(O, m, Q.element(11), 13.0)
    values = sorted(int(x.coords[0]) for x in tc.members)
    assert values == [-1, 5, 11, 17, 23]
    assert tc.verify()


# ---------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       b=st.lists(st.integers(-9, 9), min_size=2, max_size=2))
def test_norm_of_product_ideal(a, b):
    if all(c == 0 for c in a) or all(c == 0 for c in b):
        return
    x = FractionalIdeal.principal(QI, QI.element(a))
    y = FractionalIdeal.principal(QI, QI.element(b))
    assert (x * y).norm() == x.norm() * y.norm()


@settings(max_examples=30, deadline=None)
@given(a=st.lists(st.integers(-9, 9), min_size=2, max_size=2))
def test_inverse_roundtrip(a):
    if all(c == 0 for c in a):
        return
    x = FractionalIdeal.principal(QI, QI.element(a))
    assert x.inverse().inverse() == x
    assert x * x.inverse() == FractionalIdeal.unit_ideal(QI)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(list(sympy.primerange(2, 500))))
def test_sum_ef_property(p):
    K = make_field("Q(zeta5)")
    assert sum(P.e * P.f for P in factor_rational_prime(K, p)) == 4


# ---------------------------------------------------------------- integer routes against the Fraction oracles

# per field: O_K, every prime above 2, 3, 5 and 7 and the inverses of
# those primes (den > 1)
_ORACLE_IDEALS = {K: [FractionalIdeal.unit_ideal(K)] + primes
                  + [P.inverse() for P in primes]
                  for K in map(make_field, SUPPORTED_POLYS)
                  for primes in [[P.ideal() for p in (2, 3, 5, 7)
                                  for P in factor_rational_prime(K, p)]]}


def _fresh(ideal):
    # a new object, so that no cached inverse is returned
    return FractionalIdeal(ideal.K, ideal.mat, ideal.den)


def _draw_element(data, K, label):
    return K.element([Fraction(data.draw(st.integers(-30, 30), label=label),
                               data.draw(st.sampled_from([1, 2, 3, 6]),
                                         label=label))
                      for _ in range(K.degree)])


def _draw_ideal(data, K, label):
    """One of _ORACLE_IDEALS, or the principal ideal of a random nonzero
    element with denominator up to 6."""
    if data.draw(st.booleans(), label=label):
        return data.draw(st.sampled_from(_ORACLE_IDEALS[K]), label=label)
    x = _draw_element(data, K, label)
    assume(x)
    return FractionalIdeal.principal(K, x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coords_match_gauss_jordan_oracle(data):
    K = data.draw(st.sampled_from(list(_ORACLE_IDEALS)), label="field")
    I = data.draw(st.sampled_from(_ORACLE_IDEALS[K]), label="ideal")
    x = _draw_element(data, K, "x")
    c = I.coords(x)
    assert c == gauss_jordan_coords(I, x)
    assert I.contains(x) == all(ci.denominator == 1 for ci in c)
    # den x, integral or None, on ideals with den > 1 too
    scaled = [ci * I.den for ci in x.coords]
    integral = all(s.denominator == 1 for s in scaled)
    assert I.numerators(x) == (tuple(map(int, scaled)) if integral else None)
    coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=K.degree,
                                max_size=K.degree), label="coeffs")
    y = I.element_at(coeffs)
    assert y == sum((b * K.element(a) for a, b in
                     zip(coeffs, I.basis_elements())), K.zero)
    assert gauss_jordan_coords(I, y) == coeffs and I.contains(y)
    assert I.numerators(y) == tuple(ci * I.den for ci in y.coords)
    assert all(type(v) is Fraction for v in y.coords)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ideal_arithmetic_matches_fraction_oracle(data):
    K = data.draw(st.sampled_from(list(_ORACLE_IDEALS)), label="field")
    I = _fresh(_draw_ideal(data, K, "I"))
    J = _fresh(_draw_ideal(data, K, "J"))
    assert I * J == mul_oracle(I, J)
    assert I + J == add_oracle(I, J)
    inv = I.inverse()
    assert inv == inverse_oracle(I)
    assert I * inv == FractionalIdeal.unit_ideal(K)


def test_prime_walks_do_not_reprove_primes(monkeypatch):
    # enumerate_prime_ideals takes p from primerange, prime_divisors and
    # primes_dividing from factorint, and the region sieve walks
    # primerange: none runs isprime, which factor_rational_prime keeps
    want = {K: enumerate_prime_ideals(K, 200) for K in map(
        make_field, SUPPORTED_POLYS.values())}
    clear_caches()

    def forbidden(n):
        raise AssertionError("isprime called")

    monkeypatch.setattr(ideals, "isprime", forbidden)
    for K, primes in want.items():
        assert enumerate_prime_ideals(K, 200) == primes
        x = K.element([60] + [1] * (K.degree - 1))
        O = FractionalIdeal.unit_ideal(K)
        assert primes_dividing(O, x) \
            == prime_divisors(FractionalIdeal.principal(K, x))
    cfg = SieveConfig(Q, N=50, s=1, w=1, logR=math.log(30.0))
    correlation.auto_correlation_check([Q.zero], lattice.Parallelotope(
        Q, Q.zero, [Q.one]), cfg)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="4 is not prime"):
        factor_rational_prime(Q, 4)
