import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from idealsieve import constellation, ideals, lattice, sieve
from idealsieve.cli import _square_region
from idealsieve.constellation import (ConstellationSpec, alpha_scan,
                                      search_constellation,
                                      verify_certificate)
from idealsieve.correlation import auto_correlation_check
from idealsieve.ideals import (FractionalIdeal, enumerate_prime_ideals,
                               factor_rational_prime, residue_rows)
from idealsieve.numberfield import SUPPORTED_POLYS, make_field
from idealsieve.sieve import (DEFAULT_BUMP, BumpFunction, SieveConfig,
                              _lambda_cached, c_phi, lambda_R,
                              lift_nu, nu_weight)
from oracles import (alpha_scan_oracle, auto_correlation_oracle,
                     lambda_oracle, nu_weight_oracle)
from test_acceptance import _c_phi_fourier
from test_constellation import _search_ambients

Q = make_field("Q")
QI = make_field("Q(i)")


def test_bump_shape():
    phi = DEFAULT_BUMP
    assert phi(0.0) == 1.0
    assert phi(1.0) == 0.0
    assert phi(-1.0) == 0.0
    assert phi(2.0) == 0.0
    assert phi(0.5) == phi(-0.5)
    assert 0 < phi(0.9) < phi(0.5) < 1


def test_bump_derivative_matches_difference_quotient():
    phi = DEFAULT_BUMP
    for t in (-0.8, -0.3, 0.0, 0.4, 0.7):
        h = 1e-6
        fd = (phi(t + h) - phi(t - h)) / (2 * h)
        assert phi.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def bump_hat(phi: BumpFunction, y: float) -> complex:
    """int_{-1}^{1} e^t phi(t) e^{iyt} dt, by scipy's adaptive quadrature.

    Integrating the even/odd split in |y| keeps the conjugate symmetry
    phihat(-y) = conj(phihat(y)) exact in floating point.
    """
    a, b = phi.support
    ya = abs(y)
    re = quad(lambda t: math.exp(t) * phi(t) * math.cos(ya * t), a, b,
              limit=200)[0]
    im = quad(lambda t: math.exp(t) * phi(t) * math.sin(ya * t), a, b,
              limit=200)[0]
    if y < 0:
        im = -im
    return complex(re, im)


def test_bump_hat_conjugate_symmetry():
    for y in (0.5, 1.7, 3.7, 10.0):
        a = bump_hat(DEFAULT_BUMP, y)
        b = bump_hat(DEFAULT_BUMP, -y)
        assert a == b.conjugate()  # exact by construction


def test_bump_hat_triangle_bound():
    # |phihat(y)| <= int e^t phi(t) dt = phihat(0)
    peak = bump_hat(DEFAULT_BUMP, 0.0).real
    assert bump_hat(DEFAULT_BUMP, 0.0).imag == 0.0
    for y in (0.3, 1.0, 2.5, 6.0, 14.0):
        assert abs(bump_hat(DEFAULT_BUMP, y)) <= peak + 1e-12


def test_bump_hat_direct_quadrature():
    y = 1.3
    re = quad(lambda t: math.exp(t) * DEFAULT_BUMP(t) * math.cos(y * t),
              -1, 1)[0]
    im = quad(lambda t: math.exp(t) * DEFAULT_BUMP(t) * math.sin(y * t),
              -1, 1)[0]
    assert bump_hat(DEFAULT_BUMP, y) == pytest.approx(complex(re, im),
                                                      abs=1e-10)


def test_c_phi_identity_and_convergence():
    val = c_phi()
    fourier = _c_phi_fourier()
    assert val > 0
    assert val == pytest.approx(fourier, abs=1e-6)
    assert fourier == pytest.approx(59.73996079599435, rel=1e-12)
    # doubling the oracle's quadrature resolution moves it by < 1e-8; the
    # 12288-node tensor is reduced in row blocks, never held whole
    tracemalloc.start()
    try:
        finer = _c_phi_fourier(rel_tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(fourier - finer) < 1e-8
    assert peak < 128 * 2 ** 20


# frozen: 4 pi^2 int_0^infty phi'^2 for the default bump, to 50 digits
def test_c_phi_frozen_value():
    assert c_phi() == pytest.approx(
        59.739960795991066057700351363334573120480530610307, rel=1e-15)


def test_c_phi_default_constant_is_the_quadrature():
    # the default bump's constant is the tanh-sinh value, bit for bit
    val = sieve._tanh_sinh(lambda t: DEFAULT_BUMP.derivative(t) ** 2, 1.0)
    assert (4.0 * math.pi ** 2 * val).hex() == c_phi().hex()


def _stretched(a):
    # phi(t / a) on (-a, a)
    return BumpFunction(f=lambda t: DEFAULT_BUMP(t / a),
                        df=lambda t: DEFAULT_BUMP.derivative(t / a) / a,
                        support=(-a, a))


def _power(k):
    # phi^k on (-1, 1)
    return BumpFunction(f=lambda t: DEFAULT_BUMP(t) ** k,
                        df=lambda t: (k * DEFAULT_BUMP(t) ** (k - 1)
                                      * DEFAULT_BUMP.derivative(t)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(0.25, 4.0).map(_stretched),
                 st.sampled_from((2, 3)).map(_power)))
def test_c_phi_matches_adaptive_quadrature(phi):
    b = phi.support[1]
    want = 4.0 * math.pi ** 2 * quad(lambda t: phi.derivative(t) ** 2,
                                     0.0, b, limit=200)[0]
    assert c_phi(phi) == pytest.approx(want, rel=1e-12)


def test_c_phi_rejects_nonsmooth_derivative():
    # phi'^2 jumps inside (0, 1): the tanh-sinh levels only creep together
    jump = BumpFunction(f=DEFAULT_BUMP,
                        df=lambda t: 1.0 if abs(t) < 1 / math.pi else 0.0)
    with pytest.raises(ArithmeticError):
        c_phi(jump)


def test_bump_needs_f_and_df_together():
    with pytest.raises(ValueError):
        BumpFunction(f=lambda t: DEFAULT_BUMP(t) ** 2)
    with pytest.raises(ValueError):
        BumpFunction(df=DEFAULT_BUMP.derivative)


def test_lambda_prime_above_R():
    # Lambda(p) = phi(0) - phi(log p / log R) = 1 exactly when p >= R
    (P,) = factor_rational_prime(Q, 97)
    assert lambda_R(P.ideal(), 50.0) == 1.0
    (P2,) = factor_rational_prime(QI, 2)
    assert lambda_R(P2.ideal(), 1.9) == 1.0


def test_lambda_two_divisor_oracle():
    # n = (6) over Q: divisors 1,2,3,6.  The cache keys on the bump object,
    # so a fresh bump after the default one gets its own value.
    n = FractionalIdeal.principal(Q, Q.element(6))
    R = 50.0
    squared = BumpFunction(
        f=lambda t: DEFAULT_BUMP(t) ** 2,
        df=lambda t: 2 * DEFAULT_BUMP(t) * DEFAULT_BUMP.derivative(t))
    for phi in (DEFAULT_BUMP, squared):
        want = (phi(0.0) - phi(math.log(2) / math.log(R))
                - phi(math.log(3) / math.log(R))
                + phi(math.log(6) / math.log(R)))
        assert lambda_R(n, R, phi) == pytest.approx(want, abs=1e-15)


def test_lambda_prime_power_equals_prime():
    # squarefree divisors of p^2 are the same as of p
    p = FractionalIdeal.principal(Q, Q.element(7))
    assert lambda_R(p * p, 50.0) == lambda_R(p, 50.0)


def test_lambda_unit_ideal():
    assert lambda_R(FractionalIdeal.unit_ideal(Q), 50.0) == 1.0


def test_sieve_config_defaults():
    cfg = SieveConfig(Q, N=10**6)
    assert cfg.W == 6
    assert cfg.phi_W == 2
    sz = 1
    assert cfg.logR == pytest.approx(math.log(10**6) / (8 * sz * 2 ** sz))
    cfg2 = SieveConfig(Q, N=100, logR=math.log(50))
    assert cfg2.R == pytest.approx(50.0)


def test_nu_nonnegative_and_prefactor():
    cfg = SieveConfig(Q, N=10**4, logR=math.log(20))
    raw = SieveConfig(Q, N=10**4, logR=math.log(20), raw=True)
    for m in range(0, 50):
        x = Q.element(m)
        v = nu_weight(cfg, x)
        assert v >= 0.0
        assert v == pytest.approx(raw.prefactor() * nu_weight(raw, x))


def test_nu_prime_argument():
    # W x + alpha = 6*16 + 1 = 97 prime and > R: Lambda^2 = 1
    cfg = SieveConfig(Q, N=10**4, logR=math.log(20), raw=True)
    assert nu_weight(cfg, Q.element(16)) == 1.0


def test_lift_nu_window():
    cfg = SieveConfig(Q, N=1000, epsilon=0.05, logR=math.log(20), raw=True)
    # residue 3: reduced is 3, inside (|coords| <= eps N / 2 = 25)
    inside = lift_nu(cfg, Q.element(3))
    assert inside == nu_weight(cfg, Q.element(3))
    # residue 500: reduced representative 500, outside the window
    assert lift_nu(cfg, Q.element(500)) == 1.0
    # residue 998 reduces to -2 which is inside
    assert lift_nu(cfg, Q.element(998)) == nu_weight(cfg, Q.element(-2))


def test_custom_bump_plugs_in():
    tri = BumpFunction(f=lambda t: max(0.0, 1.0 - abs(t)),
                       df=lambda t: 0.0 if abs(t) >= 1 else -math.copysign(1, t))
    n = FractionalIdeal.principal(Q, Q.element(3))
    val = lambda_R(n, 50.0, tri)
    assert val == pytest.approx(1.0 - (1.0 - math.log(3) / math.log(50)))


def test_lambda_cache_bounded():
    assert _lambda_cached.cache_info().maxsize == 2 ** 16


def test_residue_rows_cache_bounded():
    assert residue_rows.cache_info().maxsize == 2 ** 12


# ------------------------------------------------- truncation vs the oracle
#
# The sieve reads the primes of norm below R^support[1] off the norm; the
# oracles factor the whole ideal and sum over every subset.  Every dropped
# subset term is exactly +-0.0, so the two agree with ==.

FIELDS = [make_field(name) for name in SUPPORTED_POLYS.values()]
# the fields with a finite unit group, where alpha_scan finds generators
GENERATOR_FIELDS = [K for K in FIELDS
                    if K.name in ("Q", "Q(i)", "Q(sqrt-2)", "Q(sqrt-3)",
                                  "Q(sqrt-5)")]
PRIMES = {K: enumerate_prime_ideals(K, 60) for K in FIELDS}
# O_K, the primes of norm <= 9 (in Q(sqrt-5) the non-principal primes
# above 2 and 3) and the inverse of the first of them
AMBIENTS = {K: [FractionalIdeal.unit_ideal(K)]
            + [P.ideal() for P in PRIMES[K] if P.norm() <= 9]
            + [PRIMES[K][0].ideal().inverse()] for K in FIELDS}
# below 2, on prime norms, between them and above every norm involved
LEVELS = (st.sampled_from([1.5, 1.99, 2.0, 3.0, 5.0, 9.0, 25.0, 50.0, 1e3,
                           1e6])
          | st.floats(1.01, 1e4))
BUMPS = [DEFAULT_BUMP, _stretched(0.5), _stretched(2.5), _power(2)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_lambda_matches_full_subset_sum(data):
    K = data.draw(st.sampled_from(FIELDS), label="field")
    factors = data.draw(st.lists(st.tuples(st.sampled_from(PRIMES[K]),
                                           st.integers(1, 2)),
                                 max_size=4), label="factors")
    n = FractionalIdeal.unit_ideal(K)
    for P, e in factors:
        n = n * P.ideal() ** e
    R = data.draw(LEVELS, label="R")
    phi = data.draw(st.sampled_from(BUMPS), label="phi")
    assert lambda_R(n, R, phi) == lambda_oracle(n, R, phi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_nu_weight_matches_factorisation_oracle(data):
    K = data.draw(st.sampled_from(FIELDS), label="field")
    b = data.draw(st.sampled_from(AMBIENTS[K]), label="ambient")
    coeffs = st.lists(st.integers(-12, 12), min_size=K.degree,
                      max_size=K.degree)
    x = b.element_at(data.draw(coeffs, label="x"))
    # alpha in b, or any integral element (then W x + alpha may leave b)
    alpha = data.draw(coeffs.map(b.element_at) | coeffs.map(K.element),
                      label="alpha")
    cfg = SieveConfig(K, N=10**4, w=data.draw(st.integers(1, 3), label="w"),
                      alpha=alpha, ambient=b,
                      logR=data.draw(LEVELS.map(math.log)
                                     | st.floats(0.01, 14.0), label="logR"),
                      phi=data.draw(st.sampled_from(BUMPS), label="phi"),
                      raw=data.draw(st.booleans(), label="raw"))
    assert _outcome(nu_weight, cfg, x) == _outcome(nu_weight_oracle, cfg, x)


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_auto_correlation_matches_per_point_oracle(name, data):
    # the region sieve gives the report of the loop of nu_weight over the
    # points, or its error: W = 1, 2, 6, one or two shifts, the CLI's level
    # and levels where primes are small, W y + alpha outside b, and alpha
    # = W e with e in b, so that W (x + y_i) + alpha = 0 at x = -(y_i + e)
    K = make_field(name)
    b = data.draw(st.sampled_from(_search_ambients(K)), label="ambient")
    w = data.draw(st.integers(1, 3), label="w")
    coeffs = st.lists(st.integers(-3, 3), min_size=K.degree,
                      max_size=K.degree)
    in_b = coeffs.map(b.element_at)
    alpha = data.draw(in_b | in_b.map(lambda e: e * (1, 2, 6)[w - 1])
                      | coeffs.map(K.element), label="alpha")
    y = data.draw(st.lists(in_b | coeffs.map(K.element), min_size=1,
                           max_size=2), label="y")
    logR = data.draw(st.sampled_from([2.0, 2.5, 5.0, 12.0, 40.0]).map(
        math.log) | st.floats(0.05, 4.0) | st.none(), label="logR")
    cfg = SieveConfig(K, N=data.draw(st.integers(2, 3 if K.degree == 4
                                                 else 9), label="N"),
                      s=len(y), w=w, alpha=alpha, ambient=b, logR=logR,
                      raw=data.draw(st.booleans(), label="raw"))
    region = _square_region(K)
    assert _outcome(auto_correlation_check, y, region, cfg) \
        == _outcome(auto_correlation_oracle, y, region, cfg)


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
def test_auto_correlation_reads_zero_before_the_sieve(name):
    # alpha = 0: W (x + y_i) + alpha is 0 at x = -y_i, a point of the
    # region; 0 lies in every P b, yet nu is 0 there
    K = make_field(name)
    cfg = SieveConfig(K, N=3, s=2, w=2, alpha=K.zero, logR=math.log(40.0))
    y = [K.zero, K.one]
    assert nu_weight(cfg, K.zero) == 0.0
    assert auto_correlation_check(y, _square_region(K), cfg) \
        == auto_correlation_oracle(y, _square_region(K), cfg)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_alpha_scan_lambda_matches_oracle(data):
    K = data.draw(st.sampled_from(GENERATOR_FIELDS), label="field")
    lo = data.draw(st.integers(-5, 60), label="lo")
    # inverted, empty and negative windows as well
    window = (lo, lo + data.draw(st.integers(-20, 400), label="width"))
    cfg = SieveConfig(K, N=10**4, w=data.draw(st.integers(1, 3), label="w"),
                      ambient=data.draw(st.sampled_from(AMBIENTS[K]),
                                        label="ambient"),
                      logR=math.log(data.draw(LEVELS, label="R")),
                      phi=data.draw(st.sampled_from(BUMPS), label="phi"))
    masses, total, count = alpha_scan_oracle(cfg, window)
    if not masses:
        with pytest.raises(ValueError, match="^no primes of the required "
                           "class in the window$"):
            alpha_scan(cfg, window)
        return
    res = alpha_scan(cfg, window)
    assert (res.masses, res.total, res.count) == (masses, total, count)
    assert res.maximizer == max(sorted(masses), key=masses.__getitem__)
    assert res.window == window


def test_truncation_keeps_factor_order_and_level():
    # In floats (log 2 + log 3) + log 5 != (log 5 + log 3) + log 2, and
    # log(exp(L)) != L for some L: the logs are added in factor_ideal's
    # order, and nu reads log R off cfg.R as lambda_R does.
    n = FractionalIdeal.principal(Q, Q.element(30))
    rng = random.Random(0)
    for L in (rng.uniform(0.5, 10.0) for _ in range(600)):
        assert lambda_R(n, math.exp(L)) == lambda_oracle(n, math.exp(L),
                                                         DEFAULT_BUMP)
        cfg = SieveConfig(Q, N=100, logR=L, alpha=Q.element(30), raw=True)
        assert nu_weight(cfg, Q.zero) == nu_weight_oracle(cfg, Q.zero)


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, forbidden)


def test_alpha_scan_builds_no_prime_ideal_or_generator(monkeypatch):
    # every ambient of every field with a finite unit group, against the
    # prime-by-prime oracle; the scan itself reads the generators off one
    # ball, so it builds no P b and searches or reduces no generator
    cases = [SieveConfig(K, N=10**4, w=w, ambient=b, logR=math.log(30.0))
             for K in GENERATOR_FIELDS for b in AMBIENTS[K] for w in (1, 2)]
    want = [alpha_scan_oracle(cfg, (3, 300)) for cfg in cases]
    for owner, name in ((ideals, "enumerate_prime_ideals"),
                        (ideals, "principal_generator"),
                        (ideals, "_prime_ideal_lattice"),
                        (FractionalIdeal, "__mul__"),
                        (lattice, "fundamental_domain_reduce")):
        for where in (owner, constellation):
            if hasattr(where, name):
                _forbid(monkeypatch, where, name)
    # no norm is tested on its own: each call reads one sieve up to the
    # window's top
    _forbid(monkeypatch, ideals, "is_prime_norm")
    for cfg, (masses, total, count) in zip(cases, want):
        builds = []
        monkeypatch.setattr(constellation, "prime_norm_flags",
                            lambda K, X: builds.append(X)
                            or ideals.prime_norm_flags(K, X))
        res = alpha_scan(cfg, (3, 300))
        assert (res.masses, res.total, res.count) == (masses, total, count)
        assert builds == [300]


def test_per_point_paths_neither_factor_nor_build_principal_ideals(
        monkeypatch):
    K5 = make_field("Q(sqrt-5)")
    (P2,) = factor_rational_prime(K5, 2)
    cfg = SieveConfig(K5, N=10**4, w=1, ambient=P2.ideal(),
                      alpha=P2.ideal().element_at([1, 1]),
                      logR=math.log(50.0), raw=True)
    points = [P2.ideal().element_at([a, c]) for a in range(-4, 5)
              for c in range(-4, 5)]
    want = [nu_weight_oracle(cfg, x) for x in points]
    scan = alpha_scan_oracle(cfg, (2, 120))
    for owner, name in ((ideals, "factor_ideal"),
                        (sieve, "prime_divisors"), (ideals, "prime_divisors"),
                        (sieve, "lambda_R"), (FractionalIdeal, "principal"),
                        (FractionalIdeal, "inverse")):
        _forbid(monkeypatch, owner, name)
    assert [nu_weight(cfg, x) for x in points] == want
    res = alpha_scan(cfg, (2, 120))
    assert (res.masses, res.total, res.count) == scan
    # the search reads each witness off the norm as well
    hits = search_constellation(
        ConstellationSpec(K5, P2.ideal(), 1.5, 12, 4))
    assert hits
    # the verifier builds (xi) for the congruence, but inverts and
    # factors nothing
    monkeypatch.undo()
    for owner, name in ((ideals, "factor_ideal"),
                        (FractionalIdeal, "inverse")):
        _forbid(monkeypatch, owner, name)
    assert all(verify_certificate(c) == (True, []) for c in hits)


def test_nu_weight_below_level_two_skips_the_norm(monkeypatch):
    # R < 2: no prime is small, so Lambda = phi(0) with no arithmetic
    cfg = SieveConfig(QI, N=10**4, logR=math.log(1.9), raw=True)
    _forbid(monkeypatch, ideals, "factorint")
    assert nu_weight(cfg, QI.element([5, 7])) == 1.0


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 1.0, 0.5])
def test_lambda_rejects_level_outside_one_to_infinity(R):
    with pytest.raises(ValueError, match="R must be finite and > 1"):
        lambda_R(FractionalIdeal.unit_ideal(Q), R)


@pytest.mark.parametrize("logR", [math.nan, math.inf, 0.0, -1.0])
def test_nu_weight_rejects_level_outside_one_to_infinity(logR):
    cfg = SieveConfig(Q, N=100, logR=logR, raw=True)
    with pytest.raises(ValueError, match="R must be finite and > 1"):
        nu_weight(cfg, Q.element(3))
