"""The record classes: constructor signatures, equality, hashing and
immutability of the prime-ideal records, and the values SieveConfig
derives from (K, N)."""

import inspect
import math

import pytest

from idealsieve.constellation import (AlphaScanResult, Certificate,
                                      ConstellationSpec)
from idealsieve.correlation import CorrelationReport
from idealsieve.ideals import (FractionalIdeal, IdealFactorization,
                               PrimeIdeal, TruncatedClass,
                               enumerate_prime_ideals, factor_ideal)
from idealsieve.numberfield import SUPPORTED_POLYS, make_field
from idealsieve.sieve import DEFAULT_BUMP, SieveConfig

FIELDS = [make_field(name) for name in SUPPORTED_POLYS.values()]
REQUIRED = inspect.Parameter.empty

# (parameter, default) in order, REQUIRED where there is none
SIGNATURES = {
    PrimeIdeal: [("K", REQUIRED), ("p", REQUIRED), ("gpoly", REQUIRED),
                 ("e", REQUIRED), ("f", REQUIRED)],
    IdealFactorization: [("factors", REQUIRED)],
    TruncatedClass: [("ambient", REQUIRED), ("modulus", REQUIRED),
                     ("anchor", REQUIRED), ("radius", REQUIRED),
                     ("members", REQUIRED)],
    ConstellationSpec: [("K", REQUIRED), ("ambient", REQUIRED),
                        ("k", REQUIRED), ("anchor_bound", REQUIRED),
                        ("step_bound", REQUIRED), ("max_hits", None)],
    Certificate: [("field", REQUIRED), ("ambient", REQUIRED),
                  ("k", REQUIRED), ("anchor", REQUIRED), ("step", REQUIRED),
                  ("points", REQUIRED), ("radius", REQUIRED),
                  ("witnesses", REQUIRED)],
    AlphaScanResult: [("masses", REQUIRED), ("total", REQUIRED),
                      ("maximizer", REQUIRED), ("window", REQUIRED),
                      ("W", REQUIRED), ("count", REQUIRED)],
    CorrelationReport: [("op", REQUIRED), ("empirical", REQUIRED),
                        ("predicted", REQUIRED), ("sample_size", REQUIRED),
                        ("parameters", REQUIRED)],
    SieveConfig: [("K", REQUIRED), ("N", REQUIRED), ("s", 1), ("k", 1.5),
                  ("w", 3), ("alpha", None), ("epsilon", 0.05),
                  ("logR", None), ("phi", DEFAULT_BUMP), ("raw", False),
                  ("ambient", None)],
}

# SieveConfig(K, 10**6): phi_K(6) per field, log R and R per degree
PHI_W = {"Q": 2, "Q(i)": 16, "Q(sqrt2)": 16, "Q(sqrt-2)": 8, "Q(sqrt-3)": 18,
         "Q(sqrt5)": 24, "Q(sqrt-5)": 8, "Q(zeta5)": 1200}
LOG_R = {1: (0.8634694098727671, 2.371373705661655),
         2: (0.21586735246819178, 1.2409377607517196),
         4: (0.026983419058523972, 1.0273507681793026)}


def test_record_classes_keep_their_semantics():
    for cls, table in SIGNATURES.items():
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == table, cls
        args = [object()] * sum(d is REQUIRED for _, d in table)
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)

    # the one mutable record: tests tamper certificates field by field
    cert = Certificate("Q", {"den": 1}, 1.5, ["5"], ["6"], [["5"], ["11"]],
                       6.0, [{"p": 5, "g": [0, 1], "e": 1, "f": 1}])
    again = Certificate.from_json(cert.to_json())
    assert again == cert and again is not cert
    again.radius = 0.5
    assert again != cert

    for K in FIELDS:
        primes = enumerate_prime_ideals(K, 50)
        assert primes
        for P in primes:
            again = PrimeIdeal(K, P.p, P.gpoly, P.e, P.f)
            assert again == P and again is not P
            # a frozen dataclass hashed its fields as one tuple; the
            # lru_cache keys and set orders depend on that value
            assert hash(P) == hash(tuple(P)) \
                == hash((P.K, P.p, P.gpoly, P.e, P.f))
            with pytest.raises(AttributeError):
                P.p = 2
        a = FractionalIdeal.unit_ideal(K)
        for P in primes[:4]:
            a = a * P.ideal() ** 2
        fac = factor_ideal(a)
        again = IdealFactorization(tuple(fac.factors))
        assert again == fac and hash(again) == hash(fac) \
            == hash(tuple(fac)) == hash((fac.factors,))
        assert again.product(K) == a
        with pytest.raises(AttributeError):
            fac.factors = ()

        cfg = SieveConfig(K, 10**6)
        assert cfg.ambient == FractionalIdeal.unit_ideal(K)
        assert cfg.alpha == K.one
        assert (cfg.logR, cfg.R) == LOG_R[K.degree]
        assert cfg.R == math.exp(cfg.logR)
        assert (cfg.W, cfg.phi_W) == (6, PHI_W[K.name])
        cfg = SieveConfig(K, 10**6, w=5, logR=2.0, alpha=K.element(3))
        assert (cfg.W, cfg.logR, cfg.R) == (30, 2.0, math.exp(2.0))
        assert cfg.alpha == K.element(3)
