import json
import math
from fractions import Fraction

import pytest
import sympy

from idealsieve.constellation import (AlphaScanResult, Certificate,
                                      ConstellationSpec, alpha_scan,
                                      make_certificate, search_constellation,
                                      verify_certificate, verify_line)
from idealsieve.errors import UnsupportedFieldError
from idealsieve.ideals import (GENERATOR_BOUNDS, FractionalIdeal,
                               enumerate_prime_ideals, euler_phi,
                               factor_rational_prime, principal_generator)
from idealsieve.numberfield import make_field, minkowski_norm
from idealsieve.sieve import SieveConfig

Q = make_field("Q")
QI = make_field("Q(i)")


def qspec(anchor_bound, step_bound, **kw):
    return ConstellationSpec(Q, FractionalIdeal.unit_ideal(Q), 1.5,
                             anchor_bound, step_bound, **kw)


# ---------------------------------------------------------------- search

def test_search_small_window_oracle():
    # pattern {-1, 0, 1}; the only 3-term progressions of rational primes
    # (up to sign) with |a| <= 5.5, 0 < |xi| <= 2.5 are +-{3, 5, 7}
    hits = search_constellation(qspec(5.5, 2.5))
    got = {(c.anchor[0], c.step[0]) for c in hits}
    assert got == {("-5", "-2"), ("-5", "2"), ("5", "-2"), ("5", "2")}


def test_search_deterministic_order_and_max_hits():
    hits = search_constellation(qspec(5.5, 2.5))
    # steps ordered by (norm, coords): -2 before 2; anchors: -5 before 5
    keys = [(c.step[0], c.anchor[0]) for c in hits]
    assert keys == [("-2", "-5"), ("-2", "5"), ("2", "-5"), ("2", "5")]
    first = search_constellation(qspec(5.5, 2.5, max_hits=1))
    assert len(first) == 1
    assert first[0].to_json() == hits[0].to_json()


def test_search_finds_5_11_17():
    hits = search_constellation(qspec(11.5, 6.5))
    got = {(c.anchor[0], c.step[0]) for c in hits}
    assert ("11", "6") in got
    cert = next(c for c in hits if (c.anchor[0], c.step[0]) == ("11", "6"))
    assert sorted(int(p[0]) for p in cert.points) == [5, 11, 17]


def test_search_gaussian_cross():
    spec = ConstellationSpec(QI, FractionalIdeal.unit_ideal(QI), 1.5,
                             4.5, 2.1)
    hits = search_constellation(spec)
    assert hits
    assert any(c.anchor == ["-3", "0"] and c.step == ["-1", "-1"]
               for c in hits)
    for c in hits:
        ok, why = verify_certificate(c)
        assert ok, why


# ---------------------------------------------------------------- certificates

def _one_cert():
    return search_constellation(qspec(11.5, 6.5, max_hits=1))[0]


def test_certificate_roundtrip():
    cert = _one_cert()
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    ok, why = verify_certificate(again)
    assert ok and why == []


def test_tampered_primality_detected():
    cert = _one_cert()
    # consistent but composite constellation: 3, 9, 15
    bad = Certificate.from_json(cert.to_json())
    bad.anchor = ["9"]
    bad.step = ["6"]
    bad.points = [["3"], ["9"], ["15"]]
    bad.radius = 6.1
    ok, why = verify_certificate(bad)
    assert not ok
    assert "primality" in why
    assert "pattern" not in why and "metric" not in why


def test_tampered_metric_detected():
    cert = _one_cert()
    bad = Certificate.from_json(cert.to_json())
    bad.radius = 0.5
    ok, why = verify_certificate(bad)
    assert not ok
    assert "metric" in why


def test_tampered_pattern_detected():
    cert = _one_cert()
    bad = Certificate.from_json(cert.to_json())
    pts = sorted(bad.points, key=lambda p: int(p[0]))
    pts[0] = ["7"]  # still prime, wrong progression
    bad.points = pts
    ok, why = verify_certificate(bad)
    assert not ok
    assert "pattern" in why


def test_tampered_witness_detected():
    cert = _one_cert()
    bad = Certificate.from_json(cert.to_json())
    bad.witnesses = [{"p": 2, "g": [0, 1], "e": 1, "f": 1}
                     for _ in bad.witnesses]
    ok, why = verify_certificate(bad)
    assert not ok and why == ["witness"]
    # one swapped witness is caught as well
    bad.witnesses = cert.witnesses[::-1]
    assert verify_certificate(bad) == (False, ["witness"])


def test_certificate_schema_checked():
    line = _one_cert().to_json()
    assert verify_line(line) == (True, [])
    assert verify_line('{"field": "Q"}') == (False, ["schema"])
    obj = json.loads(line)
    obj["extra"] = 1
    assert verify_line(json.dumps(obj)) == (False, ["schema"])
    del obj["extra"], obj["witnesses"]
    assert verify_line(json.dumps(obj)) == (False, ["schema"])
    assert verify_line("[1, 2]") == (False, ["schema"])


def test_tampered_field_detected():
    cert = _one_cert()
    bad = Certificate.from_json(cert.to_json())
    bad.field = "Q(sqrt-17)"
    ok, why = verify_certificate(bad)
    assert not ok and why == ["field"]


def test_search_then_verify_many():
    # every certificate the search emits must verify, across both fields
    hits = search_constellation(qspec(60.5, 6.5))
    assert len(hits) >= 10
    spec = ConstellationSpec(QI, FractionalIdeal.unit_ideal(QI), 1.5,
                             5.5, 2.1)
    hits += search_constellation(spec)
    for c in hits:
        ok, why = verify_certificate(c)
        assert ok, (c.anchor, c.step, why)


# ---------------------------------------------------------------- generator bounds

def test_generator_bound_table():
    assert GENERATOR_BOUNDS["Q"] == 1.0
    assert GENERATOR_BOUNDS["Q(i)"] == pytest.approx(math.sqrt(2.0))
    K = make_field("Q(sqrt5)")  # infinite unit group: no table entry
    with pytest.raises(UnsupportedFieldError):
        principal_generator(factor_rational_prime(K, 11)[0].ideal())


@pytest.mark.parametrize("name", ["Q(i)", "Q(sqrt-2)", "Q(sqrt-3)",
                                  "Q(sqrt-5)"])
def test_generator_bound_validated(name):
    # imaginary quadratic: |sigma(xi)|^2 = N(xi) at the single complex
    # place, so Minkowski norm of any generator is exactly sqrt(2 N)
    K = make_field(name)
    c_K = GENERATOR_BOUNDS[name]
    checked = 0
    for P in enumerate_prime_ideals(K, 100):
        if P.norm() > 10**4:
            continue
        xi = principal_generator(P.ideal())
        if xi is None:
            assert name == "Q(sqrt-5)"  # class number 2
            continue
        Nrm = P.norm()
        mink = minkowski_norm(K, xi)
        assert mink**2 == pytest.approx(2.0 * Nrm, rel=1e-9)
        assert mink <= math.sqrt(2.0) * c_K * math.sqrt(Nrm) * (1 + 1e-6)
        checked += 1
    # class number 2 leaves fewer principal primes below the cutoff
    assert checked >= (5 if name == "Q(sqrt-5)" else 10)


# ---------------------------------------------------------------- alpha scan

def test_alpha_scan_rational_w6():
    cfg = SieveConfig(Q, N=10**4, w=3)
    res = alpha_scan(cfg, (100, 1000))
    assert res.partition_exact()
    assert set(res.masses) <= {("1",), ("-1",)}
    assert res.count == sympy.primepi(1000) - sympy.primepi(100)
    # pigeonhole: the best class carries at least the average mass
    assert res.masses[res.maximizer] * euler_phi(Q, res.W) >= res.total


def test_alpha_scan_gaussian_w2():
    cfg = SieveConfig(QI, N=10**4, w=2)
    res = alpha_scan(cfg, (5, 200))
    assert res.partition_exact()
    assert res.count > 0
    assert res.maximizer in res.masses
    assert res.masses[res.maximizer] * euler_phi(QI, res.W) >= res.total


def test_alpha_scan_nonprincipal_class():
    K5 = make_field("Q(sqrt-5)")
    (P2,) = factor_rational_prime(K5, 2)
    cfg = SieveConfig(K5, N=10**4, w=1, ambient=P2.ideal())
    res = alpha_scan(cfg, (2, 120))
    assert res.partition_exact()
    # only primes in the class of the ambient's inverse contribute
    eligible = [P for P in enumerate_prime_ideals(K5, 120)
                if 2 <= P.norm() <= 120]
    assert 0 < res.count < len(eligible)
