import collections
import copy
import functools
import itertools
import json
import math
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from idealsieve import clear_caches, cli, constellation, ideals, lattice
from idealsieve.constellation import (Certificate, ConstellationSpec,
                                      alpha_scan, iter_constellation,
                                      search_constellation,
                                      verify_certificate, verify_line)
from idealsieve.errors import UnsupportedFieldError
from idealsieve.ideals import (FractionalIdeal, class_equivalent,
                               enumerate_prime_ideals, euler_phi,
                               factor_rational_prime, is_prime_element,
                               prime_norm_flags, principal_generator)
from idealsieve.lattice import ball_elements
from idealsieve.numberfield import (SUPPORTED_POLYS, FieldElement, make_field,
                                    minkowski_norm)
from idealsieve.sieve import SieveConfig
from oracles import (alpha_scan_oracle, certificate_oracle, search_oracle,
                     verify_certificate_oracle)

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


@pytest.mark.parametrize("m", [None, 0, 1, 3])
def test_search_is_a_slice_of_the_generator(m):
    spec = qspec(11.5, 6.5)
    assert list(itertools.islice(iter_constellation(spec), m or None)) == \
        search_constellation(spec._replace(max_hits=m))


def test_search_generators_keep_their_own_tables():
    # one point's coordinates stand for different elements on the two
    # ambients, so a table shared between the generators would write the
    # strings and witnesses of the other ambient
    O, P = _search_ambients(QI)[:2]
    specs = [ConstellationSpec(QI, b, 1.5, 12 * float(b.norm()) ** 0.5,
                               2.5 * float(b.norm()) ** 0.5) for b in (O, P)]
    alone = [list(iter_constellation(spec)) for spec in specs]
    gens = [iter_constellation(spec) for spec in specs]
    taken = [[], []]
    for pair in itertools.zip_longest(*gens):
        for got, hit in zip(taken, pair):
            if hit is not None:
                got.append(hit)
    assert min(map(len, alone)) > 1
    assert taken == alone
    assert all(verify_certificate(c) == (True, []) for c in sum(taken, []))


@pytest.mark.parametrize("max_hits", [-1, 2.5, "3"])
def test_search_refuses_a_max_hits_islice_refuses(max_hits):
    # the CLI admits only integers >= 0; the API raises islice's error
    with pytest.raises(ValueError):
        search_constellation(qspec(11.5, 6.5, max_hits=max_hits))


def test_search_finds_5_11_17():
    hits = search_constellation(qspec(11.5, 6.5))
    got = {(c.anchor[0], c.step[0]) for c in hits}
    assert ("11", "6") in got
    cert = next(c for c in hits if (c.anchor[0], c.step[0]) == ("11", "6"))
    assert sorted(int(p[0]) for p in cert.points) == [5, 11, 17]


def test_search_decides_each_norm_once(monkeypatch):
    # the prime table reads every point's norm off one prime_norm_flags
    # build: no norm is tested on its own by is_prime_norm, which the
    # verifier calls once per point
    builds = []

    def counting(K, X):
        builds.append(X)
        return prime_norm_flags(K, X)

    def forbidden(*args):
        raise AssertionError("primality tested point by point")

    monkeypatch.setattr(constellation, "prime_norm_flags", counting)
    monkeypatch.setattr(constellation, "is_prime_norm", forbidden)
    monkeypatch.setattr(ideals, "is_prime_norm", forbidden)
    spec = ConstellationSpec(QI, FractionalIdeal.unit_ideal(QI), 1.5,
                             5.5, 2.1)
    hits = search_constellation(spec)
    # the table ball's radius is 5.5 + 2.1, and |x|^2 = 2 |N x| in Q(i)
    assert hits and builds == [28]
    monkeypatch.undo()
    assert [c.to_json() for c in hits] == \
        [c.to_json() for c in _search_oracle(spec)]


def _search_oracle(spec):
    """search_constellation with one primality test per triple."""
    K = spec.K
    pattern = spec.pattern()

    def key(x):
        return minkowski_norm(x), tuple(x.coords)

    steps = sorted((x for x in ball_elements(K, spec.ambient,
                                             spec.step_bound * (1 + 1e-12))
                    if x), key=key)
    anchors = sorted(ball_elements(K, spec.ambient,
                                   spec.anchor_bound * (1 + 1e-12)), key=key)
    return [certificate_oracle(spec, a, xi, pattern)
            for xi in steps for a in anchors
            if all(is_prime_element(spec.ambient, a + xi * j)
                   for j in pattern)]


def _search_ambients(K):
    """O_K, every prime above 2 and 3 (the non-principal ones in Q(sqrt-5)
    among them) and the inverse of the first prime above 2 (den > 1)."""
    primes = [P.ideal() for p in (2, 3) for P in factor_rational_prime(K, p)]
    return [FractionalIdeal.unit_ideal(K)] + primes + [primes[0].inverse()]


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), k=st.sampled_from([1.5, 2, 2.1]),
       anchor=st.integers(4, 16), step=st.integers(2, 8),
       max_hits=st.sampled_from([None, 1, 3]))
def test_search_matches_oracle(name, data, k, anchor, step, max_hits):
    # the prime-table search gives the pair loop's certificates, in order;
    # the bounds are scaled by N(b)^(1/n), so the balls hold about the same
    # number of points for every ambient, fewer in the quartic field
    K = make_field(name)
    b = data.draw(st.sampled_from(_search_ambients(K)), label="ambient")
    scale = float(b.norm()) ** (1 / K.degree) * (0.3 if K.degree == 4 else 0.5)
    spec = ConstellationSpec(K, b, k, anchor * scale, step * scale, max_hits)
    assert [c.to_json() for c in search_constellation(spec)] == \
        [c.to_json() for c in search_oracle(spec)]


def test_search_field_arithmetic_only_in_certificates(monkeypatch):
    # the candidates, the pattern and the hits are integer vectors, and
    # residue_rows multiplies coordinate vectors, so no FieldElement sum or
    # product is made
    counts = collections.Counter()

    def counted(op):
        orig = getattr(FieldElement, op)

        def wrapper(self, other):
            counts[op] += 1
            return orig(self, other)
        return wrapper

    for op in ("__mul__", "__add__"):
        monkeypatch.setattr(FieldElement, op, counted(op))
    O = FractionalIdeal.unit_ideal(QI)
    spec = ConstellationSpec(QI, O, 1.5, 25, 2.5, max_hits=20)
    ideals.residue_rows.cache_clear()
    assert search_constellation(spec)
    assert ideals.residue_rows.cache_info().misses
    assert counts["__add__"] == 0
    assert counts["__mul__"] == 0


@pytest.mark.parametrize("i", [0, 1], ids=["unit", "prime"])
def test_search_builds_each_ball_form_once(i):
    # the search's five ball_rows calls build one form per distinct
    # lattice: the ambient's and O_K's, one lattice when b = O_K
    b, O = _search_ambients(QI)[i], FractionalIdeal.unit_ideal(QI)
    scale = float(b.norm()) ** 0.5
    lattice._ball_form.cache_clear()
    assert search_constellation(ConstellationSpec(QI, b, 1.5, 25 * scale,
                                                  2.5 * scale, max_hits=20))
    info = lattice._ball_form.cache_info()
    assert info.misses == info.currsize == len({b, O})
    assert info.hits + info.misses == 5


def test_search_certificates_share_no_mutable_value():
    # the 352 hits of one search share points, but no two certificates (or
    # two fields of one) hold the same list or dict: mutating one
    # certificate's point and witness leaves every other certificate as it was
    hits = search_constellation(ConstellationSpec(
        QI, FractionalIdeal.unit_ideal(QI), 1.5, 40, 8))
    assert len(hits) == 352
    values = [v for c in hits for v in (
        c.anchor, c.step, *c.points, *c.witnesses,
        *(w["g"] for w in c.witnesses))]
    assert len({id(v) for v in values}) == len(values)
    first, i, other = next(
        (c, i, d) for c, d in itertools.combinations(hits, 2)
        for i, p in enumerate(c.points) if p in d.points)
    rest = [d for d in hits if d is not first]
    before = [(copy.deepcopy(d._items()), d.to_json()) for d in rest]
    first.points[i][0] = "7"
    first.points[i].append("0")
    first.witnesses[i]["p"] = 7
    first.witnesses[i]["g"].append(1)
    first.anchor.append("0")
    first.step[0] = "7"
    assert other in rest
    assert [(d._items(), d.to_json()) for d in rest] == before


def test_search_keeps_no_table_between_calls():
    # a point's coordinates name different elements on different ambients:
    # O_K, the first prime above 5 and O_K again give the certificates each
    # search gives alone, from cleared caches
    O = FractionalIdeal.unit_ideal(QI)
    P = ideals.primes_above(QI, 5)[0].ideal()
    specs = [ConstellationSpec(QI, O, 1.5, 25, 2.5),
             ConstellationSpec(QI, P, 1.5, 40, 5),
             ConstellationSpec(QI, O, 1.5, 25, 2.5)]

    alone = []
    for spec in specs:
        clear_caches()
        alone.append(search_constellation(spec))
    clear_caches()
    assert [search_constellation(spec) for spec in specs] == alone
    assert all(alone) and alone[0] != alone[1]


def test_search_lists_no_pattern(monkeypatch):
    # the search walks the pattern's ball rows and never lists the pattern;
    # with no points the pattern is still an error
    spec = ConstellationSpec(QI, FractionalIdeal.unit_ideal(QI), 1.5, 12, 3)

    def listed(self):
        raise AssertionError("the pattern was listed")

    monkeypatch.setattr(ConstellationSpec, "pattern", listed)
    hits = search_constellation(spec)
    with pytest.raises(ValueError, match="empty pattern"):
        search_constellation(spec._replace(k=0))
    monkeypatch.undo()
    assert hits
    assert [c.to_json() for c in hits] == \
        [c.to_json() for c in search_oracle(spec)]


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), count=st.one_of(st.integers(0, 8), st.integers(9, 60)))
def test_quotient_norms_match_each_point(name, data, count):
    # the accumulated differences give _quotient_norm at every point of
    # the line, for counts up to n + 1 (nothing summed) and beyond
    K = make_field(name)
    b = data.draw(st.sampled_from(_search_ambients(K)), label="ambient")
    c, d = (data.draw(st.lists(st.integers(-9, 9), min_size=K.degree,
                               max_size=K.degree)) for _ in range(2))
    v, h = b.numerators_at(c), b.numerators_at(d)
    assert list(ideals.quotient_norms(b, v, h, count)) == \
        [ideals._quotient_norm(b, [x + t * y for x, y in zip(v, h)])
         for t in range(count)]


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
    bad.radius = 6 + 1e-9  # the radius make_certificate gives step 6
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


@pytest.mark.parametrize("K", [Q, QI], ids=lambda K: K.name)
def test_zero_step_is_schema(K):
    # with a zero step every point is the anchor, so a prime anchor would
    # pass every other check
    cert = search_constellation(ConstellationSpec(
        K, FractionalIdeal.unit_ideal(K), 1.5, 11.5, 6.5, max_hits=1))[0]
    obj = json.loads(cert.to_json())
    obj["step"] = ["0"] * K.degree
    obj["points"] = [obj["anchor"]] * len(obj["points"])
    assert verify_line(json.dumps(obj)) == (False, ["schema"])


# over Q(i): a lattice that is no ideal, and the ideal (1+i) written in a
# non-canonical HNF
_QI_BAD_AMBIENTS = ({"hnf": [[1, 0], [0, 2]], "den": 1},
                     {"hnf": [[1, 5], [0, 2]], "den": 1})


@pytest.mark.parametrize("key, value", [
    ("anchor", 5), ("k", "x"), ("ambient", [1]), ("step", ["x"]),
    ("points", [5]), ("radius", "1"), ("k", True),
    ("ambient", {"hnf": [[1, 0], [0, 1]], "den": 1}),
    ("ambient", {"hnf": [[1]], "den": 0}),
    ("ambient", {"hnf": [[1]], "den": 1.5}),
    ("ambient", _QI_BAD_AMBIENTS[0]), ("ambient", _QI_BAD_AMBIENTS[1])])
def test_certificate_value_types_checked(key, value):
    if value in _QI_BAD_AMBIENTS:
        cert = search_constellation(ConstellationSpec(
            QI, FractionalIdeal.unit_ideal(QI), 1.5, 4.5, 2.1, max_hits=1))[0]
    else:
        cert = _one_cert()
    obj = json.loads(cert.to_json())
    obj[key] = value
    assert verify_line(json.dumps(obj)) == (False, ["schema"])


@pytest.mark.parametrize("coord", [
    "1e30000", "1e3", "1.0", "1.", " 1", "1 ", "+1", "inf", "nan", "1/0",
    "1/-2", "1/", "0x1", "1_0", "\u0661", "", 1, 1.0, None, ["1"]])
def test_coordinate_form_checked(coord):
    # only the form _coords_out writes is read, so a short exponent string
    # cannot expand to a huge Fraction
    obj = json.loads(_one_cert().to_json())
    obj["points"][0] = [coord]
    t = time.perf_counter()
    assert verify_line(json.dumps(obj)) == (False, ["schema"])
    assert time.perf_counter() - t < 0.1


def test_coordinate_forms_accepted():
    obj = json.loads(_one_cert().to_json())
    assert verify_line(json.dumps(obj)) == (True, [])
    obj["points"][0] = ["-1/2"]  # well formed, not a point of the pattern
    assert verify_line(json.dumps(obj)) == (False, ["pattern", "membership"])


def test_large_k_is_pattern_fast():
    # a k far beyond the listed points: the pattern is enumerated up to one
    # point more than the three listed, and the radius is not re-derived
    bad = Certificate.from_json(_one_cert().to_json())
    bad.k = 1e5
    t = time.perf_counter()
    assert verify_certificate(bad) == (False, ["pattern"])
    assert time.perf_counter() - t < 0.5


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


# the (anchor, step) bounds over N(b)^(1/n) at which every field has hits:
# the 7-point pattern of Q(sqrt-3) needs longer steps, and Q(zeta5)'s
# pattern is the one point 0
_CONGRUENCE_BOUNDS = {"Q(sqrt-3)": (10, 5), "Q(zeta5)": (3.5, 2)}


@pytest.mark.parametrize("name", SUPPORTED_POLYS.values())
def test_search_over_integral_ambients_verifies(name):
    # the points are a + xi j with j in O_K, so pt - a lies in (xi); over
    # an integral ambient b != O_K it need not lie in (xi) b
    K = make_field(name)
    anchor, step = _CONGRUENCE_BOUNDS.get(name, (10, 3))
    hits = []
    for b in _search_ambients(K)[1:-1]:
        scale = float(b.norm()) ** (1 / K.degree)
        hits += search_constellation(ConstellationSpec(
            K, b, 1.5, anchor * scale, step * scale, max_hits=0))
    assert hits
    assert all(verify_certificate(c) == (True, []) for c in hits)


@functools.cache
def _tamper_pool():
    """Certificates over every vetted field, from O_K and from the first
    prime above 2 (den 1) and its inverse (den > 1), bounds as above:
    Q(zeta5)'s one-point pattern leaves the step unconstrained."""
    certs = []
    for name in SUPPORTED_POLYS.values():
        K = make_field(name)
        anchor, step = _CONGRUENCE_BOUNDS.get(name, (10, 3))
        for b in _search_ambients(K)[:2] + _search_ambients(K)[-1:]:
            scale = float(b.norm()) ** (1 / K.degree)
            certs += search_constellation(ConstellationSpec(
                K, b, 1.5, anchor * scale, step * scale, max_hits=2))
    return certs


_COORD_STRINGS = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 6)))


@st.composite
def _tampered(draw):
    """A pool certificate with up to three of: a coordinate of the anchor,
    step or a point replaced (unreduced fractions such as "2/4" among
    them), the radius moved by one ulp, k past the budget, the witnesses
    reordered, a point dropped or duplicated, or the ambient swapped for
    the inverse of a prime (den > 1)."""
    cert = draw(st.sampled_from(_tamper_pool()))
    c = Certificate.from_json(cert.to_json())
    K = make_field(c.field)
    for kind in draw(st.lists(st.sampled_from([
            "anchor", "step", "point", "radius", "k", "witnesses", "drop",
            "dup", "ambient"]), max_size=3)):
        if kind in ("anchor", "step") or kind == "point" and c.points:
            coords = {"anchor": c.anchor, "step": c.step}.get(kind) \
                or draw(st.sampled_from(c.points))
            coords[draw(st.integers(0, K.degree - 1))] = draw(_COORD_STRINGS)
        elif kind == "radius":
            c.radius = math.nextafter(c.radius, draw(st.sampled_from(
                [-math.inf, math.inf])))
        elif kind == "k":
            c.k = draw(st.sampled_from([1e300, 10**400]))
        elif kind == "witnesses":
            c.witnesses = draw(st.permutations(c.witnesses))
        elif kind in ("drop", "dup") and c.points:
            i = draw(st.integers(0, len(c.points) - 1))
            for values in (c.points, c.witnesses):
                if kind == "dup":
                    values.insert(i, values[i])
                else:
                    del values[i]
        elif kind == "ambient":
            c.ambient = _search_ambients(K)[-1].to_json()
    return c


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cert=_tampered())
def test_verify_matches_fraction_oracle(cert):
    # the integer route gives the Fraction route's verdict and diagnoses,
    # in order, on certificates of every field, tampered or not
    assert verify_certificate(cert) == verify_certificate_oracle(cert)


# ---------------------------------------------------------------- generators

@pytest.mark.parametrize("name", ["Q(sqrt2)", "Q(sqrt5)", "Q(zeta5)"])
def test_generator_unsupported_fields(name):
    # a unit of infinite order leaves no least norm to read generators off
    K = make_field(name)
    O = FractionalIdeal.unit_ideal(K)
    P = factor_rational_prime(K, 11)[0].ideal()
    with pytest.raises(UnsupportedFieldError):
        principal_generator(P)
    with pytest.raises(UnsupportedFieldError):
        class_equivalent(O, P, O)


@pytest.mark.parametrize("name", ["Q(i)", "Q(sqrt-2)", "Q(sqrt-3)",
                                  "Q(sqrt-5)"])
def test_generator_bound_validated(name):
    # imaginary quadratic: |sigma(xi)|^2 = N(xi) at the single complex
    # place, so every generator of P meets the bound |xi|^2 = 2 N(P)
    K = make_field(name)
    checked = 0
    for P in enumerate_prime_ideals(K, 100):
        if P.norm() > 10**4:
            continue
        xi = principal_generator(P.ideal())
        if xi is None:
            assert name == "Q(sqrt-5)"  # class number 2
            continue
        assert FractionalIdeal.principal(K, xi) == P.ideal()
        Nrm = P.norm()
        assert minkowski_norm(xi) ** 2 == pytest.approx(2.0 * Nrm,
                                                           rel=1e-12)
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
    # the masses, total and count prime by prime, several classes at w = 3
    for w, window in ((1, (2, 120)), (3, (2, 400)), (3, (300, 2000))):
        cfg = SieveConfig(K5, N=10**4, w=w, ambient=P2.ideal(),
                          logR=math.log(1000.0))
        res = alpha_scan(cfg, window)
        assert (res.masses, res.total, res.count) \
            == alpha_scan_oracle(cfg, window)
        assert res.partition_exact() and (w == 1 or len(res.masses) > 1)


# Q(i) and Q(sqrt-3), whose unit groups have orders 4 and 6: O_K and three
# non-unit principal ambients, by generator coordinates
_UNIT_AMBIENTS = {"Q(i)": [(1, 0), (2, 1), (3, 0), (1, 1)],
                  "Q(sqrt-3)": [(1, 0), (2, 0), (2, 1), (1, -3)]}


@pytest.mark.parametrize("name", sorted(_UNIT_AMBIENTS))
def test_alpha_scan_matches_oracle_where_units_matter(name):
    # windows below, across and above the Lambda cut, the least norm N with
    # log N / log R >= 1: 30 at R = 30, and 6 at R = 5.5, below which
    # Lambda(5) differs from phi(0) even as a float
    K = make_field(name)
    for gen in _UNIT_AMBIENTS[name]:
        b = FractionalIdeal.principal(K, K.element(list(gen)))
        for w, (R, cut) in itertools.product((1, 2, 3), ((30.0, 30),
                                                          (5.5, 6))):
            cfg = SieveConfig(K, N=10**4, w=w, ambient=b, logR=math.log(R))
            for window in ((2, cut - 1), (3, 300), (cut, 400),
                           (2 * cut, 500)):
                masses, total, count = alpha_scan_oracle(cfg, window)
                if not masses:
                    with pytest.raises(ValueError, match="^no primes"):
                        alpha_scan(cfg, window)
                    continue
                res = alpha_scan(cfg, window)
                assert (res.masses, res.total, res.count) \
                    == (masses, total, count), (gen, w, window)


def _unit_columns(K):
    """The columns of the multiplication matrix of each unit u != +-1,
    found as the points of norm 1 in the ball of radius 2."""
    return [list(zip(*K.mul_rows(u.num)))
            for u in ball_elements(K, FractionalIdeal.unit_ideal(K), 2)
            if u.norm() == 1 and any(u.num[1:])]


_UNIT_COLUMNS = {name: _unit_columns(make_field(name))
                 for name in _UNIT_AMBIENTS}


def test_unit_columns_are_the_unit_groups():
    assert {k: len(v) for k, v in _UNIT_COLUMNS.items()} \
        == {"Q(i)": 2, "Q(sqrt-3)": 4}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_range_matches_per_point_order(data):
    # the row rule against u w < w point by point, for each unit and for
    # all of them; the modes aim entry 0 of u w - w at one unit: beta_0 = 0
    # along the row, or an integer zero at the row's first or last point
    units = _UNIT_COLUMNS[data.draw(st.sampled_from(sorted(_UNIT_COLUMNS)),
                                    label="field")]
    M = data.draw(st.sampled_from(units), label="aimed unit")
    kernel = (M[0][1], 1 - M[0][0])  # entry 0 of x M - x is 0 at x
    coord = st.integers(-6, 6) | st.integers(-10**6, 10**6)
    v = data.draw(st.tuples(coord, coord), label="v")
    h = data.draw(st.tuples(coord, coord), label="h")
    L = data.draw(st.sampled_from([0, 1]) | st.integers(0, 40), label="L")
    mode = data.draw(st.sampled_from(["free", "beta0", "first", "last"]),
                     label="mode")
    if mode == "beta0":
        h = tuple(data.draw(coord, label="k") * x for x in kernel)
    elif mode != "free":
        L = max(L, 1)
        t = 0 if mode == "first" else L - 1
        v = tuple(data.draw(coord, label="k") * x - t * y
                  for x, y in zip(kernel, h))

    def least(w, chosen):
        return not any([sum(x * c for x, c in zip(w, col)) for col in U]
                       < list(w) for U in chosen)

    for chosen in [[U] for U in units] + [units]:
        want = [least([x + t * y for x, y in zip(v, h)], chosen)
                for t in range(L)]
        lo, hi = constellation._orbit_range(v, h, chosen, L)
        assert [lo <= t < hi for t in range(L)] == want, chosen


def test_alpha_scan_calls_lambda_only_below_the_cut(monkeypatch, tmp_path):
    calls = []
    real = constellation.lambda_of_norms
    monkeypatch.setattr(constellation, "lambda_of_norms",
                        lambda norms, R, phi: calls.append(norms)
                        or real(norms, R, phi))
    for name in ("Q", "Q(i)", "Q(sqrt-3)"):
        cfg = SieveConfig(make_field(name), N=10**4, w=2,
                          logR=math.log(30.0))
        calls.clear()
        res = alpha_scan(cfg, (3, 300))
        # one call per counted prime of norm below R = 30, and only those
        assert calls and all(len(n) == 1 and n[0] < 30 for n in calls)
        assert len(calls) < res.count
    # the bench's alpha-scan-qi argv: every norm is past R = 50
    calls.clear()
    assert cli.main(["--output", str(tmp_path / "r"), "alpha-scan",
                     "--field", "Q(i)", "--w", "2", "--window", "100",
                     "1200", "--R", "50"]) == 0
    assert calls == []
