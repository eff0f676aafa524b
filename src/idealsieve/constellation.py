"""Prime constellation search: truncated residue classes of an ideal all
of whose points generate prime ideals, certificate verification, and the
pigeonhole alpha-scan over a prime-norm window.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import re
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import ENUMERATION_BUDGET, BudgetExceededError, check_budget
from .arith import factorint
from .ideals import (FractionalIdeal, _generators, _quotient_norm,
                     is_prime_norm, prime_norm_flags, primes_at,
                     quotient_norms)
from .lattice import ball_elements, ball_rows
from .linalg import adjugate, det_int
from .numberfield import FieldElement, field_by_name, minkowski_norm
from .sieve import (SieveConfig, _is_small, _lambda_cached, _log_level,
                    lambda_of_norms)


class ConstellationSpec(namedtuple(
        "ConstellationSpec", "K ambient k anchor_bound step_bound max_hits",
        defaults=(None,))):
    """The pattern is O_K cap B_k; the search takes anchors with |a|_Min <=
    anchor_bound and steps with 0 < |xi|_Min <= step_bound."""
    __slots__ = ()

    def pattern(self):
        pts = ball_elements(self.K, FractionalIdeal.unit_ideal(self.K), self.k)
        if not pts:
            raise ValueError("empty pattern")
        return pts


class Certificate:
    """One hit as mutable JSON-ready values: coordinate strings for anchor,
    step and each point, and per-point prime witnesses {p, g, e, f}."""
    __slots__ = ("field", "ambient", "k", "anchor", "step", "points",
                 "radius", "witnesses")

    def __init__(self, field, ambient, k, anchor, step, points, radius,
                 witnesses):
        self.field, self.ambient, self.k = field, ambient, k
        self.anchor, self.step, self.points = anchor, step, points
        self.radius, self.witnesses = radius, witnesses

    def _items(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def to_json(self) -> str:
        return json.dumps(self._items(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls(**json.loads(text))


def _coords_out(v, den):
    """str(Fraction(x, den)) for each x of the integer vector v."""
    return [str(x // g) if (g := math.gcd(x, den)) == den
            else f"{x // g}/{den // g}" for x in v]


# the form _coords_out writes: an integer, or a fraction with a positive
# denominator
_COORD = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _coords_in(K, coords):
    """The element of K.degree coordinate strings of the form _coords_out
    writes, read into integer numerators; ValueError for anything else
    (exponents, decimal points, whitespace, non-strings), so a coordinate
    costs no more than its digits, which Python's int-string limit bounds."""
    if not (isinstance(coords, list) and len(coords) == K.degree
            and all(isinstance(c, str) and _COORD.fullmatch(c)
                    for c in coords)):
        raise ValueError("coordinates are integer or fraction strings")
    p, q = zip(*(map(int, (c + "/1").split("/")[:2]) for c in coords))
    d = math.lcm(*q)  # "x" is read as "x/1"
    return FieldElement(K, tuple(x * (d // y) for x, y in zip(p, q)), d)


def make_certificate(ambient, head, a, step, offsets, radius, seen):
    """The hit (a, xi) in coordinates on the ambient b, step xi's strings,
    offsets those of xi j for j in the pattern (0 among them, so a is a
    point), and head (K.name, ambient.to_json(), k).  seen, the search's
    table, maps a point's coordinates to its strings and its witness P,
    read off its quotient norm when the point is first met."""
    b, pts = ambient, [tuple(map(operator.add, a, o)) for o in offsets]
    for c in pts:
        if c not in seen:
            v = b.numerators_at(c)
            seen[c] = (_coords_out(v, b.den),
                       primes_at(b, c, _quotient_norm(b, v))[0])
    return Certificate(*head, list(seen[a][0]), list(step),
                       [list(seen[c][0]) for c in pts], radius,
                       [seen[c][1].to_json() for c in pts])


def _dots(rows, w):
    """j . w for the points j = c + (t,) of rows (c, lo, hi), t = lo..hi,
    in coordinate order: along a row it steps by w[-1]."""
    return itertools.chain.from_iterable(
        itertools.accumulate(itertools.repeat(w[-1], hi - lo),
                             initial=sum(map(operator.mul, c + (lo,), w)))
        for c, lo, hi in rows)


_ASCII = bytes.maketrans(b"\0\1", b"01")


def search_constellation(spec: ConstellationSpec):
    """The first spec.max_hits hits (every hit for None or 0), as a list."""
    return list(itertools.islice(iter_constellation(spec),
                                 spec.max_hits or None))


def iter_constellation(spec: ConstellationSpec):
    """Builds the tables, checking every budget, and returns a generator
    of every (a, xi) hit by increasing step, then anchor, Minkowski norm
    (ties by coordinates).  The table has a bit per point x of its ball's
    box, set iff (x) b^{-1} is prime (read off one prime_norm_flags); a
    step's hits are the anchor bits left by ANDs with its shifted tables.
    Points are coordinates on b's basis; the pattern stays as ball rows."""
    K, b, n = spec.K, spec.ambient, spec.K.degree
    # every candidate lies in this ball (|xi j| <= |xi| |j|): budget first
    Q = ball_rows(b, spec.anchor_bound + spec.step_bound * spec.k,
                  ENUMERATION_BUDGET)[0]
    pattern = list(ball_rows(FractionalIdeal.unit_ideal(K), spec.k,
                             ENUMERATION_BUDGET)[2])
    if not pattern:
        raise ValueError("empty pattern")

    def q(c):  # c H / den has squared Minkowski norm q(c) / den^2
        return sum(x * sum(map(operator.mul, row, c)) for x, row in zip(c, Q))

    def norm(c):  # minkowski_norm of c H / den, the same rounded float
        return math.sqrt(q(c) / (b.den * b.den))

    steps = [c + (t,) for c, lo, hi in ball_rows(
        b, spec.step_bound * (1 + 1e-12), ENUMERATION_BUDGET)[2]
        for t in range(lo, hi + 1) if t or any(c)]
    # stable sorts of lists in coordinate order, ties keeping that order:
    # the steps once here, each step's hit anchors as they are found
    steps.sort(key=norm)
    # R holds xi theta^i on b's rows, so xi j is j R for j in O_K = Z[theta]
    R = [[b._coefficients(r) for r in K.mul_rows(b.numerators_at(xi))]
         for xi in steps]
    # |xi j|^2 is convex along a row of the pattern: largest at its ends
    ends = [c + (t,) for c, lo, hi in pattern for t in (lo, hi)]
    reach = [max(q([sum(map(operator.mul, j, col)) for col in zip(*Rx)])
                 for j in ends) for Rx in R]
    radius = spec.anchor_bound * (1 + 1e-12)
    # widened past the roundings of the square root and the sum
    r = (radius + math.sqrt(max(reach, default=0)) / b.den) * (1 + 1e-12)
    _, box, rows = ball_rows(b, r, ENUMERATION_BUDGET)
    stride = [math.prod(2 * m + 1 for m in box[i + 1:]) for i in range(n)]

    def index(c):
        return sum((x + m) * s for x, m, s in zip(c, box, stride))

    flags = bytearray(index(box) + 1)  # flags[i] is bit i
    # N((x) b^{-1}) = |N x| / N b, |x| < r and |x|^2 >= n |N x|^(2/n) (AM-GM)
    prime = prime_norm_flags(K, math.floor(
        Fraction(r) ** n / (n ** (n // 2) * b.norm())))
    for c, lo, hi in rows:
        i = index(c + (lo,))
        flags[i:i + hi - lo + 1] = bytes(map(prime.__getitem__, quotient_norms(
            b, b.numerators_at(c + (lo,)), b.mat[-1], hi - lo + 1)))
    table = int(flags[::-1].translate(_ASCII), 2)
    flags = bytearray(b"0") * (index(box) + 1)
    for c, lo, hi in ball_rows(b, radius, ENUMERATION_BUDGET)[2]:
        flags[index(c + (lo,)):index(c + (hi,)) + 1] = b"1" * (hi - lo + 1)
    prime_anchors = int(flags[::-1], 2) & table  # 0 is in every pattern

    def hits():
        seen, head = {}, (K.name, b.to_json(), spec.k)
        for xi, Rx, top in zip(steps, R, reach):
            live = prime_anchors
            for s in _dots(pattern, [sum(map(operator.mul, r, stride))
                                     for r in Rx]):
                live &= table >> s if s >= 0 else table << -s
                if not live:
                    break
            if not live:
                continue
            # the bits ascend in index, which is coordinate order
            bits = (m.start() for m in re.finditer("1", bin(live)[:1:-1]))
            found = [tuple(i // s % (2 * m + 1) - m
                           for m, s in zip(box, stride)) for i in bits]
            # max |xi j| is read off the row ends, as the rounding is monotone
            certified = math.sqrt(top / (b.den * b.den)) + 1e-9
            offsets = list(zip(*(_dots(pattern, col) for col in zip(*Rx))))
            step = _coords_out(b.numerators_at(xi), b.den)
            for a in sorted(found, key=norm):
                yield make_certificate(b, head, a, step, offsets, certified,
                                       seen)

    return hits()


def verify_certificate(cert: Certificate):
    """Re-derive every claim from scratch.  Returns (ok, diagnoses); a
    value that does not decode to its field object, a k that is not a
    finite number > 0, a radius that is not finite, or a zero step, is
    diagnosed as "schema"; a field that is not a vetted name, a list of
    coefficients included, as "field"."""
    diagnoses = []
    try:
        K = field_by_name(cert.field)
    except Exception:
        return False, ["field"]
    try:
        ambient = FractionalIdeal.from_json(K, cert.ambient)
        a, xi, *given = [_coords_in(K, c)
                         for c in (cert.anchor, cert.step, *cert.points)]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (cert.k, cert.radius)):
            raise TypeError("k and radius are numbers")
        if not (0 < cert.k < math.inf and -math.inf < cert.radius < math.inf):
            raise ValueError("k is finite and > 0, radius finite")
        if not xi:
            raise ValueError("a zero step generates the zero ideal")
    except (TypeError, ValueError, KeyError, OverflowError,
            ZeroDivisionError):
        return False, ["schema"]
    D = math.lcm(ambient.den, a.den, xi.den)  # each a + xi j is over D
    a, xi = ([x * (D // e.den) for x in e.num] for e in (a, xi))
    # the pattern's rows, cut one point past the list: a longer pattern, or
    # a k past the budget, fails "pattern" and its radius is not re-derived
    try:
        rows = ball_rows(FractionalIdeal.unit_ideal(K), cert.k,
                         ENUMERATION_BUDGET)[2]
        pattern = list(itertools.islice(
            (c + (t,) for c, lo, hi in rows for t in range(lo, hi + 1)),
            len(given) + 1))
    except BudgetExceededError:  # taken as one point longer than the list
        pattern = [(0,) * K.degree] * (len(given) + 1)
    R = K.mul_rows(xi)  # xi j is j R over D
    offsets = [tuple(sum(map(operator.mul, j, col)) for col in zip(*R))
               for j in pattern]
    if Counter(given) != Counter(FieldElement(
            K, tuple(map(operator.add, a, o)), D) for o in offsets):
        diagnoses.append("pattern")
    if len(pattern) <= len(given):
        # the points are a + xi j (else "pattern"), so each |pt - a| is
        # below the radius once it is the one make_certificate derives
        try:  # the largest |xi j|, widened by 1e-9
            radius = max(minkowski_norm(FieldElement(K, o, D))
                         for o in offsets) + 1e-9
        except OverflowError:  # |xi j|^2 beyond the float range
            radius = math.inf
        if cert.radius != radius:
            diagnoses.append("metric")
    derived = []
    adj, det = adjugate(R), det_int(R)
    for pt in given:
        c = ambient.coefficients(pt)
        if c is None:
            diagnoses.append("membership")
            continue
        # pt - a lies in (xi), not (xi) b: (pt - a) adj(R) / det(R) in Z^n
        y = [x * (D // pt.den) - z for x, z in zip(pt.num, a)]
        if any(sum(map(operator.mul, y, col)) % det for col in zip(*adj)):
            diagnoses.append("congruence")
        N = _quotient_norm(ambient, ambient.numerators(pt))  # one norm
        if not is_prime_norm(K, N):
            diagnoses.append("primality")
        else:
            derived.append(primes_at(ambient, c, N)[0].to_json())
    # the witnesses are compared when every point passed the prime check
    if len(derived) == len(given) and derived != cert.witnesses:
        diagnoses.append("witness")
    return (not diagnoses), diagnoses


def verify_line(text: str):
    """verify_certificate on one JSON certificate line; a line that is not
    JSON (or holds a number beyond Python's int-string limit), whose keys
    are not exactly the certificate fields, or whose values have the wrong
    type, is diagnosed as "schema"."""
    try:
        obj = json.loads(text)
    except ValueError:  # json.JSONDecodeError is a ValueError
        return False, ["schema"]
    if not isinstance(obj, dict) \
            or set(obj) != set(Certificate.__slots__):
        return False, ["schema"]
    return verify_certificate(Certificate(**obj))


class AlphaScanResult(namedtuple(
        "AlphaScanResult", "masses total maximizer window W count")):
    """masses maps an alpha key to its Fraction mass, an exact sum of
    floats, and total is the sum over every prime counted."""
    __slots__ = ()

    def partition_exact(self) -> bool:
        return sum(self.masses.values(), Fraction(0)) == self.total


def _orbit_range(v, h, units, L):
    """(lo, hi): w = v + t h (t < L) is least in its unit orbit iff lo <= t
    < hi.  u w - w = alpha + t beta, alpha = v M_u - v and beta = h M_u - h
    != 0 (M_u as columns), is lexicographically < 0 on a half-line of t:
    entry 0 changes sign at its zero, where entry 1 (n = 2) decides."""
    lo, hi = 0, L
    for M in units:
        (a0, a1), (b0, b1) = ([sum(map(operator.mul, x, col)) - y
                               for col, y in zip(M, x)] for x in (v, h))
        if not (a0 or b0):  # entry 1 decides every t
            a0, a1, b0, b1 = a1, 0, b1, 0
        if b0 > 0:  # from the least t with a0 + t b0 >= 0 on
            t = -(a0 // b0)
            lo = max(lo, t + (a0 + t * b0 == 0 and a1 + t * b1 < 0))
        elif b0 < 0:  # up to the greatest such t
            t = a0 // -b0
            hi = min(hi, t + 1 - (a0 + t * b0 == 0 and a1 + t * b1 < 0))
        elif a0 < 0:
            hi = lo
    return lo, hi


def alpha_scan(cfg: SieveConfig, window) -> AlphaScanResult:
    """Bin the Lambda_{K,R}^2 masses of the primes P of b^{-1}'s class, N P
    in the window and prime to W, by the residue alpha in (W G) cap b of
    P b's canonical generator (principal_generator's: least in its unit
    orbit), read off b's ball by rows cut to those least points
    (_orbit_range) and one prime_norm_flags; every norm that
    sieve._is_small rejects has Lambda = phi(0).  Masses are exact integer
    sums, so the partition identity is exact; see the README."""
    (lo, hi), K, b, W = window, cfg.K, cfg.ambient, cfg.W
    check_budget("window top", hi, ENUMERATION_BUDGET)
    # u w = w M_u; +-1 cannot lower w, whose first nonzero entry is < 0
    units = [list(zip(*K.mul_rows(u.num))) for u in _generators(
        FractionalIdeal.unit_ideal(K)) if any(u.num[1:])]
    n, top, h = K.degree, max(hi, 0), b.mat[-1]
    # n <= 2, |x|^2 = n |N x|^(2/n); widened past the float root, unbudgeted
    r = math.sqrt(n * (top * b.norm()) ** (2 // n)) * (1 + 1e-9)
    prime = prime_norm_flags(K, top)
    for p in factorint(W):
        prime[::p] = bytes(top // p + 1)
    below = min(max(lo, 0), top + 1)
    prime[:below] = bytes(below)
    logR, phi = _log_level(cfg.R), cfg.phi
    cut = bisect.bisect(range(1, top + 1), False,  # _is_small is monotone
                        key=lambda N: not _is_small(N, logR, phi)) + 1
    acc, count, den = {}, 0, 1 << 2148  # a float is an int over 2^e, e <= 1074

    def square(lam):  # lam^2 as an integer over den
        a, d = lam.as_integer_ratio()
        return a * a * (den // (d * d))

    heavy = square(_lambda_cached((), logR, phi))  # each norm from cut on
    for c, t0, t1 in ball_rows(b, r, math.inf)[2]:
        if c > (0,) * len(c):  # -1 is a unit: an orbit's least is c < 0
            continue
        t1 = t1 if any(c) else -1
        v = b.numerators_at(c + (t0,))
        s, e = _orbit_range(v, h, units, t1 - t0 + 1)
        # |x|^2 < r^2 gives N < top (1 + 1e-9)^2 < top + 1 (top <= 10^7):
        # every norm indexes prime, and compress keeps the primes in C
        norms = list(quotient_norms(
            b, [x + s * y for x, y in zip(v, h)], h, e - s))
        flags, t0 = bytes(map(prime.__getitem__, norms)), t0 + s
        head = tuple(x + W * ((W - 2 * x) // (2 * W)) for x in c)
        if norms and min(norms) >= cut:  # heavy at all: k primes per class
            hits = ((j, k) for j in range(W) if (k := flags[j::W].count(1)))
        else:
            hits = zip(itertools.compress(range(e - s), flags),
                       itertools.repeat(1))
        for j, k in hits:
            t, N = t0 + j, norms[j]
            red = head + (t + W * ((W - 2 * t) // (2 * W)),)
            acc[red] = acc.get(red, 0) + k * (heavy if N >= cut else square(
                lambda_of_norms((N,), cfg.R, phi)))
            count += k
    masses = {tuple(_coords_out(b.numerators_at(r), b.den)):
              Fraction(m, den) for r, m in acc.items()}
    if not masses:
        raise ValueError("no primes of the required class in the window")
    maximizer = max(sorted(masses), key=lambda k: masses[k])
    total = Fraction(sum(acc.values()), den)
    return AlphaScanResult(masses, total, maximizer, (lo, hi), W, count)
