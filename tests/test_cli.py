import argparse
import collections
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from idealsieve import cli, constellation, correlation, ideals, sieve
from idealsieve.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                            EXIT_VERIFY, main, read_config)
from idealsieve.constellation import (Certificate, ConstellationSpec,
                                      make_certificate, search_constellation)
from idealsieve.ideals import (FractionalIdeal, PrimeIdeal,
                               enumerate_prime_ideals, factor_rational_prime,
                               mobius)
from idealsieve.numberfield import FIELDS, make_field
from oracles import search_oracle


def run(argv):
    return main(argv)


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------- basics

def test_primes_report(tmp_path):
    out = tmp_path / "p.jsonl"
    assert run(["--output", str(out), "primes", "--field", "Q(i)",
                "--bound", "30"]) == EXIT_OK
    recs = read_lines(out)
    K = make_field("Q(i)")
    assert [r["norm"] for r in recs] \
        == [P.norm() for P in enumerate_prime_ideals(K, 30)]
    assert all(r["op"] == "prime" for r in recs)


def test_mobius_report(tmp_path):
    out = tmp_path / "m.jsonl"
    assert run(["--output", str(out), "mobius", "--bound", "10"]) == EXIT_OK
    mus = {r["m"]: r["mu"] for r in read_lines(out)}
    assert mus == {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
                   9: 0, 10: 1}


def test_mobius_reads_the_integer_sieve(tmp_path, monkeypatch):
    # mu((m)) comes off the sieve over the rational primes: no ideal (m)
    # is built and no divisor of one is read
    K = make_field("Q(zeta5)")
    want = [mobius(FractionalIdeal.principal(K, K.element(m)))
            for m in range(1, 61)]
    monkeypatch.setattr(ideals, "prime_divisors", _forbidden)
    out = tmp_path / "m.jsonl"
    assert run(["--output", str(out), "mobius", "--field", "Q(zeta5)",
                "--bound", "60"]) == EXIT_OK
    assert [r["mu"] for r in read_lines(out)] == want


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden call")


def test_lambda_csv_mirror(tmp_path):
    out = tmp_path / "l.jsonl"
    csv = tmp_path / "l.csv"
    assert run(["--output", str(out), "--csv", str(csv), "lambda",
                "--bound", "20", "--R", "10"]) == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,empirical,predicted,ratio"
    assert len(lines) - 1 == len(read_lines(out))


# The CSV mirror of each command that writes one, with the sha256 of the
# CSV: the mirror is read back off the report lines, and json keeps every
# float's repr, so the CSV carries the report's exact values.
_CSV_MIRRORS = [
    (["lambda", "--field", "Q(i)", "--bound", "200", "--R", "30"],
     "ced4c16af2510668dab539b7e6a08d62228ef098f1f0b58937dd129cd6a78a17"),
    (["singular-series", "--s", "1", "--R", "100", "1000", "4999.5"],
     "246c5dc648e5cf296b57d517d268b3ea0d8a7cca2d0331a6412ab0a08dddbfbe"),
    (["correlate", "--field", "Q", "--lam", "5"],
     "f1aef72b611e2a22755c4f1fb5dc7e0a1a82c23f7309632611c79d51f3723947"),
]


@pytest.mark.parametrize("argv, digest", _CSV_MIRRORS,
                         ids=["lambda", "singular-series", "correlate"])
def test_csv_mirror_hashes_are_pinned(tmp_path, argv, digest):
    csv = tmp_path / "mirror.csv"
    assert run(["--output", str(tmp_path / "report.jsonl"), "--csv",
                str(csv)] + argv) == EXIT_OK
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def test_empty_report_is_one_newline(tmp_path):
    out = tmp_path / "p.jsonl"
    assert run(["--output", str(out), "primes", "--bound", "1"]) == EXIT_OK
    assert out.read_bytes() == b"\n"


@pytest.mark.parametrize("argv", [
    # the first --R is within budget: its line must not be written alone
    ["singular-series", "--R", "100", "1e300"],
    ["primes", "--bound", "20000000"],
    # the search's budgets are checked before its first hit is yielded
    ["search", "--field", "Q(i)", "--anchor-bound", "100000"],
])
def test_budget_error_leaves_no_report(tmp_path, argv):
    out = tmp_path / "f"
    assert run(["--output", str(out)] + argv) == EXIT_BUDGET
    assert not out.exists()


def test_singular_series_refuses_on_its_arguments_first(tmp_path, capsys,
                                                        monkeypatch):
    # R's budget and the main term are read off K, s, W and R: no form is
    # built before a run that fails either check exits
    monkeypatch.setattr(cli, "LinearFormSystem", _forbidden)
    out = tmp_path / "f"
    assert run(["--output", str(out), "singular-series", "--s", "1200"]) \
        == EXIT_USAGE
    assert capsys.readouterr().err == "error: the main term at --s 1200 " \
        "--W 6 --R 100.0 is past the float range\n"
    assert not out.exists()
    # the first R that fails either check decides, as when the forms came
    # first: its budget's exit 3, else its main term's exit 2
    for R, code in ((["1e300", "100"], EXIT_BUDGET),
                    (["100", "1e300"], EXIT_USAGE)):
        assert run(["--output", str(out), "singular-series", "--s", "1200",
                    "--R", *R]) == code
        assert ("budget exceeded" in capsys.readouterr().err) \
            == (code == EXIT_BUDGET)
        assert not out.exists()


@pytest.mark.parametrize("csv, exists", [
    ("f", False), (os.path.join("d", "..", "f"), False), ("f", True),
    (os.path.join("d", "..", "f"), True), ("link", True)])
def test_output_and_csv_naming_one_file_is_usage_error(tmp_path, capsys,
                                                       csv, exists):
    # refused before either file is opened: a new file is not made, and an
    # existing one, also through a hard link, keeps its bytes
    (tmp_path / "d").mkdir()
    out = tmp_path / "f"
    if exists:
        out.write_text("kept\n")
        os.link(out, tmp_path / "link")
    assert run(["--output", str(out), "--csv", str(tmp_path / csv),
                "lambda", "--bound", "30"]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: --output and --csv name one file: {tmp_path / csv}\n"
    if exists:
        assert out.read_text() == "kept\n"
    else:
        assert not out.exists()


def test_one_file_for_output_and_csv_is_fine_without_a_csv(tmp_path):
    # primes writes no CSV, so --csv names no file it opens
    out = tmp_path / "f"
    assert run(["--output", str(out), "--csv", str(out), "primes",
                "--bound", "5"]) == EXIT_OK
    assert [r["p"] for r in read_lines(out)] == [2, 3, 5]


@pytest.mark.parametrize("path", ["f", os.path.join("d", "..", "f")])
@pytest.mark.parametrize("command", ["verify", "config"])
def test_output_naming_an_input_file_is_usage_error(tmp_path, capsys, path,
                                                    command):
    # refused before the report is opened: the certificates and the
    # config keep their bytes
    (tmp_path / "d").mkdir()
    src = tmp_path / "f"
    if command == "verify":
        assert run(["--output", str(src), "search", "--anchor-bound", "12",
                    "--step-bound", "6.5", "--max-hits", "2"]) == EXIT_OK
        argv = ["--output", str(tmp_path / path), "verify", str(src)]
        other = "the certificate"
    else:
        src.write_text("bound = 7\n")
        argv = ["--config", str(src), "--output", str(tmp_path / path),
                "primes"]
        other = "--config"
    kept = src.read_bytes()
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: --output and {other} name one file: {src}\n"
    assert src.read_bytes() == kept


@pytest.mark.parametrize("argv", [["--s", "40", "--R", "1.0000001"],
                                  ["--s", "200", "--R", "10"]])
def test_main_term_past_float_range_is_usage_error(tmp_path, capsys, argv):
    # (c_phi W^n / (phi_K(W) log R Res zeta_K))^s is past 1.8e308
    out = tmp_path / "f"
    assert run(["--output", str(out), "singular-series"] + argv) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--s {argv[1]} " in err \
        and "past the float range" in err
    assert not out.exists()


def _peak_rss_kb(argv):
    """The peak RSS, in kB, of a fresh interpreter that runs the CLI on
    argv with the report sent to os.devnull.  VmHWM, not ru_maxrss: Linux
    carries the ru_maxrss of this large test process over the child's
    exec."""
    code = ("import os, sys\n"
            "from idealsieve.cli import main\n"
            "assert main(['--output', os.devnull] + sys.argv[1:]) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(fh.read().split('VmHWM:')[1].split()[0])\n")
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


_PEAK_RSS = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads the peak RSS from /proc/self/status")


@_PEAK_RSS
def test_mobius_report_streams_in_bounded_memory():
    # 200,000 report lines held at once took 67 MB, written one at a time
    # under 20 MB
    assert _peak_rss_kb(["mobius", "--field", "Q", "--bound", "200000"]) \
        < 40 * 1024


@_PEAK_RSS
def test_search_report_streams_in_bounded_memory():
    # 83,200 certificates held in a list took 85 MB; yielded and written
    # as they are found, under 20 MB
    assert _peak_rss_kb(["search", "--field", "Q(zeta5)", "--anchor-bound",
                         "6", "--step-bound", "4", "--max-hits", "0"]) \
        < 40 * 1024


def test_search_max_hits_makes_only_its_certificates(tmp_path, monkeypatch):
    # the hit limit is taken at the caller: the search stops at the first
    # hit, though this window holds more
    calls = []

    def counted(*args):
        calls.append(args)
        return make_certificate(*args)

    monkeypatch.setattr(constellation, "make_certificate", counted)
    argv = ["search", "--field", "Q", "--anchor-bound", "11.5",
            "--step-bound", "6.5", "--max-hits"]
    out = tmp_path / "c.jsonl"
    assert run(["--output", str(out)] + argv + ["1"]) == EXIT_OK
    (first,) = out.read_text().splitlines()
    assert len(calls) == 1
    assert run(["--output", str(out)] + argv + ["0"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) > 1
    assert len(calls) == 1 + len(lines)
    assert lines[0] == first


def test_cphi_subcommand(tmp_path):
    out = tmp_path / "c.jsonl"
    assert run(["--output", str(out), "cphi"]) == EXIT_OK
    (rec,) = read_lines(out)
    assert rec["empirical"] == pytest.approx(59.7399608, rel=1e-5)


def test_residue_subcommand(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["--output", str(out), "residue", "--x", "17",
                "--N", "20"]) == EXIT_OK
    (rec,) = read_lines(out)
    assert rec["reduced"] == ["-3"]
    assert rec["shift"] == ["20"]


def test_singular_series_subcommand(tmp_path):
    out = tmp_path / "s.jsonl"
    assert run(["--output", str(out), "singular-series", "--s", "1",
                "--R", "20", "--W", "6"]) == EXIT_OK
    (rec,) = read_lines(out)
    assert rec["empirical"] > 0
    assert rec["predicted"] > 0


# ---------------------------------------------------------------- verify flow

def _write_certs(tmp_path):
    certs = tmp_path / "certs.jsonl"
    assert run(["--output", str(certs), "search", "--anchor-bound", "12",
                "--step-bound", "6.5", "--max-hits", "3"]) == EXIT_OK
    return certs


def test_search_then_verify_ok(tmp_path):
    certs = _write_certs(tmp_path)
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(certs)]) == EXIT_OK
    assert all(r["ok"] for r in read_lines(out))


def test_verify_tampered_exit_code(tmp_path):
    certs = _write_certs(tmp_path)
    lines = certs.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["radius"] = 0.01
    lines[0] = json.dumps(rec, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == EXIT_VERIFY
    recs = read_lines(out)
    assert not recs[0]["ok"] and "metric" in recs[0]["diagnoses"]
    assert all(r["ok"] for r in recs[1:])


@pytest.mark.parametrize("edits, code", [
    ({0: {"anchor": 5}}, EXIT_USAGE),
    ({0: {"radius": 0.01}}, EXIT_VERIFY),
    ({0: {"anchor": 5}, 1: {"radius": 0.01}}, EXIT_VERIFY)])
def test_verify_exit_code_by_diagnosis(tmp_path, edits, code):
    # 1 only when a well-formed certificate fails; malformed lines alone
    # ("schema") are a usage error
    certs = _write_certs(tmp_path)
    lines = certs.read_text().splitlines()
    for i, edit in edits.items():
        lines[i] = json.dumps(dict(json.loads(lines[i]), **edit))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == code
    recs = read_lines(out)
    assert [r["ok"] for r in recs] == [i not in edits
                                      for i in range(len(lines))]


def test_verify_non_json_line_is_schema(tmp_path):
    # a line that is not JSON is diagnosed on its own; the certificates
    # around it are still verified and reported
    lines = _write_certs(tmp_path).read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], "not json", lines[1]]) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == EXIT_USAGE
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["schema"]), (True, [])]


@pytest.mark.parametrize("key, value", [
    ("k", math.inf), ("k", math.nan), ("k", 0.0), ("radius", math.inf),
    ("radius", math.nan)])
def test_verify_non_finite_k_or_radius_is_schema(tmp_path, key, value):
    # k is a finite number > 0 and radius a finite number; Infinity used
    # to exit 4 (k) or pass as ok (radius), NaN to exit 2 with no verdicts
    lines = _write_certs(tmp_path).read_text().splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), **{key: value}))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == EXIT_USAGE
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["schema"]), (True, [])]


@pytest.mark.parametrize("field", [[1, 0, 1], [1] * 9])
def test_verify_reads_the_field_by_name_only(tmp_path, field):
    # a list of coefficients is no field name, on the vetted list or off
    # it: it used to verify as Q(i), or to import sympy to be rejected.  A
    # fresh interpreter, because this test process has sympy loaded
    lines = _write_certs(tmp_path).read_text().splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), field=field))
    bad, out = tmp_path / "bad.jsonl", tmp_path / "v.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = ("import sys\n"
            "from idealsieve.cli import main\n"
            "print(main(sys.argv[1:]), 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, "--output", str(out),
                           "verify", str(bad)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_VERIFY), "False"]
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["field"]), (True, [])]


def test_verify_rederives_radius(tmp_path):
    # the radius is the one make_certificate derives: a larger one is a
    # "metric" failure too
    lines = _write_certs(tmp_path).read_text().splitlines()
    rec = json.loads(lines[1])
    lines[1] = json.dumps(dict(rec, radius=rec["radius"] + 1.0))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == EXIT_VERIFY
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["metric"]), (True, [])]


@pytest.mark.parametrize("digits", ['"' + "1" * 5000 + '"', "1" * 5000],
                         ids=["string", "number"])
def test_verify_huge_coordinate_is_schema(tmp_path, digits):
    # 5,000 digits exceed Python's int-string limit, as a string or as a
    # JSON number: the line is "schema" and the lines around it are
    # verified
    lines = _write_certs(tmp_path).read_text().splitlines()
    anchor = json.loads(lines[1])["anchor"]
    lines[1] = lines[1].replace(json.dumps(anchor),
                                "[" + ", ".join([digits] * len(anchor)) + "]")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(bad)]) == EXIT_USAGE
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["schema"]), (True, [])]


def test_verify_prime_point_beyond_factor_budget(tmp_path):
    # the one point of this pattern (k 0.5) is the prime 10^18 + 3, past
    # factor_ideal's 10^15 norm budget: the verifier reads its witness off
    # the norm, as the primality test does, so it verifies
    p = 10**18 + 3
    cert = {"field": "Q", "ambient": {"hnf": [[1]], "den": 1}, "k": 0.5,
            "anchor": [str(p)], "step": ["2"], "points": [[str(p)]],
            "radius": 1e-9, "witnesses": [{"p": p, "g": [0, 1], "e": 1,
                                           "f": 1}]}
    certs = tmp_path / "big.jsonl"
    certs.write_text(json.dumps(cert) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(certs)]) == EXIT_OK
    assert read_lines(out) == [{"op": "verify", "ok": True, "diagnoses": []}]


def test_verify_over_budget_pattern_is_diagnosed(tmp_path):
    # a k whose ball box is past the enumeration budget lists no pattern:
    # that certificate fails "pattern", and the ones around it are still
    # verified
    lines = list(_fuzz_certificates())
    lines[1] = json.dumps(dict(json.loads(lines[1]), k=1e300))
    certs = tmp_path / "c.jsonl"
    certs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "v.jsonl"
    assert run(["--output", str(out), "verify", str(certs)]) == EXIT_VERIFY
    assert [(r["ok"], r["diagnoses"]) for r in read_lines(out)] == [
        (True, []), (False, ["pattern"]), (True, [])]


@functools.lru_cache(maxsize=None)
def _fuzz_certificates():
    QI = make_field("Q(i)")
    spec = ConstellationSpec(QI, FractionalIdeal.unit_ideal(QI), 1.5, 6.5,
                             2.1, max_hits=3)
    return tuple(c.to_json() for c in search_constellation(spec))


def _value_paths(obj, path=()):
    """Every path to a value inside a JSON object, containers included."""
    if path:
        yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _value_paths(value, path + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    obj = obj.copy()
    obj[path[0]] = _replace(obj[path[0]], path[1:], value)
    return obj


# numbers are small, or large enough that a pattern box fails its budget
# at once: a finite k of a few million would make the verifier enumerate
# millions of pattern points
_FUZZ_VALUES = (
    st.none() | st.booleans() | st.integers(-50, 50)
    | st.sampled_from([2**64, -2**64, 10**400])
    | st.floats(-50, 50)
    | st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 5e-324])
    | st.text(max_size=4) | st.lists(st.integers(-3, 3), max_size=3)
    | st.just({}))

# a zero or negative den; a lattice that is not in HNF, or is singular
_FUZZ_AMBIENTS = [(("ambient", "den"), d) for d in (0, -1, -2)] + [
    (("ambient", "hnf"), h) for h in (
        [[1, 5], [0, 2]], [[2, 0], [1, 1]], [[1, 0], [0, 0]],
        [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[1, 0], [0, -1]])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_fuzz_never_internal_error(data):
    # one value of the middle certificate of three is mutated; verify never
    # fails internally, and when it exits 0, 1 or 2 it writes one verdict
    # per line, with 1 only for a failed well-formed certificate
    lines = list(_fuzz_certificates())
    obj = json.loads(lines[1])
    if data.draw(st.booleans(), label="ambient special"):
        path, value = data.draw(st.sampled_from(_FUZZ_AMBIENTS),
                                label="mutation")
    else:
        path = data.draw(st.sampled_from(sorted(_value_paths(obj), key=str)),
                         label="path")
        value = data.draw(_FUZZ_VALUES, label="value")
    lines[1] = json.dumps(_replace(obj, path, value))
    with tempfile.TemporaryDirectory() as tmp:
        certs, out = os.path.join(tmp, "c.jsonl"), os.path.join(tmp, "v")
        with open(certs, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = run(["--output", out, "verify", certs])
        assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE)
        with open(out) as fh:
            recs = [json.loads(line) for line in fh]
    assert len(recs) == 3 and recs[0]["ok"] and recs[2]["ok"]
    mid = recs[1]
    assert code == (EXIT_OK if mid["ok"] else EXIT_USAGE
                    if mid["diagnoses"] == ["schema"] else EXIT_VERIFY)


# ---------------------------------------------------------------- argv fuzz

_FIELD_NAMES = ["Q", "Q(i)", "Q(sqrt2)", "Q(sqrt-2)", "Q(sqrt-3)",
                "Q(sqrt5)", "Q(sqrt-5)", "Q(zeta5)", "Q(sqrt7)", ""]


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _tokens(values, lo, hi):
    return st.lists(values, min_size=lo, max_size=hi).map(" ".join)


# a size whose budget is checked before any work
_HUGE = st.just("1000000")
# Each command's flags, with values mostly in range and small enough that
# every mix of them runs in well under a second on every field.  Flags in
# _COSTLY_DEFAULTS are never left out: their defaults are too large for a
# quick run.
_FUZZ_FLAGS = {
    "primes": {"--bound": _ints(-2, 30)},
    "mobius": {"--bound": _ints(-2, 30)},
    "lambda": {"--bound": _ints(-2, 30), "--R": _floats(1.01, 40)},
    "cphi": {},
    "correlate": {"--s": _ints(1, 3), "--m": _ints(1, 3),
                  "--lam": _floats(0.5, 4)},
    "singular-series": {"--s": _ints(1, 3), "--W": _ints(-2, 12),
                        "--R": _tokens(_floats(1.01, 60), 1, 2)},
    "autocorr": {"--N": _ints(1, 4) | _HUGE, "--s": _ints(1, 3),
                 "--w": _ints(-2, 4), "--y": _tokens(_ints(-3, 3), 1, 3)},
    "hypergraph": {"--N": _ints(1, 4) | _HUGE, "--k": _floats(0.5, 2.5),
                   "--w": _ints(-2, 4)},
    "search": {"--k": _floats(0.5, 2.5), "--anchor-bound": _floats(0.5, 8),
               "--step-bound": _floats(0.5, 3), "--max-hits": _ints(0, 3)},
    "alpha-scan": {"--w": _ints(-2, 4), "--R": _floats(1.01, 60),
                   "--window": _tokens(_ints(-5, 60), 2, 2)},
    "residue": {"--x": _ints(-50, 50), "--N": _ints(1, 12)},
    "verify": {},
}
_COSTLY_DEFAULTS = {("correlate", "--lam"), ("autocorr", "--N"),
                    ("hypergraph", "--N"), ("search", "--anchor-bound"),
                    ("search", "--step-bound"), ("alpha-scan", "--window")}
# values of the wrong type or out of range: none parses to a large number
_BAD_TOKENS = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "-0", "0", "-1", "-3", "", "abc",
    "0x1f", "1_0", "\u0663", "+2", " 3 ", "2.5", "1e-300", "5e-324", "-",
    "3 4", "true", "null", "[1, 2]", "{}"])
_JUNK_TOKENS = st.sampled_from(["--bogus", "-x", "extra", "--field", "--",
                                "-h", "--R", "--N"])
_JUNK_LINES = st.sampled_from([
    "no equals sign", "= 3", "unknown = 1", "# a comment", "",
    "help =", "field = Q(i)  # trailing", "seed = x", "workers = 2 3"])
_MULTI = {"--R", "--y", "--window"}  # a list-valued flag on some command


def _fuzz_pairs(data, command, tmp):
    """In-range (flag, value) pairs: the global ones, then the command's.
    --output is always given, mostly a file in tmp."""
    out = data.draw(st.sampled_from(
        [os.path.join(tmp, "out")] * 4
        + [tmp, "", os.path.join(tmp, "missing", "out")]), label="output")
    head = [("--output", out)]
    for flag, values in (("--seed", _ints(-5, 5)),
                         ("--workers", _ints(-2, 4))):
        if data.draw(st.booleans(), label=f"{flag} given"):
            head.append((flag, data.draw(values, label=flag)))
    tail = []
    if data.draw(st.booleans(), label="--field given"):
        tail.append(("--field", data.draw(st.sampled_from(_FIELD_NAMES),
                                          label="--field")))
    for flag, values in _FUZZ_FLAGS[command].items():
        if (command, flag) in _COSTLY_DEFAULTS \
                or data.draw(st.booleans(), label=f"{flag} given"):
            tail.append((flag, data.draw(values, label=flag)))
    return head, tail


def _flatten(pairs):
    return [tok for flag, value in pairs
            for tok in [flag] + (value.split() if flag in _MULTI
                                 else [value])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_argv_and_config_fuzz_exit_codes(data):
    # in-range argv, then up to two mutations: a value of the wrong type or
    # out of range, a token dropped or a junk token inserted; some flags
    # move to a config file, with junk lines.  The exit code is 0, 1, 2 or
    # 3, never 4, and 1 only from verify.
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)), label="command")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a stray relative path lands in the scratch dir
        try:
            head, tail = _fuzz_pairs(data, command, tmp)
            mutations = data.draw(st.lists(st.sampled_from(
                ["value", "drop", "insert"]), max_size=2), label="mutations")
            for _ in range(mutations.count("value")):
                i = data.draw(st.integers(0, len(head) + len(tail) - 1),
                              label="value at")
                pairs = head if i < len(head) else tail
                j = i if i < len(head) else i - len(head)
                pairs[j] = (pairs[j][0], data.draw(_BAD_TOKENS, label="bad"))
            if data.draw(st.booleans(), label="config"):
                moved = data.draw(st.lists(st.sampled_from(head + tail),
                                           unique=True), label="moved")
                head = [p for p in head if p not in moved]
                tail = [p for p in tail if p not in moved]
                lines = [f"{flag[2:].replace('-', '_')} = {value}"
                         for flag, value in moved]
                lines += data.draw(st.lists(_JUNK_LINES, max_size=2),
                                   label="junk lines")
                config = os.path.join(tmp, "c.cfg")
                with open(config, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                head.append(("--config", config))
            argv = _flatten(head) + [command] + _flatten(tail)
            if command == "verify":
                certs = list(_fuzz_certificates())
                if data.draw(st.booleans(), label="tampered"):
                    certs[0] = json.dumps(dict(json.loads(certs[0]),
                                               radius=0.01))
                path = os.path.join(tmp, "c.jsonl")
                with open(path, "w") as fh:
                    fh.write("\n".join(certs) + "\n")
                argv.append(data.draw(st.sampled_from(
                    [path, path, tmp, os.path.join(tmp, "missing")]),
                    label="certificate"))
            for kind in mutations:
                i = data.draw(st.integers(0, len(argv) - 1), label="at")
                if kind == "drop":
                    del argv[i]
                elif kind == "insert":
                    argv.insert(i, data.draw(_JUNK_TOKENS, label="junk"))
            code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_BUDGET)
    assert code != EXIT_VERIFY or command == "verify"


# values drawn by each flag's table type, mostly inside its range
_TABLE_VALUES = {"int": _ints(0, 60), "float": _floats(0.5, 80) | _ints(1, 80),
                 None: st.sampled_from(_FIELD_NAMES + ["out", "primes"])}


def _table_pairs(data, flags, label):
    """(flag, value tokens) pairs off a table of add_argument keywords,
    a flag possibly repeated, each with its nargs of values."""
    pairs = []
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)),
                                   max_size=4), label=label):
        kw = flags[flag]
        count = kw.get("nargs") or 1
        if count == "+":
            count = data.draw(st.integers(1, 3), label=f"{flag} count")
        values = _TABLE_VALUES[getattr(kw.get("type"), "__name__", None)]
        pairs.append((flag, [data.draw(values, label=flag)
                             for _ in range(count)]))
    return pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_table_args_decline_or_equal_argparse(data):
    # argv drawn from the table, with the fuzz test's bad values, dropped
    # tokens and junk tokens: the table path gives None or argparse's own
    # entry and namespace
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
    top = {flag: kw for flag, kw in cli.TOP_FLAGS.items()
           if flag != "--config" or data.draw(st.booleans(), label="config")}
    pairs = [_table_pairs(data, top, "top"),
             _table_pairs(data, {f: kw for f, kw in {
                 **cli._FIELD, **cli.COMMANDS[name][2]}.items()
                 if f.startswith("--")}, "flags")]
    for side in pairs:
        for i in range(data.draw(st.integers(0, len(side)), label="bad")):
            side[i] = (side[i][0], [data.draw(_BAD_TOKENS, label="bad")])
    argv = [tok for flag, values in pairs[0] for tok in [flag, *values]]
    argv += [name] + [tok for flag, values in pairs[1]
                      for tok in [flag, *values]]
    if name == "verify" and data.draw(st.booleans(), label="certificate"):
        argv.append("c.jsonl")
    for kind in data.draw(st.lists(st.sampled_from(["drop", "insert"]),
                                   max_size=2), label="mutations"):
        i = data.draw(st.integers(0, len(argv)), label="at")
        if kind == "insert":
            argv.insert(i, data.draw(_JUNK_TOKENS, label="junk"))
        elif i < len(argv):
            del argv[i]
    got = cli._table_args(argv)
    if got is not None:
        want = cli._parse_args(argv)
        assert got[0] is want[0]
        assert vars(got[1]) == vars(want[1])


def test_table_args_take_the_bench_argv(monkeypatch, tmp_path):
    # the four runs the benchmark times build no argparse parser and read
    # the default bump's c_phi without its quadrature
    def refuse(*args, **kw):
        raise AssertionError("not on a well-formed run")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    monkeypatch.setattr(sieve, "_tanh_sinh", refuse)
    for argv, _ in _SEED0_REPORTS:
        assert run(["--output", str(tmp_path / "r.jsonl")] + argv) == EXIT_OK


# ---------------------------------------------------------------- exit codes

def test_no_subcommand_is_usage_error():
    assert run([]) == EXIT_USAGE


def test_unknown_field_is_usage_error(tmp_path):
    assert run(["primes", "--field", "Q(sqrt7)", "--bound", "10"]) \
        == EXIT_USAGE


def test_search_pattern_excludes_its_sphere(tmp_path):
    # 1 + i has norm exactly 2, so the k = 2 pattern is {0, +-1, +-i}
    out = tmp_path / "c.jsonl"
    assert run(["--output", str(out), "search", "--field", "Q(i)", "--k", "2",
                "--anchor-bound", "25", "--step-bound", "2.5",
                "--max-hits", "1"]) == EXIT_OK
    (cert,) = read_lines(out)
    assert len(cert["points"]) == 5


def test_budget_exhaustion_exit_code():
    assert run(["correlate", "--lam", "20000", "--m", "2"]) == EXIT_BUDGET


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    # a crash must not exit 1, the code of a failed certificate
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "primes",
                        (boom, *cli.COMMANDS["primes"][1:]))
    assert run(["primes"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


_DEGENERATE = [
    ["singular-series", "--R", "1"],
    ["singular-series", "--R", "inf"],
    ["singular-series", "--R", "0.5"],
    ["singular-series", "--R", "nan"],
    ["singular-series", "--R", "100", "1"],
    ["alpha-scan", "--R", "inf"],
    ["lambda", "--R", "1"],
    ["residue", "--N", "0"],
    ["autocorr", "--N", "0"],
    ["autocorr", "--N", "1"],
    ["hypergraph", "--N", "0"],
    ["hypergraph", "--N", "-3"],
    ["search", "--anchor-bound", "inf"],
    ["correlate", "--lam", "inf"],
    ["autocorr", "--s", "0"],
    ["hypergraph", "--k", "0"],
    ["search", "--max-hits", "-1"],
]
_KINDS = [("lambda", "--R", "1"), ("correlate", "--lam", "0"),
          ("correlate", "--m", "0"), ("autocorr", "--N", "1"),
          ("search", "--max-hits", "-1")]


@pytest.mark.parametrize("argv", _DEGENERATE + [
    # each argument kind at NaN, +-inf, its bound and a non-number
    [cmd, flag, value] for cmd, flag, bound in _KINDS
    for value in ("nan", "inf", "-inf", bound, "x")
    if [cmd, flag, value] not in _DEGENERATE
] + [
    ["hypergraph", "--k", "-inf"],
    ["search", "--step-bound", "0"],
    ["search", "--max-hits", "1.5"],
    ["autocorr", "--N", "2.5"],
], ids=",".join)
def test_degenerate_parameter_is_usage_error(argv, capsys):
    # argparse rejects the value before any command runs and names the flag
    assert run(argv) == EXIT_USAGE
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize("window", [("60", "-5"), ("50", "10"),
                                    ("-10", "-1"), ("24", "28"), ("1", "1")],
                         ids=" ".join)
def test_alpha_scan_empty_window_message(window, capsys):
    # negative, inverted and prime-free windows are one usage error, not a
    # math-domain error from the ball's radius
    assert run(["alpha-scan", "--field", "Q(i)", "--window", *window]) \
        == EXIT_USAGE
    assert capsys.readouterr().err \
        == "error: no primes of the required class in the window\n"


@pytest.mark.parametrize("field", ["Q(sqrt2)", "Q(sqrt5)", "Q(zeta5)"])
@pytest.mark.parametrize("window", [("60", "-5"), ("100", "300")],
                         ids=" ".join)
def test_alpha_scan_infinite_unit_group_fails_up_front(field, window,
                                                       capsys):
    # the field is refused whatever the window holds
    assert run(["alpha-scan", "--field", field, "--window", *window]) \
        == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: principal generators require a finite unit group; "
        f"{field} has unit rank 1\n")


def test_help_exits_ok(capsys):
    assert run(["search", "--help"]) == EXIT_OK
    assert "--anchor-bound" in capsys.readouterr().out


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run(["--config", str(cfg), "primes"]) == EXIT_USAGE


# ---------------------------------------------------------------- config files

def test_config_file_values_and_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nbound = 10  # trailing\nfield = Q(i)\n")
    parsed = read_config(cfg)
    assert parsed == {"bound": "10", "field": "Q(i)"}
    out = tmp_path / "p.jsonl"
    assert run(["--config", str(cfg), "--output", str(out),
                "primes"]) == EXIT_OK
    recs = read_lines(out)
    assert recs[0]["params"] == {"field": "Q(i)", "bound": 10}


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bound = 10\n")
    out = tmp_path / "p.jsonl"
    assert run(["--config", str(cfg), "--output", str(out), "primes",
                "--bound", "5"]) == EXIT_OK
    assert all(r["p"] <= 5 for r in read_lines(out))


def test_config_equals_form_and_nargs(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "p.jsonl"
    cfg.write_text(f"output = {out}\nbound = 30\nR = 20 30\n"
                   "not_a_flag = 1\n")
    # --bound=5 beats the file; R names no flag of primes and is ignored
    assert run(["--config", str(cfg), "primes", "--bound=5"]) == EXIT_OK
    assert [r["p"] for r in read_lines(out)] == [2, 3, 5]
    # a list-valued flag takes every token of its line
    assert run(["--config", str(cfg), "singular-series", "--s", "1"]) \
        == EXIT_OK
    assert [r["params"]["R"] for r in read_lines(out)] == [20.0, 30.0]
    assert run(["--config", str(cfg), "singular-series", "--s", "1",
                "--R", "40"]) == EXIT_OK
    assert [r["params"]["R"] for r in read_lines(out)] == [40.0]


def test_config_keys_go_to_their_parser(tmp_path):
    # s is singular-series' --s, not an abbreviation of the top-level
    # --seed, and seed is the top-level --seed; the command line wins
    cfg = tmp_path / "c.cfg"
    cfg.write_text("s = 1\nseed = 3\n")
    (fn, _, _), args = cli._parse_args(["--config", str(cfg),
                                         "singular-series"])
    assert (fn, args.s, args.seed) == (cli.cmd_singular_series, 1, 3)
    _, args = cli._parse_args(["--config", str(cfg), "--seed", "5",
                               "singular-series", "--s", "2"])
    assert (args.s, args.seed) == (2, 5)


def test_config_help_key_is_ignored(tmp_path):
    # help names no flag of the table: the command runs
    cfg = tmp_path / "c.cfg"
    cfg.write_text("help =\nbound = 5\n")
    out = tmp_path / "p.jsonl"
    assert run(["--config", str(cfg), "--output", str(out),
                "primes"]) == EXIT_OK
    assert [r["p"] for r in read_lines(out)] == [2, 3, 5]


def test_size_flags_are_dests_of_their_command():
    # the exit-3 line reads each size flag off the namespace by its dest
    for name, (_, sizes, arguments) in cli.COMMANDS.items():
        parser = argparse.ArgumentParser()
        dests = {parser.add_argument(flag, **kw).dest
                 for flag, kw in arguments.items()}
        assert set(sizes) <= dests, name


@pytest.mark.parametrize("config, parsers", [
    ("", []), ("seed = 3\nbound = 5\n", ["idealsieve", "idealsieve primes"])],
    ids=["argv", "config"])
def test_main_builds_two_parsers(tmp_path, monkeypatch, config, parsers):
    # a well-formed argv is read off the table with no parser; a config
    # file builds the top-level parser and the command's own, no other
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, **kw):
        built.append(kw["prog"])
        init(self, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    head = []
    if config:
        (tmp_path / "c.cfg").write_text(config)
        head = ["--config", str(tmp_path / "c.cfg")]
    assert run(head + ["--output", str(tmp_path / "p.jsonl"), "primes",
                       "--bound", "5"]) == EXIT_OK
    assert built == parsers


def test_hypergraph_every_field(tmp_path):
    out = tmp_path / "h.jsonl"
    assert run(["--output", str(out), "hypergraph", "--field", "Q(i)",
                "--N", "3"]) == EXIT_OK
    (rec,) = read_lines(out)
    assert rec["condition1_sup"] == rec["condition2"] \
        == rec["condition3"] == 1.0
    assert rec["pattern_size"] == 5
    assert run(["hypergraph", "--field", "Q(i)"]) == EXIT_BUDGET


def test_hypergraph_extreme_N(tmp_path, capsys):
    # the trivial table is a view of one 1.0, so N^n floats are never
    # allocated and a huge N reaches the state budget; N = 1 (log R = 0)
    # never evaluates a sieve weight
    assert run(["hypergraph", "--field", "Q(i)", "--N", "1000000"]) \
        == EXIT_BUDGET
    assert run(["hypergraph", "--N", "1"]) == EXIT_OK
    # a one-point pattern has no free variable, so no axis of N residues
    # is built and the conditions are 1.0 at any N numpy can index
    out = tmp_path / "h.jsonl"
    assert run(["--output", str(out), "hypergraph", "--field", "Q",
                "--N", "1000000000000", "--k", "0.5"]) == EXIT_OK
    (rec,) = read_lines(out)
    assert rec["pattern_size"] == 1
    assert rec["condition1_sup"] == rec["condition2"] \
        == rec["condition3"] == 1.0
    # N^n past numpy's array size is a budget error naming --N, before
    # the view of ones is built
    capsys.readouterr()
    for argv in (["--field", "Q(i)", "--N", "10000000000"],
                 ["--field", "Q", "--N", "10000000000000000000000"]):
        assert run(["hypergraph", *argv]) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith(
            f"budget exceeded: --N {argv[3]}, --k 1.5: ")


@pytest.mark.parametrize("argv", [
    # patterns of 2 * 10^6 + 1 and of 591 points: each is enumerated only
    # up to the largest size the state budget admits
    ["hypergraph", "--field", "Q", "--N", "3", "--k", "1000000"],
    ["hypergraph", "--field", "Q(zeta5)", "--N", "101", "--k", "6"],
    # state and sample counts of more than 4300 digits, which int-to-string
    # conversion refuses, named as base^exponent
    ["hypergraph", "--field", "Q", "--N", "1000000", "--k", "500"],
    ["correlate", "--field", "Q", "--s", "1", "--m", "5000", "--lam", "12"],
    # 5 * 10^6 region points: only iroot(budget, m) + 1 are enumerated
    ["correlate", "--field", "Q", "--lam", "5000000"],
    # one report line per m: the bound is checked before the first
    ["mobius", "--bound", "100000000"],
    # the integers below R over Q: two lists of R entries, or an
    # OverflowError (exit 4) past the index range
    ["singular-series", "--R", "1e300"],
    ["singular-series", "--R", "2e7"],
    # an 8 * 10^6-point pattern: every candidate lies in the ball of radius
    # anchor-bound + step-bound * k, whose box of 1.6 * 10^7 is checked
    # before the pattern is enumerated
    ["search", "--field", "Q", "--k", "4000000", "--anchor-bound", "5",
     "--step-bound", "2"],
    # N((5624)) = 5624^4 > 10^15 in Q(zeta5): the factorization budget is
    # checked before the loop, not at m = 5624
    ["mobius", "--field", "Q(zeta5)", "--bound", "5624"],
    # norm bounds and windows past the enumeration budget
    ["primes", "--bound", "10000001"],
    ["lambda", "--bound", "10000001"],
    ["alpha-scan", "--window", "100", "10000001"],
    # N((10^16)) over Q is past the factorization budget of tau_factor
    ["autocorr", "--N", "10", "--y", "0", "10000000000000000"],
    # boxes of 10^300 candidates and more, named in a short line
    ["search", "--field", "Q(i)", "--anchor-bound", "1e300"],
    ["correlate", "--field", "Q(zeta5)", "--lam", "1e300"],
])
def test_budget_checked_before_quadratic_work(argv, capsys):
    start = time.perf_counter()
    assert run(argv) == EXIT_BUDGET
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "budget" in err and len(err) < 300
    assert all(flag in err for flag in _named_sizes(argv))


# the flags that size each command's work, and those that parse as floats
_SIZE_FLAGS = {
    "primes": ["--bound"], "mobius": ["--bound"], "lambda": ["--bound"],
    "correlate": ["--m", "--lam"], "singular-series": ["--s", "--R"],
    "autocorr": ["--N", "--y"], "hypergraph": ["--N", "--k"],
    "search": ["--anchor-bound", "--step-bound", "--k"],
    "alpha-scan": ["--window"]}
_FLOAT_FLAGS = {"--lam", "--R", "--k", "--anchor-bound", "--step-bound"}


def _named_sizes(argv):
    """Each size flag of argv's command, with its value as printed when
    argv gives it: a float's repr, a list's items space-separated."""
    out = []
    for flag in _SIZE_FLAGS[argv[0]]:
        if flag not in argv:
            out.append(flag + " ")
            continue
        i = argv.index(flag) + 1
        values = []
        while i < len(argv) and not argv[i].startswith("--"):
            values.append(str(float(argv[i])) if flag in _FLOAT_FLAGS
                          else argv[i])
            i += 1
        out.append(" ".join([flag] + values))
    return out


def test_mobius_factor_budget_names_bound(tmp_path, capsys):
    # 5623^4 < 10^15 <= 5624^4: the last m whose norm is factored
    assert run(["mobius", "--field", "Q(zeta5)", "--bound", "5624"]) \
        == EXIT_BUDGET
    assert "--bound 5624" in capsys.readouterr().err
    out = tmp_path / "m.jsonl"
    assert run(["--output", str(out), "mobius", "--field", "Q(zeta5)",
                "--bound", "5623"]) == EXIT_OK
    assert read_lines(out)[-1]["m"] == 5623


def test_search_budget_names_its_flags(capsys):
    assert run(["search", "--field", "Q(i)", "--anchor-bound", "5000",
                "--step-bound", "3", "--k", "2"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert all(s in err for s in ("--anchor-bound 5000.0", "--step-bound 3.0",
                                  "--k 2.0", "candidates (budget"))


# ---------------------------------------------------------------- determinism

def test_correlate_worker_count_invariant(tmp_path):
    out1 = tmp_path / "w1.jsonl"
    out8 = tmp_path / "w8.jsonl"
    base = ["correlate", "--field", "Q", "--s", "2", "--m", "2",
            "--lam", "12"]
    assert run(["--workers", "1", "--output", str(out1)] + base) == EXIT_OK
    assert run(["--workers", "8", "--output", str(out8)] + base) == EXIT_OK
    assert out1.read_bytes() == out8.read_bytes()


def test_autocorr_worker_count_invariant(tmp_path):
    out1 = tmp_path / "w1.jsonl"
    out8 = tmp_path / "w8.jsonl"
    base = ["autocorr", "--N", "200", "--s", "2", "--y", "0", "2"]
    assert run(["--workers", "1", "--output", str(out1)] + base) == EXIT_OK
    assert run(["--workers", "8", "--output", str(out8)] + base) == EXIT_OK
    assert out1.read_bytes() == out8.read_bytes()


def test_seed_changes_correlate_forms(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["--seed", "1", "--output", str(a), "correlate"]) == EXIT_OK
    assert run(["--seed", "2", "--output", str(b), "correlate"]) == EXIT_OK
    assert run(["--seed", "1", "--output", str(b), "correlate"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- console script

def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "idealsieve.cli", "mobius",
                           "--bound", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3


def test_cli_does_not_import_numpy_mpmath_scipy_sympy_dataclasses_or_inspect(
        tmp_path):
    # a fresh interpreter, because this test process has them all loaded;
    # sympy is imported only to classify a rejected defining polynomial,
    # numpy only by hypergraph; the record classes are namedtuples and
    # plain classes, so dataclasses (which loads inspect, ast and dis)
    # stays off the start-up path, and traceback (linecache, tokenize) is
    # imported only for an internal error
    certs = str(tmp_path / "certs.jsonl")
    out = str(tmp_path / "out.jsonl")
    runs = [["--output", certs, "search", "--anchor-bound", "12",
             "--step-bound", "6.5", "--max-hits", "3"],
            ["--output", out, "verify", certs],
            ["--output", out, "alpha-scan", "--field", "Q(i)",
             "--window", "100", "300"],
            ["--output", out, "singular-series", "--s", "1", "--R", "20"],
            ["--output", out, "autocorr", "--N", "100"],
            ["--output", out, "primes", "--field", "Q(zeta5)",
             "--bound", "300"],
            ["--output", out, "mobius", "--field", "Q(i)", "--bound", "50"],
            ["--output", out, "lambda", "--field", "Q(i)", "--bound", "50"],
            ["--output", out, "residue", "--field", "Q(i)"],
            ["--output", out, "correlate", "--field", "Q(i)", "--lam", "4"],
            ["--output", out, "cphi"]]
    code = ("import sys\n"
            "import idealsieve.cli as cli\n"
            f"print([cli.main(argv) for argv in {runs!r}])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in\n"
            "             ('numpy', 'mpmath', 'scipy', 'sympy',\n"
            "              'dataclasses', 'inspect', 'traceback')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([EXIT_OK] * len(runs)), "[]"]
    assert read_lines(tmp_path / "out.jsonl")[0]["op"] == "cphi"


# The four seed-0 runs the benchmark times, with the sha256 of each report:
# a change that keeps the reports keeps these values.
_SEED0_REPORTS = [
    (["search", "--field", "Q(i)", "--anchor-bound", "25", "--step-bound",
      "2.5", "--max-hits", "20"],
     "b16efe3a3b07acc9d2bae59ed4498b5c6ab48ff73c43e07f28dd7f82e6766c22"),
    (["alpha-scan", "--field", "Q(i)", "--w", "2", "--window", "100",
      "1200", "--R", "50"],
     "364f036ea1595f3f62d73c173ed4d4a4d6b1019a45c3d943c6ba81140153625a"),
    (["singular-series", "--s", "2", "--R", "5000"],
     "b35604ba108966cd6c94f861cfdfcc96644cb5113e424e76106ba7cf33c4ebee"),
    (["--workers", "2", "autocorr", "--N", "1000", "--s", "2", "--y", "0",
      "2"],
     "4c0c09a525a47d9291995b68035e4503e485aa603e88eabf5adff72541df177b"),
]

# Three searches over anchor balls with many ties of Minkowski norm (units of
# order 4 and 6, and degree 4): their hashes pin the order of a step's hits,
# ties in coordinate order.
_SEARCH_REPORTS = [
    (["search", "--field", "Q(i)", "--k", "2.5", "--anchor-bound", "120",
      "--step-bound", "8", "--max-hits", "40"],
     "5de3e94803e579c71a0ecb44681887517b52f11b0cb20b43b12dcd6bb15946f3"),
    (["search", "--field", "Q(sqrt-3)", "--k", "2.1", "--anchor-bound", "80",
      "--step-bound", "6", "--max-hits", "40"],
     "05224821b053205d99987dea1d5cb5aa663cd162121f89b741e674ad36dd56cd"),
    (["search", "--field", "Q(zeta5)", "--k", "2.1", "--anchor-bound", "12",
      "--step-bound", "4", "--max-hits", "40"],
     "4795859a9139d43a7a078b04204777dbca498953d06bc500f642ae91fea8ee79"),
    # one search over each field that the three above leave out
    (["search", "--field", "Q", "--k", "2.5", "--anchor-bound", "400",
      "--step-bound", "60", "--max-hits", "40"],
     "987332fc6fe5e6db313fabef4156cffd37fadcac3a9d1042cce858cf7ccf7792"),
    (["search", "--field", "Q(sqrt2)", "--k", "2.5", "--anchor-bound", "60",
      "--step-bound", "6", "--max-hits", "40"],
     "e51f456d9a8c431ce9cad8e4fce184740b771a757d3369fb7efb50b40c225607"),
    (["search", "--field", "Q(sqrt-2)", "--k", "2.5", "--anchor-bound", "60",
      "--step-bound", "6", "--max-hits", "40"],
     "f318bebdc052959518a3290e99d2cb94e5cfe7d25b1fb5ccc0f7b312c3880cb0"),
    (["search", "--field", "Q(sqrt5)", "--k", "2.5", "--anchor-bound", "60",
      "--step-bound", "6", "--max-hits", "40"],
     "7ab0ea8d0e3087f81e85d1c129c6f03b430e9756cc512ba993dddaa4c70da125"),
    (["search", "--field", "Q(sqrt-5)", "--k", "2.1", "--anchor-bound",
      "200", "--step-bound", "20", "--max-hits", "40"],
     "9e6b3d533407e326b5b8513205fa611c0952c0df1b5ee7b8cc5a96a424c861d5"),
    # two searches without a hit cap (352 and 2,372 lines), where one point
    # lies in many certificates
    (["search", "--field", "Q(i)", "--anchor-bound", "40", "--step-bound",
      "8", "--max-hits", "0"],
     "f0efae87ff3f75342014c3934d47222cf92cf18845a613f07bc44264904a2bab"),
    (["search", "--field", "Q", "--anchor-bound", "2000", "--step-bound",
      "60", "--max-hits", "0"],
     "06b44c1815f4da3c9dd17745ad0ebd933fe9ff2ec1a896981f40a3486ccea4d9"),
]
_SEARCH_IDS = ["search-ties-qi", "search-ties-qsqrt-3", "search-ties-qzeta5",
               "search-q", "search-qsqrt2", "search-qsqrt-2", "search-qsqrt5",
               "search-qsqrt-5", "search-all-qi", "search-all-q"]


# An auto-correlation whose sieve level R = 2.05 lets the prime 2 into the
# region sieve, so its hash pins the residue rows of b / P b.
_SIEVE_REPORTS = [
    (["autocorr", "--field", "Q", "--w", "1", "--s", "1", "--N", "100000"],
     "9b4c18bd8d2031868de75fa430c9da5c1d16e0f1c718c07aa18dbd0c4598edb9"),
]


@pytest.mark.parametrize("argv, digest",
                         _SEED0_REPORTS + _SEARCH_REPORTS + _SIEVE_REPORTS,
                         ids=["search-qi", "alpha-scan-qi",
                              "singular-series-q", "autocorr-q-w2",
                              *_SEARCH_IDS, "autocorr-sieve-q"])
def test_seed0_report_hashes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("i", [0, 3], ids=["search-qi", "autocorr-q-w2"])
def test_points_build_no_ideal(tmp_path, monkeypatch, i):
    # the search's witnesses and autocorr's tau read the primes of a point
    # off residue rows built from P = (p, g(theta)): no HNF, ideal product,
    # inverse, principal ideal or prime ideal lattice, and the same report
    ideals.residue_rows.cache_clear()
    monkeypatch.setattr(ideals, "hnf", _forbidden)
    for cls, name in ((FractionalIdeal, "__mul__"),
                      (FractionalIdeal, "inverse"),
                      (FractionalIdeal, "principal"), (PrimeIdeal, "ideal")):
        monkeypatch.setattr(cls, name, _forbidden)
    argv, digest = _SEED0_REPORTS[i]
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_search_reads_each_point_once(tmp_path, monkeypatch):
    # search-qi writes 16 certificates with 80 points, 20 of them distinct:
    # each distinct point's quotient norm and witness are read once
    counts = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            counts[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("primes_at", "_quotient_norm"):
        monkeypatch.setattr(constellation, name,
                            counted(getattr(constellation, name)))
    argv, digest = _SEED0_REPORTS[0]
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    certs = read_lines(out)
    assert (len(certs), sum(len(c["points"]) for c in certs)) == (16, 80)
    assert len({tuple(p) for c in certs for p in c["points"]}) == 20
    assert counts == {"primes_at": 20, "_quotient_norm": 20}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_reads_each_point_once(tmp_path, monkeypatch):
    # verify over search-qi's 16 certificates (80 points) builds no
    # principal ideal, and one quotient norm per point gives both its
    # primality and its witness
    certs, out = tmp_path / "certs.jsonl", tmp_path / "v.jsonl"
    assert run(["--output", str(certs)] + _SEED0_REPORTS[0][0]) == EXIT_OK
    calls = []

    def counted(*args):
        calls.append(args)
        return norm(*args)

    norm = ideals._quotient_norm
    for module in (constellation, ideals):
        monkeypatch.setattr(module, "_quotient_norm", counted)
    monkeypatch.setattr(FractionalIdeal, "principal", _forbidden)
    assert run(["--output", str(out), "verify", str(certs)]) == EXIT_OK
    assert len(read_lines(out)) == 16
    assert len(calls) == sum(len(c["points"]) for c in read_lines(certs)) \
        == 80


# primes, mobius and lambda over Q, Q(i) and Q(zeta5), with the sha256 of
# each report as json.dumps(sort_keys=True) wrote its lines: a change to how
# the lines are written that keeps the bytes keeps these values.
_LIST_REPORTS = [
    (["primes", "--field", "Q", "--bound", "20000"],
     "53afe486c24a04f21079a7060e9ed0f338e1d1e9a640c7395b36e3fbb0487b18"),
    (["primes", "--field", "Q(i)", "--bound", "20000"],
     "7fbd6d4e6ebb94523f09cbb5185aa89bed97b8a347506be140b90904ef342d49"),
    (["primes", "--field", "Q(zeta5)", "--bound", "20000"],
     "6928b4f6f086fa59d93e7a06298b4a131b54b79af149742324735a9e2d0b26a3"),
    (["mobius", "--field", "Q", "--bound", "20000"],
     "6d656379f4fed8ee6cc3c5ce86f039028fec5a027045cb86134dd925fd2a8d3d"),
    (["mobius", "--field", "Q(i)", "--bound", "20000"],
     "06110e04a86c37aac4248922c514040bb39f74af8f53d259db9f19b5b9ddd725"),
    (["mobius", "--field", "Q(zeta5)", "--bound", "5000"],
     "b70ca3348c5b01a911ac95b123a3c808731bd21c98d9858b17903c4240a2a04a"),
    (["lambda", "--field", "Q", "--bound", "20000", "--R", "30"],
     "38663e7a3d2b9566cb7bb05a8cc6bcc1806598c1ed38315bb4541e23736c75b7"),
    (["lambda", "--field", "Q(i)", "--bound", "20000", "--R", "30"],
     "b9e4acc89c3ca03efbca5ff8a404db6b78381457b6a034ed738f43326f397d3f"),
    (["lambda", "--field", "Q(zeta5)", "--bound", "20000"],
     "e9b708ee78e78d457fecf9f4f831ea0a6eb9f7fae3ab4961e0f1066097fb6c95"),
]


@pytest.mark.parametrize("argv, digest", _LIST_REPORTS, ids=[
    f"{argv[0]}-{argv[2]}" for argv, _ in _LIST_REPORTS])
def test_list_report_hashes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the searches whose whole reports are verified: every _SEARCH_REPORTS
# entry, and ten certificates over Q(zeta5) whose pattern is the one point 0
_VERIFIED_SEARCHES = dict(zip(_SEARCH_IDS,
                              [argv for argv, _ in _SEARCH_REPORTS]))
_VERIFIED_SEARCHES["search-qzeta5-one-point"] = [
    "search", "--field", "Q(zeta5)", "--anchor-bound", "4", "--step-bound",
    "3"]


def _verify_inputs(tmp_path, name):
    """The certificate file of one pinned verify report."""
    certs = tmp_path / "certs.jsonl"
    if name in _VERIFIED_SEARCHES:
        assert run(["--output", str(certs)] + _VERIFIED_SEARCHES[name]) \
            == EXIT_OK
        return certs
    assert run(["--output", str(certs)] + _SEED0_REPORTS[0][0]) == EXIT_OK
    valid = certs.read_text().splitlines()[0]
    tampered = json.loads(valid)
    tampered["radius"] = 1.0
    tampered["witnesses"][0]["p"] += 4
    certs.write_text("\n".join([valid, json.dumps(tampered, sort_keys=True),
                                '{"field": "Q(i)"']) + "\n")
    return certs


# verify over the 352-line search report (every verdict ok), and over one
# valid, one tampered ("metric", "witness") and one malformed ("schema")
# line, so each of its three verdict shapes is pinned; then over the rest
# of _VERIFIED_SEARCHES, every verdict ok, so each of those reports is one
# line per certificate and its hash pins the count.
_VERIFY_REPORTS = [
    ("search-all-qi", EXIT_OK,
     "50f3a775f931bf47425042d44c31d535365d48ee1b37f1c5d1af8cb403f7297a"),
    ("three-shapes", EXIT_VERIFY,
     "f7ce55c0bf0a0d5c49f61225e443f667a5836127692c8595c86161c52a01831e"),
    ("search-ties-qi", EXIT_OK,
     "f5abed182b4d052bfc8812061058319220861288b9eba85c1115a58e95620d5a"),
    ("search-ties-qsqrt-3", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-ties-qzeta5", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-q", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-qsqrt2", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-qsqrt-2", EXIT_OK,
     "f5abed182b4d052bfc8812061058319220861288b9eba85c1115a58e95620d5a"),
    ("search-qsqrt5", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-qsqrt-5", EXIT_OK,
     "d30807d7aef2d3ee169f26be23cf64d117123ede7318830f413d7db263f4045a"),
    ("search-all-q", EXIT_OK,
     "71cb5883eb623de3fee4af4164901ab75fd1d5f41e3971e9201973969ade51c6"),
    ("search-qzeta5-one-point", EXIT_OK,
     "3705df7d119d582af93455b3263ef89fcf8c4e876b3ed5065ad09d7d05c69be9"),
]


@pytest.mark.parametrize("name, code, digest", _VERIFY_REPORTS,
                         ids=[name for name, _, _ in _VERIFY_REPORTS])
def test_verify_report_hashes_are_pinned(tmp_path, name, code, digest):
    out = tmp_path / "report.jsonl"
    certs = _verify_inputs(tmp_path, name)
    assert run(["--output", str(out), "verify", str(certs)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------- templates

@functools.cache
def _command_templates(field):
    """(sample, template) of each cli._template call that primes, mobius,
    lambda, search and verify make over the field."""
    made, template = [], cli._template

    def recording(sample):
        made.append((sample, template(sample)))
        return made[-1][1]

    cli._template = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out, certs = os.path.join(tmp, "out"), os.path.join(tmp, "certs")
            for argv in (["primes", "--field", field, "--bound", "20"],
                         ["mobius", "--field", field, "--bound", "20"],
                         ["lambda", "--field", field, "--bound", "20"],
                         ["search", "--field", field, "--anchor-bound", "12",
                          "--step-bound", "4", "--max-hits", "2"],
                         ["verify", certs]):
                assert main(["--output", certs if argv[0] == "search"
                             else out] + argv) == EXIT_OK
    finally:
        cli._template = template
    assert len(made) == 7  # the certificate's witness and verify's two ok
    return made


# json's float spellings, the subnormal and the points where repr switches
# to exponent notation among them
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16,
     9999999999999998.0, 1e-5, 0.0001])
# (a value, its JSON text as the lines' writers make it)
_SLOT_VALUES = st.one_of(
    (st.integers() | st.sampled_from([-1, 2**64, -2**64 - 1, 3**99]))
    .map(lambda v: (v, v)),
    _FLOATS.map(lambda v: (v, cli._float(v))),
    st.lists(st.integers(), max_size=4).map(lambda v: (v, cli._ints(v))),
    st.lists(st.from_regex(constellation._COORD, fullmatch=True),
             max_size=4).map(lambda v: (v, cli._strings(v))))


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_templates_write_what_json_dumps_writes(field, data):
    # every line template of primes, mobius, lambda, search (the
    # certificate and its witness) and verify, over each vetted field, with
    # any JSON value in its slots
    for sample, template in _command_templates(field):
        texts = {}

        def fill(obj):
            return {k: fill(v) if isinstance(v, dict) else v if v is not ...
                    else texts.setdefault(k, data.draw(_SLOT_VALUES, k))[0]
                    for k, v in obj.items()}

        want = json.dumps(fill(sample), sort_keys=True)
        assert template % {k: text for k, (_, text) in texts.items()} == want


@functools.cache
def _oracle_certificates(name, k, anchor, step, den, grow):
    """The search oracle's spec and certificates (up to 20) over O_K, or
    (den 2) over the inverse of the first prime above 2, whose coordinates
    are fractions; the bounds are scaled by N(b)^(1/n) times grow."""
    K = make_field(name)
    b = FractionalIdeal.unit_ideal(K)
    if den > 1:
        b = factor_rational_prime(K, 2)[0].ideal().inverse()
    assert b.den == den
    scale = float(b.norm()) ** (1 / K.degree) * grow
    spec = ConstellationSpec(K, b, k, anchor * scale, step * scale, 20)
    return spec, search_oracle(spec)


@pytest.mark.parametrize("name, k, anchor, step", [
    ("Q(i)", 1.5, 12, 3), ("Q(sqrt-3)", 1.5, 40, 6), ("Q(zeta5)", 2.1, 6, 2)])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(den=st.sampled_from([1, 2]), grow=st.sampled_from([1, 1.1, 1.25]),
       radius=_FLOATS)
def test_certificate_lines_are_to_json(name, k, anchor, step, den, grow,
                                       radius):
    # the search's line writer against Certificate.to_json on the search
    # oracle's certificates, at bounds where each field has hits, and on
    # copies whose radius is changed
    spec, certs = _oracle_certificates(name, k, anchor, step, den, grow)
    assert certs
    assert list(cli._certificate_lines(spec, certs)) \
        == [c.to_json() for c in certs]
    copies = [Certificate.from_json(c.to_json()) for c in certs]
    for c in copies:
        c.radius = radius
    assert list(cli._certificate_lines(spec, copies)) \
        == [c.to_json() for c in copies]


def _seed_grid(field, tag):
    """(name, argv) of each templated command over one field; verify reads
    the search's report."""
    return [(f"{command}-{tag}", [command, "--field", field] + rest)
            for command, rest in (
                ("primes", ["--bound", "3000"]),
                ("mobius", ["--bound", "3000"]),
                ("lambda", ["--bound", "3000"]),
                ("search", ["--k", "2.1", "--anchor-bound", "12",
                            "--step-bound", "4", "--max-hits", "40"]))] \
        + [(f"verify-{tag}", ["verify", f"search-{tag}.jsonl"])]


# the four bench argv, then each templated command over Q(i) and Q(zeta5)
_HASH_SEED_GRID = [(f"bench-{i}", argv)
                   for i, (argv, _) in enumerate(_SEED0_REPORTS)] \
    + _seed_grid("Q(i)", "qi") + _seed_grid("Q(zeta5)", "qzeta5")


def _grid_digests():
    """{name: (exit code, sha256 of the report)} of _HASH_SEED_GRID, each
    report written to name.jsonl in the working directory."""
    digests = {}
    for name, argv in _HASH_SEED_GRID:
        code = main(["--output", f"{name}.jsonl"] + argv)
        with open(f"{name}.jsonl", "rb") as fh:
            digests[name] = (code, hashlib.sha256(fh.read()).hexdigest())
    return digests


_SRC = os.path.dirname(os.path.dirname(cli.__file__))


def test_reports_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # one fresh interpreter per PYTHONHASHSEED runs the whole grid: a report
    # that iterated a set or dict of strings would differ between them
    monkeypatch.chdir(tmp_path)
    want = _grid_digests()
    assert all(code == EXIT_OK for code, _ in want.values())
    code = ("import json, sys\n"
            f"sys.path[:0] = {[os.path.dirname(__file__), _SRC]!r}\n"
            "from test_cli import _grid_digests\n"
            "print(json.dumps(_grid_digests()))\n")
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        proc = subprocess.run([sys.executable, "-c", code],
                              cwd=tmp_path / seed, capture_output=True,
                              text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        got = {k: tuple(v) for k, v in json.loads(proc.stdout).items()}
        assert got == want, seed


# singular-series over Q(i), Q(sqrt-5), Q(zeta5) and Q(sqrt5), where the
# pair sum is read off norms, and over Q from R = 2.5, with several s and
# W: a change to either pair sum that keeps the reports keeps these values.
_SERIES_REPORTS = [
    (["singular-series", "--field", "Q(i)", "--R", "100", "1000", "5000"],
     "1538f5ec30d7ddc4bfb6ab245aa4ade28a3f6308554aee78926d7ccaab038c6e"),
    (["singular-series", "--field", "Q(sqrt-5)", "--s", "1", "--W", "1",
      "--R", "30.5", "1000"],
     "c1be04ff6504137f82a4e036ca8be6d7fa4fa05fb3adabc93d70ed540e338cfd"),
    (["singular-series", "--field", "Q(zeta5)", "--s", "3", "--W", "30",
      "--R", "2000"],
     "58e1081ebd17d0eea747cd06873b96fa389d2789c828af1861d36e960e726368"),
    (["singular-series", "--field", "Q(sqrt5)", "--W", "2", "--R", "20000"],
     "69f9f5eca0a5fc1b46531a1745f4e240e7860a6a7ad95aa51664ad6b68c6573e"),
    (["singular-series", "--s", "1", "--W", "1", "--R", "2.5", "37.5",
      "20000"],
     "8a0d132f3a180f220cc63c354dbc4ee574f423c40f9f1da2a477103ababf8b03"),
]


@pytest.mark.parametrize("argv, digest", _SERIES_REPORTS,
                         ids=["qi", "qsqrt-5", "qzeta5", "qsqrt5", "q"])
def test_singular_series_report_hashes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_singular_series_fast_path_lists_no_squarefree_ideals(tmp_path,
                                                              monkeypatch):
    # the CLI's identity forms take the fast path, which sums over norms
    def refuse(*args, **kwargs):
        raise AssertionError("the fast path listed the squarefree ideals")

    monkeypatch.setattr(correlation, "squarefree_ideals", refuse)
    (argv, digest), out = _SERIES_REPORTS[0], tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_singular_series_budget_checked_before_any_array(field, capsys):
    start = time.perf_counter()
    assert run(["singular-series", "--field", field,
                "--R", "20000000"]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1.0
    assert "--R 20000000" in capsys.readouterr().err


# alpha-scan reports at R = 1000 (fractional masses below it) over Q, Q(i)
# and Q(sqrt-5), two windows and w in {1, 3}, and two over Q(sqrt-3), whose
# six units test more of the orbit: the masses are exact sums however they
# are accumulated, so these hashes stay.
_ALPHA_REPORTS = [
    ("Q", (2, 400), 1,
     "91b17cf94e3814de8feedbe85665c8e0540f9b9941f0dbc610c608b73bac1c60"),
    ("Q", (2, 400), 3,
     "d5a5579a83f1a18c8d644878022643710e5f8938907b97850b1c459b416b0a43"),
    ("Q", (300, 5000), 1,
     "de6ef31b61f3e1b4642451245589d8561fcba2d473ec2687ce5218221f28f64e"),
    ("Q", (300, 5000), 3,
     "4a6b2948028b3ed639dbf43cccb8b19a7646ec855ce157d494a308ccb0c84cef"),
    ("Q(i)", (2, 400), 1,
     "0837065d00bbe44020250c932b23bbfaf570ed06fb0d325e8065073dd3e27129"),
    ("Q(i)", (2, 400), 3,
     "aad9de2a7bfacbc950c23ac16285ed4788bf4e4e218f723a3093c82c1ef5dd6a"),
    ("Q(i)", (300, 5000), 1,
     "7c08ed49c098f82237c25b7b51354213eca4c8a4fcde62cac2342c54487dfb21"),
    ("Q(i)", (300, 5000), 3,
     "6fd3120abae7e481f0cf30b2eba16357d82a0eb19d561fd8a47e19cf275755df"),
    ("Q(sqrt-5)", (2, 400), 1,
     "aea5ee0261cb46ff8970a2ffe103684942ce5228a2c30e67bfdaa4b7f4d3924e"),
    ("Q(sqrt-5)", (2, 400), 3,
     "a11cec418e48f6b3afc23894782db5c0263994f7083e7623f0b68dfd3084021f"),
    ("Q(sqrt-5)", (300, 5000), 1,
     "8b01ffd3e239b84cd55ea5e81ac33c65e04c3c9cebe7d09667defb4f3d2db456"),
    ("Q(sqrt-5)", (300, 5000), 3,
     "2e51d237c29628151cd8075d90c88524d4913b71431f72f134f4c45439a9fa24"),
    # six units: the orbit test is not only -1
    ("Q(sqrt-3)", (2, 400), 1,
     "71cdf4de9116ce1dbf3cdedeb6b6460551b724ec584cf9e6bd654c21b4f15f26"),
    ("Q(sqrt-3)", (300, 5000), 3,
     "4c950ce51a0bad8efc925693a811195ee82f12aeddbc346cb21b53fe514b437a"),
]


@pytest.mark.parametrize("field, window, w, digest", _ALPHA_REPORTS)
def test_alpha_scan_report_hashes_are_pinned(tmp_path, field, window, w,
                                             digest):
    out = tmp_path / "report.jsonl"
    argv = ["alpha-scan", "--field", field, "--w", str(w), "--window",
            *map(str, window), "--R", "1000"]
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
