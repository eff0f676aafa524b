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

from idealsieve import cli, ideals
from idealsieve.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                            EXIT_VERIFY, main, read_config)
from idealsieve.constellation import ConstellationSpec, search_constellation
from idealsieve.ideals import FractionalIdeal, enumerate_prime_ideals, mobius
from idealsieve.numberfield import make_field


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
        assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_BUDGET)
        if code == EXIT_BUDGET:
            return
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

    monkeypatch.setattr(cli, "cmd_primes", boom)
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
    # one report line per m, built in memory: the bound is checked first
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


@pytest.mark.parametrize("argv, digest", _SEED0_REPORTS,
                         ids=["search-qi", "alpha-scan-qi",
                              "singular-series-q", "autocorr-q-w2"])
def test_seed0_report_hashes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert run(["--output", str(out)] + argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
