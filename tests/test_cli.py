import json
import subprocess
import sys

import pytest

from idealsieve import cli
from idealsieve.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                            EXIT_VERIFY, main, read_config)
from idealsieve.ideals import enumerate_prime_ideals
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


@pytest.mark.parametrize("argv", [
    ["singular-series", "--R", "1"],
    ["singular-series", "--R", "inf"],
    ["singular-series", "--R", "0.5"],
    ["singular-series", "--R", "nan"],
    ["singular-series", "--R", "100", "1"],
    ["alpha-scan", "--R", "inf"],
    ["lambda", "--R", "1"],
    ["residue", "--N", "0"],
    ["autocorr", "--N", "0"],
    ["hypergraph", "--N", "0"],
    ["hypergraph", "--N", "-3"],
    ["search", "--anchor-bound", "inf"],
    ["correlate", "--lam", "inf"],
    ["autocorr", "--s", "0"],
    ["hypergraph", "--k", "0"],
    ["search", "--max-hits", "-1"],
], ids=",".join)
def test_degenerate_parameter_is_usage_error(argv, capsys):
    # argparse rejects the value before any command runs and names the flag
    assert run(argv) == EXIT_USAGE
    assert f"argument {argv[1]}:" in capsys.readouterr().err


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


def test_cli_does_not_import_numpy_mpmath_scipy_or_sympy(tmp_path):
    # a fresh interpreter, because this test process has them all loaded;
    # sympy is imported only to classify a rejected defining polynomial,
    # numpy only by hypergraph and count_ideals
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
            ["--output", out, "cphi"]]
    code = ("import sys\n"
            "import idealsieve.cli as cli\n"
            f"print([cli.main(argv) for argv in {runs!r}])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in\n"
            "             ('numpy', 'mpmath', 'scipy', 'sympy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([EXIT_OK] * len(runs)), "[]"]
    assert read_lines(tmp_path / "out.jsonl")[0]["op"] == "cphi"
