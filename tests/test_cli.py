import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tribkit
from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    certify,
    cli,
    derive_tribonacci_basis,
    fasteval,
    load_corpus,
    matrix_power_term,
    parse,
    render,
    template_to_ast,
    term,
)
from tribkit.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    MAX_EVAL_BITS,
    MAX_ITERATE_BITS,
    main,
)
from tribkit.dsl import MAX_PRODUCTS

from reference import interpreter_state, no_digit_limit, str_unlimited
from table1 import K_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_single(capsys):
    code, out, _ = run(capsys, "eval", "--seq", "T", "--n", "24")
    assert code == EXIT_OK and out.strip() == "755476"
    code, out, _ = run(capsys, "eval", "--seed", "-1,2,3", "--n", "4")
    assert code == EXIT_OK and out.strip() == "9"


def test_eval_range(capsys):
    code, out, _ = run(capsys, "eval", "--seq", "K", "--range", "-5..5")
    values = [int(line) for line in out.split()]
    assert code == EXIT_OK
    assert values == [K_TABLE[r] for r in range(-5, 6)]


def test_eval_zero_seed(capsys):
    code, out, _ = run(capsys, "eval", "--seed", "0,0,0", "--n", "99")
    assert code == EXIT_OK and out.strip() == "0"


def test_eval_fast_agrees(capsys):
    code, out, _ = run(capsys, "eval", "--seed", "1,2,3", "--range", "-3..6", "--fast")
    _, slow, _ = run(capsys, "eval", "--seed", "1,2,3", "--range", "-3..6")
    assert code == EXIT_OK and out == slow


@pytest.mark.parametrize(
    "seed_args, seed",
    [
        (("--seq", "T"), TRIBONACCI),
        (("--seq", "K"), TRIBONACCI_LUCAS),
        (("--seed", "-917,44,3051"), SeedVector(-917, 44, 3051)),
    ],
)
@pytest.mark.parametrize("lo, hi", [(-40, 25), (2000, 2100), (-7, -7), (10, 11), (-300, -298)])
def test_eval_fast_range_matches_term_range(capsys, monkeypatch, seed_args, seed, lo, hi):
    code, out, _ = run(capsys, "eval", *seed_args, "--range", f"{lo}..{hi}", "--fast")
    assert code == EXIT_OK
    assert [int(line) for line in out.split()] == [term(seed, n) for n in range(lo, hi + 1)]
    # --fast selects nothing
    assert run(capsys, "eval", *seed_args, "--range", f"{lo}..{hi}")[1] == out
    calls = []
    fast_term = fasteval.fast_term
    monkeypatch.setattr(fasteval, "fast_term", lambda w, n: calls.append(n) or fast_term(w, n))
    for flags in ((), ("--fast",)):
        code, out, _ = run(capsys, "eval", *seed_args, "--n", str(hi), *flags)
        assert code == EXIT_OK and int(out) == term(seed, hi)
    assert calls == [hi, hi]  # one fast_term call per eval --n


def test_eval_past_the_digit_limit(capsys):
    state = interpreter_state()
    code, out, err = run(capsys, "eval", "--seed", "1,2,3", "--n", "100000", "--fast")
    assert interpreter_state() == state
    assert code == EXIT_OK and err == ""
    assert len(out) == 26_465 + 1
    assert out == str_unlimited(fasteval.fast_term(SeedVector(1, 2, 3), 100_000)) + "\n"


def test_eval_usage_errors(capsys):
    assert run(capsys, "eval", "--seq", "T")[0] == EXIT_USAGE
    assert run(capsys, "eval", "--seq", "T", "--range", "oops")[0] == EXIT_USAGE
    for seed in ("1,2", "1,2,3,4"):
        code, out, err = run(capsys, "eval", "--seed", seed, "--n", "5")
        assert code == EXIT_USAGE and out == "" and "--seed" in err


def test_eval_empty_range(capsys):
    code, out, err = run(capsys, "eval", "--seq", "T", "--range", "5..1")
    assert code == EXIT_USAGE and out == "" and "--range" in err


@pytest.mark.parametrize("which", [("--n", "1000000000"), ("--range", "0..100000000")])
def test_eval_over_budget_exits_at_once(which):
    src = Path(tribkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "tribkit.cli", "eval", "--seq", "T", *which],
        env=env, capture_output=True, text=True, timeout=1,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, "")
    assert proc.stderr.startswith("over budget: eval output of up to ")
    assert proc.stderr.endswith(f" bits is past MAX_EVAL_BITS = {MAX_EVAL_BITS}\n")


def test_eval_budget_counts_a_range_in_total(capsys, monkeypatch):
    seed = SeedVector(-917, 44, 3051)
    monkeypatch.setattr("tribkit.cli.MAX_EVAL_BITS", fasteval.term_bits(seed, -40, 60))
    code, out, _ = run(capsys, "eval", "--seed", "-917,44,3051", "--range", "-40..60")
    assert code == EXIT_OK and len(out.split()) == 101
    for argv in (("--range", "-41..60"), ("--range", "-40..61"), ("--n", "100000")):
        code, out, err = run(capsys, "eval", "--seed", "-917,44,3051", *argv)
        assert (code, out) == (EXIT_UNSUPPORTED, "") and "MAX_EVAL_BITS" in err


def test_eval_budget_admits_the_documented_inputs():
    # n = 10^7, and the largest inputs of the benchmark's cli and bigterm ops
    for seed in (TRIBONACCI, TRIBONACCI_LUCAS, SeedVector(10**6, -(10**6), 10**6)):
        for n in (10**7, -(10**7), 10**6, -(10**6), 10**5, -(10**5)):
            assert fasteval.term_bits(seed, n, n) <= MAX_EVAL_BITS
        assert fasteval.term_bits(seed, -300, 330) <= MAX_EVAL_BITS


def test_derive_familiar_formula(capsys):
    code, out, _ = run(capsys, "derive", "--basis", "T", "--offsets", "-1,0,1")
    assert code == EXIT_OK
    assert out.strip() == (
        "W(r+s) = T(s-1)*W(r-1) - T(s)*W(r) + T(s)*W(r+1) + T(s+1)*W(r)"
    )


def test_derive_lucas_json(capsys):
    code, out, _ = run(capsys, "derive", "--basis", "K", "--offsets", "-1,0,1", "--json")
    assert code == EXIT_OK
    report = json.loads(out.splitlines()[-1])
    assert report["schema"] == 4
    assert report["denominator"] == 22
    assert report["coefficients"] == [[5, 1, 2], [1, -2, 7], [2, 7, 3]]


def test_derive_past_the_digit_limit(capsys):
    template = derive_tribonacci_basis(0, 1, 100_000)
    state = interpreter_state()
    code, text, _ = run(capsys, "derive", "--basis", "T", "--offsets", "0,1,100000")
    assert code == EXIT_OK and interpreter_state() == state
    assert parse(text) == template_to_ast(template)
    code, out, _ = run(capsys, "derive", "--basis", "T", "--offsets", "0,1,100000", "--json")
    assert code == EXIT_OK and interpreter_state() == state
    assert out.splitlines()[0] == text.strip()
    with no_digit_limit():
        report = json.loads(out.splitlines()[1])
    assert report["coefficients"] == [list(row) for row in template.coeffs]
    assert report["denominator"] == template.denominator
    assert max(len(str_unlimited(abs(c))) for row in template.coeffs for c in row) > 4300


def test_derive_duplicate_offsets(capsys):
    assert run(capsys, "derive", "--basis", "T", "--offsets", "0,0,1")[0] == EXIT_USAGE
    # dash-led offsets reach the deriver (singular in both bases), not argparse
    assert run(capsys, "derive", "--basis", "K", "--offsets", "-3,0,1")[0] == EXIT_UNSUPPORTED


def test_derive_degenerate_offsets(capsys):
    code, out, err = run(capsys, "derive", "--basis", "T", "--offsets", "-4,-1,0")
    assert code == EXIT_UNSUPPORTED and out == "" and "degenerate offsets" in err


def test_certify_bridge_identity(capsys):
    code, out, _ = run(capsys, "certify", "K(r-2) = 5*T(r-1) - T(r+1)")
    assert code == EXIT_OK and out.startswith("verified")


def test_certify_three_term(capsys):
    assert run(capsys, "certify", "W(r) = 2*W(r-1) - W(r-4)")[0] == EXIT_OK


def test_certify_refuted_with_counterexample(capsys):
    code, out, _ = run(capsys, "certify", "W(r) = 2*W(r-1)")
    assert code == EXIT_REFUTED
    assert "counterexample" in out


def test_certify_counterexample_past_the_digit_limit(capsys):
    text = "W(r+20000) = 2*W(r)"
    c = certify(parse(text)).counterexample
    assert len(str_unlimited(c.lhs)) > 4300
    state = interpreter_state()
    code, out, _ = run(capsys, "certify", text)
    assert code == EXIT_REFUTED and interpreter_state() == state
    assert out.splitlines()[2] == (
        f"  counterexample: seed={c.seed} r={c.r} s={c.s}"
        f" lhs={str_unlimited(c.lhs)} rhs={str_unlimited(c.rhs)}"
    )
    code, out, _ = run(capsys, "certify", text, "--json")
    assert code == EXIT_REFUTED and interpreter_state() == state
    with no_digit_limit():
        report = json.loads(out)
    assert report["counterexample"] == {
        "seed": list(c.seed), "r": c.r, "s": c.s, "lhs": c.lhs, "rhs": c.rhs
    }


def test_certify_long_coefficient_literal(capsys):
    big = "7" * 5000
    code, out, _ = run(capsys, "certify", f"W(r) = {big}*W(r)")
    assert code == EXIT_REFUTED
    assert out.startswith(f"refuted: -{'7' * 4999}6*W(r) = 0\n")
    code, _, err = run(capsys, "certify", f"W(r+{big}) = W(r)")
    assert code == EXIT_USAGE and "too long" in err


def test_certify_json_report(capsys):
    code, out, _ = run(capsys, "certify", "--json", "W(r) = 2*W(r-1) - W(r-4)")
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["schema"] == 4 and report["verdict"] == "verified"
    assert report["windows"] == {"r": 3, "s": 1}
    assert "window_base" not in report


def test_certify_text_reports_method(capsys):
    _, out, _ = run(capsys, "certify", "W(r) = 2*W(r-1) - W(r-4)")
    assert out.splitlines()[1].endswith("evaluations 0 method normal_form")
    _, out, _ = run(capsys, "certify", "W(r) = 2*W(r-1)")
    assert out.splitlines()[1].endswith("method grid")


def test_certify_dash_led_identity(capsys):
    code, out, _ = run(capsys, "certify", "-2*W(r)=-W(r)-W(r)", "--json")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "verified"


VERIFIED_JSON = '{"schema": 4, "identity": "0 = 0", "verdict": "verified"'

# A token led by one "-", other than -h, is a value or the identity, never an
# option: (argv, exit code, stdout prefix, stderr suffix), "" meaning empty.
DASH_LED = [
    (["eval", "--seq", "K", "--n", "-5"], EXIT_OK, "-1\n", ""),
    (["eval", "--seed", "-1,2,3", "--n", "4"], EXIT_OK, "9\n", ""),
    (["eval", "--seq", "K", "--range", "-5..-2"], EXIT_OK, "-1\n-5\n5\n-1\n", ""),
    (["derive", "--basis", "T", "--offsets", "-1,0,1"], EXIT_OK,
     "W(r+s) = T(s-1)*W(r-1) - T(s)*W(r) + T(s)*W(r+1) + T(s+1)*W(r)\n", ""),
    (["certify", "--file", "-missing"], EXIT_USAGE, "",
     "[Errno 2] No such file or directory: '-missing'\n"),
    (["corpus", "--path", "-missing"], EXIT_USAGE, "",
     "cannot load corpus: [Errno 2] No such file or directory: '-missing'\n"),
    (["corpus", "--only", "-x"], EXIT_USAGE, "", "unknown corpus ids: ['-x']\n"),
    (["bench", "--n", "5", "--strategies", "-x"], EXIT_USAGE, "", "unknown strategies: ['-x']\n"),
    # the certify identity, before or after a flag, and after "--"
    (["certify", "-W(r)=-W(r)"], EXIT_OK, "verified: 0 = 0\n", ""),
    (["certify", "-W(r) = 2*W(r)"], EXIT_REFUTED, "refuted: -3*W(r) = 0\n", ""),
    (["certify", "-2*W(r)=-W(r)-W(r)", "--json"], EXIT_OK, VERIFIED_JSON, ""),
    (["certify", "--json", "-2*W(r)=-W(r)-W(r)"], EXIT_OK, VERIFIED_JSON, ""),
    (["certify", "--json", "--", "-2*W(r)=-W(r)-W(r)"], EXIT_OK, VERIFIED_JSON, ""),
    # exactly -h is an option, not every token it leads
    (["certify", "-h"], EXIT_OK, "usage: tribkit certify ", ""),
    (["certify", "-hW(r)=W(r)"], EXIT_USAGE, "",
     "parse error: expected a term, found 'h' (at position 1)\n"),
    # a token led by "--" is never a value
    (["eval", "--seq", "T", "--n", "--fast"], EXIT_USAGE, "",
     "tribkit eval: error: argument --n: expected one argument\n"),
    # leftover arguments are listed in argv order
    (["certify", "-W(r)", "=", "-W(r)"], EXIT_USAGE, "",
     "tribkit: error: unrecognized arguments: = -W(r)\n"),
    (["certify", "-W(r)=-W(r)", "--", "x"], EXIT_USAGE, "",
     "tribkit: error: unrecognized arguments: x\n"),
]


@pytest.mark.parametrize("argv, code, out, err", DASH_LED)
def test_dash_led_tokens_are_values(tmp_path, capsys, monkeypatch, argv, code, out, err):
    monkeypatch.chdir(tmp_path)  # so that no file -missing exists
    got_code, got_out, got_err = run(capsys, *argv)
    assert got_code == code
    assert got_out.startswith(out) and bool(got_out) == bool(out)
    assert got_err.endswith(err) and bool(got_err) == bool(err)


def test_certify_parse_error(capsys):
    code, _, err = run(capsys, "certify", "W(r-3) = 2W(r) -")
    assert code == EXIT_USAGE and "position" in err


def test_certify_over_budget_expansion_is_a_parse_error(capsys):
    # 604,656 products to multiply out, into 50,388 monomials
    eight = " + ".join(f"W(r+{k})" for k in range(8))
    code, out, err = run(capsys, "certify", f"({eight})^12 = 0")
    assert (code, out) == (EXIT_USAGE, "")
    message = f"multiplying out the group takes over {MAX_PRODUCTS} products"
    assert err == f"parse error: {message} (at position 0)\n"


def test_certify_deep_nesting_is_a_parse_error(capsys):
    # 332 levels used to overflow the recursion limit: a traceback, exit 1
    text = "(" * 332 + "W(r)" + ")" * 332 + " = 0"
    code, out, err = run(capsys, "certify", text)
    assert code == EXIT_USAGE and out == ""
    assert "parse error" in err and "Traceback" not in err


def test_certify_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "identity.txt"
    path.write_bytes(b"W(r) = \xff\xfe W(r)\n")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert code == EXIT_USAGE and out == "" and "--file" in err


def test_certify_unsupported(capsys):
    code, _, err = run(capsys, "certify", "T(0) = 0")
    assert code == EXIT_UNSUPPORTED and "unsupported" in err


def test_corpus_single_entry(capsys):
    code, out, _ = run(capsys, "corpus", "--only", "thm4")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "thm4: verified"


def test_corpus_full_run(capsys):
    code, out, _ = run(capsys, "corpus")
    n = len(load_corpus())
    assert code == EXIT_OK
    assert f"total: {n}/{n} verified" in out


def test_corpus_calls_do_not_share_state(capsys):
    for entry_id in ("eq2", "eq7"):
        code, out, _ = run(capsys, "corpus", "--only", entry_id)
        assert code == EXIT_OK
        assert out.splitlines() == [f"{entry_id}: verified", "total: 1/1 verified"]


def test_usage_error_then_valid_call(capsys):
    assert run(capsys, "eval", "--seq", "T")[0] == EXIT_USAGE
    code, out, _ = run(capsys, "eval", "--seq", "T", "--n", "5")
    assert code == EXIT_OK and out == "7\n"


def test_corpus_unparsable_entry(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# [broken] local\nW(r) = = W(r)\n")
    code, out, err = run(capsys, "corpus", "--path", str(path))
    assert code == EXIT_USAGE and out == "" and "broken" in err


def test_corpus_unsupported_entry(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# [absolute] local\nT(0) = 0*W(r)\n")
    code, out, err = run(capsys, "corpus", "--path", str(path))
    assert code == EXIT_UNSUPPORTED and "absolute" in err


def test_corpus_unknown_id(capsys):
    assert run(capsys, "corpus", "--only", "nope")[0] == EXIT_USAGE


def test_corpus_path_override(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# [good] local\nW(r) = 2*W(r-1) - W(r-4)\n")
    code, out, _ = run(capsys, "corpus", "--path", str(path))
    assert code == EXIT_OK and "good: verified" in out


def test_corpus_path_not_utf8(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"# [bad] \xff\xfe\nW(r) = W(r)\n")
    code, out, err = run(capsys, "corpus", "--path", str(path))
    assert code == EXIT_USAGE and out == "" and "cannot load corpus" in err


def test_corpus_header_without_identity(tmp_path, capsys):
    # used to load as ['b'] and report "total: 1/1 verified"
    path = tmp_path / "c.txt"
    path.write_text("# [a] one\n# [b] two\nW(r) = W(r)\n# [c] three\n")
    code, out, err = run(capsys, "corpus", "--path", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "cannot load corpus: corpus line 1: header [a] has no identity\n"


def test_corpus_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # no environment variable chooses the corpus
    bundled = load_corpus()
    expected = run(capsys, "corpus", "--only", "eq12")
    path = tmp_path / "c.txt"
    path.write_text("# [bad] local\nW(r) = 2*W(r-1)\n")
    monkeypatch.setenv("TRIBKIT_CORPUS", str(path))
    assert load_corpus() == bundled
    assert run(capsys, "corpus", "--only", "eq12") == expected
    assert expected[0] == EXIT_OK


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--n", "100,200", "--strategies", "iterate,double")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[0] == "n,strategy,nanoseconds,digits"
    assert len(lines) == 5


def test_bench_budget_counts_every_index(capsys, monkeypatch):
    values = sum(fasteval.term_bits(TRIBONACCI, n, n) for n in (101, -51))
    steps = fasteval.term_bits(TRIBONACCI, 0, 100) + fasteval.term_bits(TRIBONACCI, -50, 0)
    monkeypatch.setattr("tribkit.cli.MAX_EVAL_BITS", values)
    monkeypatch.setattr("tribkit.cli.MAX_ITERATE_BITS", steps)
    assert run(capsys, "bench", "--n", "100,-50")[0] == EXIT_OK
    for ns, strategies, limit in (
        ("101,-50", "iterate", "MAX_ITERATE_BITS"),
        ("100,-51", "iterate", "MAX_ITERATE_BITS"),
        ("101,-51,0", "double", "MAX_EVAL_BITS"),
    ):
        code, out, err = run(capsys, "bench", "--n", ns, "--strategies", strategies)
        assert (code, out) == (EXIT_UNSUPPORTED, "") and limit in err
    # iterate's work is priced only when iterate runs
    assert run(capsys, "bench", "--n", "101,-51", "--strategies", "double,matrix")[0] == EXIT_OK


def test_budgets_admit_the_documented_inputs(capsys):
    # bench's iterate at n = 10^5, and the cli workload's bench ops (two n <= 10^4)
    assert fasteval.term_bits(TRIBONACCI, 0, 10**5) <= MAX_ITERATE_BITS
    assert 2 * fasteval.term_bits(TRIBONACCI, 0, 10**4) <= MAX_ITERATE_BITS
    assert 2 * fasteval.term_bits(TRIBONACCI, 10**4, 10**4) <= MAX_EVAL_BITS
    # derive's bound grows with max |offset|, largest here over the triples
    # in [-12, 12]
    for basis in ("T", "K"):
        assert run(capsys, "derive", "--basis", basis, "--offsets", "-12,0,12")[0] == EXIT_OK


def test_bench_usage_error(capsys):
    assert run(capsys, "bench", "--strategies", "double")[0] == EXIT_USAGE
    assert run(capsys, "bench", "--n", "10", "--strategies", "")[0] == EXIT_USAGE
    code, out, err = run(capsys, "bench", "--n", "1", "--strategies", "iterate,iterate")
    assert (code, out) == (EXIT_USAGE, "")
    assert "repeated strategies" in err


CORPUS_FILES = {
    "broken": "# [broken] local\nW(r) = = W(r)\n",
    "absolute": "# [absolute] local\nT(0) = 0*W(r)\n",
}


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["certify", "W(r) = = W(r)"], EXIT_USAGE,
         "parse error: expected a term, found '=' (at position 7)"),
        (["certify", "T(0) = 0"], EXIT_UNSUPPORTED,
         "unsupported: absolute-index factor T(0) is outside certify's scope"),
        (["derive", "--basis", "T", "--offsets", "-4,-1,0"], EXIT_UNSUPPORTED,
         "degenerate offsets: T-basis anchor system is singular for offsets (-4, -1, 0)"),
        (["bench", "--n", "5", "--strategies", "iterate,matrix"], EXIT_MISMATCH,
         "verification mismatch: strategies disagree at n=5: iterate=7, matrix=8"),
        (["derive", "--basis", "T", "--offsets", "0,0,1"], EXIT_USAGE,
         "--offsets needs three pairwise distinct integers"),
        (["certify", "--file", "{tmp}/missing.txt"], EXIT_USAGE,
         "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
        # corpus reports an entry's failure under its row, after the entry id
        (["corpus", "--path", "{tmp}/broken"], EXIT_USAGE,
         "corpus entry broken: parse error: expected a term, found '=' (at position 7)"),
        (["corpus", "--path", "{tmp}/absolute"], EXIT_UNSUPPORTED,
         "corpus entry absolute: unsupported: absolute-index factor T(0) is outside certify's scope"),
        (["eval", "--seed", "1,x,3", "--n", "5"], EXIT_USAGE,
         "--seed must be comma-separated integers"),
        (["derive", "--basis", "T", "--offsets", "1,a,2"], EXIT_USAGE,
         "--offsets must be comma-separated integers"),
        (["bench", "--n", "5,x"], EXIT_USAGE,
         "--n must be comma-separated integers"),
        # refused from the arguments alone, before any arithmetic
        (["bench", "--n", "100000000"], EXIT_UNSUPPORTED,
         "over budget: bench values of up to 88000004 bits is past MAX_EVAL_BITS = 16777216"),
        (["bench", "--n", "1000000"], EXIT_UNSUPPORTED,
         "over budget: bench iterate work of up to 440004440004 bits is past"
         " MAX_ITERATE_BITS = 17179869184"),
        (["bench", "--n", "10000000", "--strategies", "iterate"], EXIT_UNSUPPORTED,
         "over budget: bench iterate work of up to 44000044400004 bits is past"
         " MAX_ITERATE_BITS = 17179869184"),
        (["derive", "--basis", "T", "--offsets", "0,1,100000000"], EXIT_UNSUPPORTED,
         "over budget: derive output of up to 2112000189 bits is past MAX_EVAL_BITS = 16777216"),
    ],
)
def test_failure_table_rows(tmp_path, capsys, monkeypatch, argv, code, err):
    for name, text in CORPUS_FILES.items():
        (tmp_path / name).write_text(text)
    # a matrix strategy one too high; only bench calls it
    monkeypatch.setitem(
        fasteval.STRATEGIES, "matrix", lambda seed, n: matrix_power_term(seed, n) + 1
    )
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(capsys, *argv) == (code, "", err.format(tmp=tmp_path) + "\n")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_unrecognized_argument_error(capsys):
    code, out, err = run(capsys, "eval", "--seq", "T", "--n", "1", "--bogus")
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "usage: tribkit [-h] {eval,derive,certify,corpus,bench} ...\n"
        "tribkit: error: unrecognized arguments: --bogus\n"
    )


# Each way the one-pass reader declines, leaving argv to argparse.
DECLINED = [
    ["eval", "-h"],
    ["certify", "--help"],
    ["certify", "--json", "--", "-W(r)=-W(r)"],
    ["eval", "--seq=T", "--n", "24"],
    ["eval", "--seq", "T", "--n=24"],
    ["derive", "--bas", "T", "--offsets", "-1,0,1"],
    ["eval", "--seq", "T", "--n", "24", "--bogus"],
    ["certify", "--x = W(r)"],
    ["eval", "--seq", "T", "--n", "24", "--n", "25"],
    ["derive", "--basis", "T", "--offsets", "-1,0,1", "--json", "--json"],
    ["eval", "--seq", "T", "--n"],
    ["eval", "--seq", "T", "--n", "--fast"],
    ["eval", "--seq", "T", "--n", "-h"],
    ["eval", "--seq", "Q", "--n", "24"],
    ["eval", "--seq", "T", "--n", "x"],
    ["eval", "--seq", "T", "--n", "1" * 5000],
    ["derive", "--offsets", "-1,0,1"],
    ["eval", "--seq", "T"],
    ["eval", "--seq", "T", "--seed", "1,2,3", "--n", "24"],
    ["certify", "W(r)=W(r)", "--file", "x"],
    ["certify", "W(r)=W(r)", "W(r)"],
    ["eval", "--seq", "T", "--n", "24", "x"],
    [],
    ["frobnicate"],
]

_VALUES = st.one_of(
    st.sampled_from([
        "T", "K", "", "-", "-x", "-1,0,1", "1,2,3", "-917,44,3051", "-5..5", "3..1", "-5..-2",
        "eq12", "thm4", "iterate,double", "matrix", "W(r)=W(r)", "-W(r)=-W(r)", "W(r) = 2*W(r-1)",
    ]),
    st.integers(-30, 30).map(str),
    st.integers(0, 30).map(lambda n: f"+{n}"),
    st.integers(10, 30).map(lambda n: f"{n // 10}_{n % 10}"),
    st.integers(-30, 30).map(lambda n: f" {n} "),
)
_TOKENS = st.one_of(
    _VALUES,
    st.sampled_from(sorted({flag for _, args in cli._SUBCOMMANDS.values() for flag in args if flag})),
    st.sampled_from(sorted({token for argv in DECLINED for token in argv if token[:1] == "-"})),
)


@st.composite
def _argv(draw):
    """A command's arguments from its table: one member of each exclusive
    group, every required argument and any others, in any order, with a
    value each; then maybe a token deleted, or one or two inserted anywhere."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    args, groups = [], {}
    for arg in cli._SUBCOMMANDS[command][1].values():
        if arg.group is not None:
            groups.setdefault(arg.group, []).append(arg)
        elif arg.required or draw(st.booleans()):
            args.append(arg)
    args += [draw(st.sampled_from(members)) for members in groups.values()]
    pieces = []
    for arg in draw(st.permutations(args)):
        value = draw(st.one_of(st.sampled_from(arg.choices), _VALUES) if arg.choices else _VALUES)
        pieces.append([value] if arg.flag is None else [arg.flag] if arg.kind == "flag" else [arg.flag, value])
    tokens = [t for piece in pieces for t in piece]
    edit = draw(st.sampled_from(["none", "none", "delete", "insert"]))
    if edit == "delete" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    if edit == "insert":
        for token in draw(st.lists(_TOKENS, min_size=1, max_size=2)):
            tokens.insert(draw(st.integers(0, len(tokens))), token)
    return [command, *tokens]


def _argparse_only():
    return mock.patch.object(cli, "_read_argv", lambda argv: None)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    # bench's nanoseconds column is a measurement
    return code, re.sub(r"^(-?\d+,\w+,)\d+,", r"\1,", out.getvalue(), flags=re.M), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["eval", "--seq", "K", "--range", "-5..5", "--fast"])
@example(argv=["certify", "--json", "-2*W(r)=-W(r)-W(r)"])
@example(argv=["corpus", "--only", "eq12", "--only", "-x", "--path", ""])
@example(argv=["bench", "--n", " +1_0 ,-5", "--strategies", "-"])
def test_read_argv_agrees_with_argparse(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # so that no --file or --path exists
    fast = cli._read_argv(argv)
    if fast is not None:
        with _argparse_only(), contextlib.redirect_stderr(io.StringIO()):
            try:
                slow = cli._parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}")
        assert vars(fast) == vars(slow)
    with _argparse_only():
        expected = _main(argv)
    assert _main(argv) == expected


@pytest.mark.parametrize("argv", DECLINED)
def test_read_argv_declines(argv):
    assert cli._read_argv(argv) is None


_WELL_FORMED_CALLS = """
import contextlib, io, sys
from tribkit.cli import main
argvs = [
    ["eval", "--seq", "T", "--n", "24"],
    ["derive", "--basis", "K", "--offsets", "-1,0,1", "--json"],
    ["certify", "-W(r)=-W(r)"],
    ["corpus", "--only", "eq12"],
    ["bench", "--n", "5", "--strategies", "double"],
]
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
assert "argparse" not in sys.modules
assert main(["eval", "-h"]) == 0
assert main(["eval", "--seq", "T"]) == 2
"""


def test_well_formed_argv_skips_argparse():
    src = Path(tribkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _WELL_FORMED_CALLS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tribkit eval [-h] (--seq {T,K} | --seed SEED)")
    assert "\n  --fast " in proc.stdout
    assert proc.stderr.startswith("usage: tribkit eval [-h]")
    assert proc.stderr.endswith("tribkit eval: error: one of the arguments --n --range is required\n")
