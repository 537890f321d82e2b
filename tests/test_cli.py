import json

import pytest

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    certify,
    derive_tribonacci_basis,
    fasteval,
    load_corpus,
    parse,
    render,
    template_to_ast,
    term,
)
from tribkit.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
)

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
    assert report["schema"] == 3
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
    assert report["schema"] == 3 and report["verdict"] == "verified"
    assert report["windows"] == {"r": 3, "s": 1}
    assert "window_base" not in report


def test_certify_text_reports_method(capsys):
    _, out, _ = run(capsys, "certify", "W(r) = 2*W(r-1) - W(r-4)")
    assert out.splitlines()[1].endswith("evaluations 6 method normal_form")
    _, out, _ = run(capsys, "certify", "W(r) = 2*W(r-1)")
    assert out.splitlines()[1].endswith("method grid")


def test_certify_dash_led_identity(capsys):
    code, out, _ = run(capsys, "certify", "-2*W(r)=-W(r)-W(r)", "--json")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "verified"


def test_certify_parse_error(capsys):
    code, _, err = run(capsys, "certify", "W(r-3) = 2W(r) -")
    assert code == EXIT_USAGE and "position" in err


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


def test_corpus_mutation_hook(capsys):
    code, out, _ = run(capsys, "corpus", "--mutate", "1", "--only", "eq12", "--only", "thm4")
    assert code == EXIT_OK
    assert "total: 2/2 refuted" in out


def test_corpus_mutate_needs_positive_k(capsys):
    for k in ("0", "-1"):
        code, out, err = run(capsys, "corpus", "--mutate", k, "--only", "thm4")
        assert code == EXIT_USAGE and out == "" and "--mutate" in err


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


def test_corpus_mutate_without_coefficients(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# [trivial] local\nW(r) = W(r)\n")
    code, out, err = run(capsys, "corpus", "--path", str(path), "--mutate", "1")
    assert code == EXIT_USAGE and out == "" and "trivial" in err


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


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.txt"
    path.write_text("# [bad] local\nW(r) = 2*W(r-1)\n")
    monkeypatch.setenv("TRIBKIT_CORPUS", str(path))
    code, out, _ = run(capsys, "corpus")
    assert code == EXIT_REFUTED and "bad: refuted" in out


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--n", "100,200", "--strategies", "iterate,double")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[0] == "n,strategy,nanoseconds,digits"
    assert len(lines) == 5


def test_bench_usage_error(capsys):
    assert run(capsys, "bench", "--strategies", "double")[0] == EXIT_USAGE
    assert run(capsys, "bench", "--n", "10", "--strategies", "")[0] == EXIT_USAGE
    code, out, err = run(capsys, "bench", "--n", "1", "--strategies", "iterate,iterate")
    assert (code, out) == (EXIT_USAGE, "")
    assert "repeated strategies" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_unrecognized_argument_error(capsys):
    code, out, err = run(capsys, "eval", "--seq", "T", "--n", "1", "--bogus")
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "usage: tribkit [-h] {eval,derive,certify,corpus,bench} ...\n"
        "tribkit: error: unrecognized arguments: --bogus\n"
    )
