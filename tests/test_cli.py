import json

from divfilters import cli
from divfilters.cli import main, run_query
from divfilters.harness import HarnessParams, run_harness


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nfree_cover_exit_code(capsys):
    code, out, _ = run(capsys, ["nfree", "union(mult(2),mult(3))", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["state"] == "refuted"
    assert payload["certificate"]["covers"] == [2, 3]


def test_divides_exit_codes(capsys):
    assert run(capsys, ["divides", "principal:6", "principal:18"])[0] == 0
    assert run(capsys, ["divides", "principal:6", "principal:8"])[0] == 1


def test_antichain_exact(capsys):
    code, out, _ = run(capsys, ["antichain", "P", "--bound", "30", "--exact", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 10
    assert payload["witness"] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_member_exit_codes(capsys):
    assert run(capsys, ["member", "mult(6)", "18"])[0] == 0
    assert run(capsys, ["member", "mult(6)", "8"])[0] == 1
    assert run(capsys, ["member", "down(factorials)", "11"])[0] == 2


def test_usage_errors_exit_64(capsys):
    assert run(capsys, ["member", "up(", "3"])[0] == 64
    assert run(capsys, ["harness", "NOPE"])[0] == 64
    assert run(capsys, ["bogus-command"])[0] == 64
    assert run(capsys, ["member"])[0] == 64


def test_usage_error_prints_grammar_hint(capsys):
    _, _, err = run(capsys, ["member", "up(", "3"])
    assert "offset 3" in err
    assert "mult(n)" in err


def test_json_and_text_agree(capsys):
    code_t, out_t, _ = run(capsys, ["member", "mult(6)", "18"])
    code_j, out_j, _ = run(capsys, ["member", "mult(6)", "18", "--json"])
    assert code_t == code_j == 0
    payload = json.loads(out_j)
    assert payload["state"] == "proved"
    assert "proved" in out_t


def test_json_schema_versioned(capsys):
    _, out, _ = run(capsys, ["member", "N", "1", "--json"])
    assert json.loads(out)["schema"] == "divfilters/1"


def test_enumerate(capsys):
    code, out, _ = run(capsys, ["enumerate", "level(2)", "--bound", "10", "--json"])
    assert code == 0
    assert json.loads(out)["members"] == [4, 6, 9, 10]


def test_chain_verify(capsys):
    code, out, _ = run(capsys, ["chain-verify", "2", "--json"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_chain_verify_tree_scheme_passes(capsys):
    # the tree scheme's products pass the sieve cap; trial division decides them
    code, out, _ = run(capsys, ["chain-verify", "10", "--scheme", "tree", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["pairs"]) == 110
    assert all(pair["ok"] for pair in payload["pairs"])


def test_harness_single_lemma(capsys):
    code, out, _ = run(capsys, ["harness", "E3.5b", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["counts"]["fail"] == 0


def test_harness_deterministic_given_seed(capsys):
    _, out1, _ = run(capsys, ["harness", "L3.4-eq3", "--seed", "7", "--json"])
    _, out2, _ = run(capsys, ["harness", "L3.4-eq3", "--seed", "7", "--json"])
    assert out1 == out2


def test_failed_case_replay_reproduces_verdict(capsys):
    # Starve the interpolation suite so a case expected Proved comes back
    # Unknown; its replay command must reproduce that verdict (exit 2).
    report = run_harness(["L3.4-eq3"], HarnessParams(bound=30, seed=0))
    failing = [c for c in report.cases if c.outcome == "fail"]
    assert failing, "expected starved interpolation cases to fail"
    for case in failing:
        assert case.replay is not None
        code = run_query(case.replay)
        capsys.readouterr()
        assert code == 2  # the violating (non-Proved) verdict replays


def test_member_of_huge_power_is_refuted_with_payload(capsys):
    code, out, _ = run(capsys, ["member", "pow(P,3)", str(10**400 + 1), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["state"] == "refuted"
    assert payload["m"] == 10**400 + 1


def test_nesting_past_the_parser_limit_exits_64(capsys):
    text = "comp(" * 1200 + "N" + ")" * 1200
    code, out, err = run(capsys, ["member", text, "3", "--json"])
    assert code == 64
    assert out == ""
    assert "nested deeper than" in err


def test_crash_exits_70_with_traceback(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "member", crash)
    code, out, err = run(capsys, ["member", "mult(6)", "18", "--json"])
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert "Traceback" in err and "RuntimeError: injected fault" in err
