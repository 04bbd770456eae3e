import json
import sys

import pytest

from divfilters import arith, chains, cli
from divfilters.cli import main
from divfilters.errors import PreconditionError
from divfilters.harness import LEMMA_IDS, HarnessParams, run_harness
from divfilters.verdict import refuted


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


def test_nfree_cover_with_a_literal_past_the_sieve_cap(capsys):
    # 1000036000099 = 1000003 * 1000033, whose primality is not decided
    code, out, _ = run(capsys, ["nfree", "union({1000036000099},mult(2))", "--json"])
    assert code == 1
    assert json.loads(out)["certificate"]["covers"] == [2, 1000036000099]


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
    code, out, err = run(capsys, ["divides", "gen:[;]", "principal:2"])
    assert (code, out) == (64, "")
    assert err.startswith("parse error: empty generator list (at offset 5)\n")


@pytest.mark.parametrize("spec,line", [
    ("gen:[mult(2);mult(0)]", "naturals start at 1 (at offset 18)"),
    ("gen:[mult(2);foo]", "unknown expression head 'foo' (at offset 13)"),
    (" principal:x", "principal point must be a natural >= 1 (at offset 11)"),
])
def test_filter_spec_parse_error_points_into_the_spec_as_given(capsys, spec, line):
    code, out, err = run(capsys, ["divides", spec, "principal:2"])
    assert (code, out) == (64, "")
    assert err.splitlines()[0] == f"parse error: {line}"


@pytest.mark.parametrize("argv", [
    ["upclosed", "P", "--budget", "-3"],
    ["nfree", "mult(2)", "--budget", "-3"],
    ["divides", "principal:2", "principal:4", "--budget", "-3"],
    ["harness", "T3.3", "--budget", "-3"],
    ["interp", "gen:[mult(24)]", "gen:[mult(24)]", "--budget", "-3"],
    ["member", "mult(6)", "18", "--budget", "0"],
    ["chain-verify", "3", "--bound", "0"],
    ["enumerate", "P", "--bound", "-5"],
    ["antichain", "P", "--bound", "-3"],
    ["cover", "P", "--k-max", "0"],
    ["cover", "P", "--n-max", "-1"],
    ["cover", "P", "--bound", "+5"],
    ["harness", "L2.1a", "--bound", "-1"],
    ["harness", "L2.1b", "--bound", "-1"],
    ["harness", "T2.2", "--bound", "0"],
    ["harness", "T4.2", "--k", "0"],
    ["factor", "0"],
    ["factor", "-4"],
    ["member", "mult(5)", "\uff15"],  # fullwidth 5
    ["member", "mult(5)", "\u0665"],  # Arabic-Indic 5
    ["member", "mult(5)", "+10"],
    ["member", "mult(5)", " 10"],
    # past the interpreter's 4,300-digit limit on int()
    ["member", "mult(5)", "9" * 5000],
    ["divides", "principal:" + "9" * 5000, "principal:6"],
])
def test_non_natural_bounds_and_budgets_exit_64(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 64
    assert out == ""
    if any(len(arg) > 4300 for arg in argv):
        assert "natural number has too many digits" in err
        assert "9" * 50 not in err and "_natural" not in err
    else:
        assert "expected a natural >= 1" in err


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


def test_point_queries_past_the_table_leave_it_small(capsys, monkeypatch):
    # the witnesses are products of a few small primes, which trial division
    # by the primes of a 4,096-entry table decides
    argvs = [["member", "P", "999983", "--json"], ["factor", "987654", "--json"],
             ["chain-verify", "12", "--json"]]
    monkeypatch.setattr(arith, "_SIEVE", arith._Sieve())
    cold = [run(capsys, argv)[:2] for argv in argvs]
    assert arith._SIEVE.limit <= 4096
    monkeypatch.setattr(arith, "_SIEVE", arith._Sieve())
    arith.primes_upto(arith.DEFAULT_SIEVE_CAP)
    assert cold == [run(capsys, argv)[:2] for argv in argvs]
    assert [code for code, _ in cold] == [0, 0, 0]
    assert json.loads(cold[0][1])["state"] == "proved"
    assert json.loads(cold[1][1])["factors"] == {"2": 1, "3": 1, "97": 1, "1697": 1}
    assert json.loads(cold[2][1])["passed"] is True


def test_chain_verify_exits_2_when_failing_pairs_are_only_unknown(capsys):
    # at bound 3 no avoiding product is found for the 6 omissions with
    # alpha >= 2; Unknown is not a refutation of the invariant
    code, out, _ = run(capsys, ["chain-verify", "6", "--bound", "3"])
    assert code == 2
    lines = out.splitlines()
    assert lines[-1] == "passed  False"
    failing = [line for line in lines[:-1] if line.endswith("ok=False")]
    assert len(failing) == 6
    assert all("verdict=unknown-at-bound" in line for line in failing)
    code, out, _ = run(capsys, ["chain-verify", "6", "--bound", "3", "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    failing = [pair for pair in payload["pairs"] if not pair["ok"]]
    assert len(failing) == 6
    assert all(pair["state"] == "unknown-at-bound" for pair in failing)


@pytest.mark.parametrize("command", ["chain-build", "chain-verify"])
def test_chain_length_past_the_sieve_cap_is_an_error(capsys, monkeypatch, command):
    # refused before the family is built, so the table stays small
    monkeypatch.setattr(arith, "_SIEVE", arith._Sieve())
    assert run(capsys, [command, "9" * 700]) == (
        2, "", f"error: k exceeds the sieve cap {arith.DEFAULT_SIEVE_CAP}\n")
    assert arith._SIEVE.limit <= 4096


def test_tree_chain_builds_at_a_budget_below_its_prime_filters(capsys):
    # the links' witnesses are structural; a tree family member's prime
    # filter scans for 2, past budget 1, and only chain-verify builds it
    code, out, err = run(capsys, ["chain-build", "3", "--scheme", "tree", "--budget", "1"])
    assert (code, err) == (0, "")
    assert out.startswith("k       3\nscheme  tree\n")
    assert run(capsys, ["chain-verify", "3", "--scheme", "tree", "--budget", "1"]) == (
        2, "", "error: core up(union({2,3,7},primesGeom(4,2))) is empty up to budget 1; "
        "the presentation fails the finite intersection property\n")


def test_chain_verify_exits_1_when_a_pair_is_decided_wrongly(capsys, monkeypatch):
    right = chains.divides_tilde
    first_link = "gen:[up(prodset(primesIdx(1,6)))]"
    monkeypatch.setattr(chains, "divides_tilde", lambda f, g, budget: (
        refuted(budget) if g.spec_text() == first_link else right(f, g, budget)))
    code, out, _ = run(capsys, ["chain-verify", "6"])
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith("ok=False")] == [
        "beta=0 alpha=1 expect=divides verdict=refuted ok=False"]
    # a decided failure outweighs Unknown ones
    assert run(capsys, ["chain-verify", "6", "--bound", "3"])[0] == 1


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
        code = main(case.replay)
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


@pytest.mark.parametrize("argv, err", [
    (["antichain", "down(level(3))", "--bound", "100", "--budget", "100"],
     "error: members of down(level(3)) up to 100 contain Unknown verdicts\n"),
    (["cover", "down(level(3))", "--bound", "100", "--budget", "100"],
     "error: members of down(level(3)) up to 100 contain Unknown verdicts\n"),
    (["divides", "gen:[empty]", "principal:2"],
     "error: core empty is empty up to budget 10000; "
     "the presentation fails the finite intersection property\n"),
])
def test_library_error_exits_2(capsys, argv, err):
    assert run(capsys, argv) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ["enumerate", "N", "--bound", "1000000000000"],
    ["enumerate", "N", "--bound", "100000000000000000000"],
    ["harness", "L2.1b", "--bound", "100000000000000000000"],
    ["antichain", "P", "--bound", "1000000000000"],
    ["cover", "P", "--bound", "1000000000000"],
    ["interp", "gen:[mult(2)]", "gen:[mult(3)]", "--bound", "1000000000000"],
])
def test_a_range_too_large_to_hold_exits_2(capsys, argv):
    # a range array of 10**12 bytes cannot be allocated (MemoryError, with
    # the kernel's default heuristic overcommit) and one of 10**20 cannot
    # be indexed (OverflowError); either is a BudgetExceededError
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_suite_range_too_large_names_the_suite_and_the_bound(capsys):
    # L2.1b ranges up to half the bound; the error names the bound given
    code, out, err = run(capsys, ["harness", "L2.1b", "--bound", "100000000000000000000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: suite L2.1b at bound 100000000000000000000: ")
    assert "Traceback" not in err


def test_harness_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harness", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(lemma_id in out for lemma_id in LEMMA_IDS)


def test_crash_exits_70_with_traceback(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr("divfilters.semantics.member", crash)
    code, out, err = run(capsys, ["member", "mult(6)", "18", "--json"])
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert "Traceback" in err and "RuntimeError: injected fault" in err


def test_non_ascii_digits_exit_64(capsys):
    # '²' passes str.isdigit() but int() refuses it
    code, out, err = run(capsys, ["member", "mult(²)", "4"])
    assert (code, out) == (64, "")
    assert "offset 5" in err
    code, out, err = run(capsys, ["divides", "principal:²", "principal:6"])
    assert (code, out) == (64, "")
    assert "offset 10" in err


def test_natural_past_the_digit_limit_exits_64(capsys):
    code, out, err = run(capsys, ["member", "mult(" + "1" * 5000 + ")", "4"])
    assert (code, out) == (64, "")
    assert "offset 5" in err and "too many digits" in err


@pytest.mark.parametrize("argv", [
    ["chain-build", "9" * 5000],
    ["chain-verify", "9" * 5000, "--json"],
    ["harness", "L3.4-eq3", "--seed", "9" * 5000],
    ["harness", "L3.4-eq3", "--seed", "-" + "9" * 5000],
    ["harness", "L3.4-eq3", "--seed", " +9_" + "9" * 5000 + " "],
])
def test_chain_length_and_seed_past_the_digit_limit_exit_64(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (64, "")
    assert "integer has too many digits" in err
    assert "9" * 50 not in err and len(err.encode()) < 200


def test_digit_limit_message_follows_the_interpreter_limit(capsys):
    # a long text that is no numeral is an invalid int, not a long one
    code, _, err = run(capsys, ["chain-build", "x" * 5000])
    assert code == 64 and "invalid int value: 'xxx" in err
    assert "too many digits" not in err
    # the limit is the interpreter's, not a fixed 4300
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, _, err = run(capsys, ["chain-build", "9" * 700])
        assert code == 64 and "integer has too many digits" in err
        assert "9" * 50 not in err
        sys.set_int_max_str_digits(0)  # no limit: a long numeral is an int
        code, _, err = run(capsys, ["chain-build", "-" + "9" * 5000])
        assert code == 64 and "k must be >= 0" in err
    finally:
        sys.set_int_max_str_digits(old)


def test_chain_length_and_seed_in_range_behave_as_ints(capsys):
    # a library PreconditionError and an argparse error print the same way
    assert run(capsys, ["chain-build", "-1"]) == (64, "", "usage error: k must be >= 0\n")
    assert run(capsys, ["chain-build", "2x"]) == (
        64, "", "usage error: argument k: invalid int value: '2x'\n")
    assert run(capsys, ["chain-build", "0", "--json"])[0] == 0
    _, negative, _ = run(capsys, ["harness", "L3.4-eq3", "--seed", "-7", "--json"])
    _, spaced, _ = run(capsys, ["harness", "L3.4-eq3", "--seed", " -7", "--json"])
    assert json.loads(negative)["passed"] is True and negative == spaced


# --- pinned outputs of the commands no other test runs ------------------------

def test_cover_found(capsys):
    code, out, _ = run(capsys, ["cover", "union(mult(2),mult(3))"])
    assert code == 0
    assert out.splitlines()[:3] == ["kind       covering",
                                    "host_expr  union(mult(2),mult(3))",
                                    "covers     [2, 3]"]


def test_cover_not_found(capsys):
    code, out, _ = run(capsys, ["cover", "P", "--k-max", "1", "--n-max", "5"])
    assert code == 1
    assert out == "cover   None\ndetail  no cover within the search bounds\n"


def _bound_verified_cover(host, covers, bound):
    return (f"kind       covering\nhost_expr  {host}\ncovers     {covers}\n"
            f"bound      {bound}\nmode       bound-verified\n")


@pytest.mark.parametrize("argv, code, out", [
    # 10007 is an odd member past nothing but the bound: [2] is no cover
    (["union(mult(2),{10007})"], 2,
     _bound_verified_cover("union(mult(2),{10007})", [2], 10000)),
    # no member up to the bound, so [2] covers vacuously
    (["{1000000000039}", "--bound", "5"], 2,
     _bound_verified_cover("{1000000000039}", [2], 5)),
    # the primes are an infinite pairwise-coprime family: no finite cover
    (["P", "--bound", "1"], 1, _bound_verified_cover("P", [2], 1)),
    # {7} is a cover past --n-max, so the failed search proves nothing
    (["prodset(mult(7),mult(11))", "--k-max", "1", "--n-max", "5"], 2,
     "cover   None\ndetail  no cover within the search bounds\n"),
], ids=["odd-member-past-the-search", "no-member-up-to-the-bound", "primes",
        "cover-past-n-max"])
def test_cover_exit_follows_the_proof_state(capsys, argv, code, out):
    assert run(capsys, ["cover", *argv]) == (code, out, "")


def test_d_member_text_and_json(capsys):
    code, out, _ = run(capsys, ["d-member", "gen:[mult(6)]", "mult(3)"])
    assert code == 0
    assert out == ("f            gen:[mult(6)]\nexpr         mult(3)\n"
                   "state        proved\nbudget       10000\ncertificate  structural\n")
    code, out, _ = run(capsys, ["d-member", "gen:[mult(6)]", "mult(3)", "--json"])
    assert code == 0
    assert json.loads(out) == {"schema": "divfilters/1", "f": "gen:[mult(6)]",
                               "expr": "mult(3)", "state": "proved",
                               "budget": 10000, "certificate": "structural"}


def test_chain_build_json(capsys):
    code, out, _ = run(capsys, ["chain-build", "4", "--json"])
    assert code == 0
    family = [f"primesIdx({r},4)" for r in range(1, 5)]
    assert json.loads(out) == {
        "schema": "divfilters/1", "k": 4, "scheme": "residue", "family": family,
        "links": ["principal:1"] + [f"gen:[up(prodset({','.join(family[:j])}))]"
                                    for j in range(1, 5)],
    }


def test_chain_verify_text(capsys):
    code, out, _ = run(capsys, ["chain-verify", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 and lines[-1] == "passed  True"
    assert lines[0] == "beta=0 alpha=0 expect=omits verdict=refuted ok=True"
    assert lines[3] == "beta=0 alpha=1 expect=divides verdict=proved ok=True"
    assert all(line.endswith("ok=True") for line in lines[:-1])


def test_harness_text_report_with_replay_lines(capsys):
    code, out, _ = run(capsys, ["harness", "L3.4-eq3", "--bound", "30"])
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == [
        "L3.4-eq3  fail    mult24-self  [verdict unknown-at-bound, expected proved]",
        "  replay: divfilters interp gen:[mult(24)] gen:[mult(24)] --bound 30",
    ]
    assert lines[2] == "L3.4-eq3  pass    principal-2-6  [verdict refuted, expected refuted]"
    assert lines[-1] == "summary: 3 pass, 5 fail, 0 skipped"
    assert sum(line.startswith("  replay: divfilters interp ") for line in lines) == 5


def test_harness_reads_a_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# two expressions\nunion(mult(2),mult(3))\n\nP\n", encoding="utf-8")
    code, out, _ = run(capsys, ["harness", "L5.3", "--corpus", str(corpus)])
    assert code == 0
    assert out == ("L5.3      pass    union(mult(2),mult(3))  [cover size 2, exact antichain 2]\n"
                   "L5.3      pass    P  [antichains of sizes 1..6 found]\n"
                   "summary: 2 pass, 0 fail, 0 skipped\n")


def test_corpus_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"mult(2)\n")
    marked.write_bytes(b"\xef\xbb\xbfmult(2)\n")
    want = run(capsys, ["harness", "L5.3", "--corpus", str(plain)])
    assert want[0] == 0
    assert run(capsys, ["harness", "L5.3", "--corpus", str(marked)]) == want


def test_corpus_parse_error_names_the_file_and_line(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# c\nunion(mult(2),mult(3))\n\n  foo(3)\n", encoding="utf-8")
    code, out, err = run(capsys, ["harness", "L5.3", "--corpus", str(corpus)])
    assert (code, out) == (64, "")
    assert err.startswith(f"parse error: corpus file {str(corpus)!r} line 4: "
                          "unknown expression head 'foo' (at offset 2)\n")


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_corpus_is_a_usage_error(capsys, tmp_path, kind):
    path = {"missing": tmp_path / "missing" / "x.txt", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.txt"}[kind]
    if kind == "not-utf8":
        path.write_bytes(b"mult(2)  # caf\xe9\n")
    code, out, err = run(capsys, ["harness", "L5.3", "--corpus", str(path)])
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and repr(str(path)) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_unknown_suite_id_is_a_precondition_error():
    with pytest.raises(PreconditionError) as info:
        run_harness(["NOPE"])
    assert str(info.value) == f"unknown lemma id 'NOPE'; valid: {', '.join(LEMMA_IDS)}"
