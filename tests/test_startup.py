"""The lazy package and the modules a cold CLI query loads.

Importing divfilters imports none of its modules; each exported name loads
its module on first use. A one-shot member or factor query loads neither
the dataclasses module nor the modules of the other commands; the harness
command loads every module of the package but not dataclasses.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import divfilters

# every name `import divfilters` exported when it imported all its modules
EXPORTED = [
    "Factorization", "divisors", "factorize", "is_prime", "nth_prime", "omega",
    "prime_index", "primes_upto",
    "BudgetExceededError", "DivfiltersError", "FilterConstructionError",
    "IncompleteEnumerationError", "ParseError", "PreconditionError",
    "ProofState", "Verdict", "proved", "refuted", "unknown",
    "EMPTY", "FACTORIALS", "N", "P", "Comp", "Down", "Empty", "Factorials", "Inter",
    "Level", "Lit", "Mult", "Nat", "PowSet", "Primes", "PrimesGeom", "PrimesIdx",
    "ProdSet", "Quot", "Scale", "SetExpr", "Union", "Up", "parse_expr", "render",
    "enumerate_upto", "is_infinite", "is_upward_closed", "member",
    "quotient_case_rule", "structurally_subset",
    "AntichainCertificate", "CoveringCertificate", "covering_witness",
    "extend_antichain", "find_antichain_of_size", "is_n_free", "lcm_extension",
    "max_strong_antichain",
    "FilterPresentation", "d_member", "divides_tilde", "filter_member",
    "interpolation_check", "make_filter", "parse_filter_spec", "principal",
    "product_member", "scale_filter",
    "ChainSpec", "ad_family", "build_chain", "verify_chain",
    "default_filters", "load_corpus", "random_expressions",
    "LEMMA_IDS", "HarnessCase", "HarnessParams", "HarnessReport", "run_harness",
]
MODULES = ["arith", "errors", "verdict", "setexpr", "semantics", "antichain",
           "filters", "chains", "corpus", "harness"]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(divfilters.__file__)))


def test_every_exported_name_imports():
    listed = set(dir(divfilters))
    for name in EXPORTED:
        value = getattr(divfilters, name)
        assert value is getattr(import_module(f"divfilters.{_module_of(name)}"), name), name
        assert name in listed, name
    assert sorted(divfilters.__all__) == sorted(EXPORTED)
    assert divfilters.__version__ == "0.1.0" and "__version__" in listed


def _module_of(name):
    for module in MODULES:
        if name in vars(import_module(f"divfilters.{module}")):
            return module
    raise AssertionError(f"{name} is defined in no module")


def test_star_import_brings_every_exported_name():
    namespace = {}
    exec("from divfilters import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert all(namespace[name] is getattr(divfilters, name) for name in EXPORTED)


def test_submodules_are_attributes_and_unknown_names_raise():
    for module in MODULES:
        assert getattr(divfilters, module).__name__ == f"divfilters.{module}"
        assert module in dir(divfilters)
    try:
        divfilters.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("expected AttributeError")


def _cold_query(argv):
    """Run `python -S -m divfilters.cli argv` in a fresh interpreter: its exit
    code, its stdout and every module it imported."""
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "divfilters.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    loaded = {line.split("|")[-1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    return child.returncode, child.stdout, loaded


def test_cold_member_and_factor_load_only_what_they_use():
    heavy = {"dataclasses", *(f"divfilters.{m}" for m in
                              ("filters", "antichain", "chains", "corpus", "harness"))}
    expected = {
        ("member", "mult(6)", "18", "--json"):
            '{"schema": "divfilters/1", "expr": "mult(6)", "m": 18, '
            '"state": "proved", "budget": 10000}\n',
        ("factor", "360", "--json"):
            '{"schema": "divfilters/1", "n": 360, "factors": {"2": 3, "3": 2, "5": 1}}\n',
    }
    for argv, text in expected.items():
        code, out, loaded = _cold_query(list(argv))
        assert (code, out) == (0, text), argv
        assert "divfilters.semantics" in loaded, argv
        assert not heavy & loaded, (argv, heavy & loaded)


def test_cold_harness_loads_no_dataclasses():
    code, out, loaded = _cold_query(["harness", "T3.3", "--json"])
    assert code == 0 and json.loads(out)["passed"] is True
    assert "divfilters.harness" in loaded
    assert "dataclasses" not in loaded
