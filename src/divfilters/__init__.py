"""Symbolic set algebra over N, finitely presented filters, strong
antichains and finite divisibility chains, with certificate-producing
three-valued decision procedures.

Names load on first use: importing the package imports none of its
modules, and `divfilters.<name>` imports the module that defines the name
the first time it is read, then binds it here (PEP 562). A one-shot query
therefore pays only for the modules it runs.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# each exported name, under the module that defines it
_EXPORTS = {
    "arith": (
        "Factorization", "coprime_lcm", "divisors", "factorize", "is_prime",
        "nth_prime", "omega", "prime_index", "primes_upto",
    ),
    "errors": (
        "BudgetExceededError", "DivfiltersError", "FilterConstructionError",
        "IncompleteEnumerationError", "ParseError", "PreconditionError",
    ),
    "verdict": ("ProofState", "Verdict", "proved", "refuted", "unknown"),
    "setexpr": (
        "EMPTY", "FACTORIALS", "N", "P", "Comp", "Down", "Empty", "Factorials",
        "Inter", "Level", "Lit", "Mult", "Nat", "PowSet", "Primes", "PrimesGeom",
        "PrimesIdx", "ProdSet", "Quot", "Scale", "SetExpr", "Union", "Up", "lit",
        "parse_expr", "render",
    ),
    "semantics": (
        "enumerate_upto", "is_infinite", "is_upward_closed", "member",
        "quotient_case_rule", "structurally_subset",
    ),
    "antichain": (
        "AntichainCertificate", "CoveringCertificate", "covering_witness",
        "extend_antichain", "find_antichain_of_size", "is_n_free",
        "lcm_extension", "max_strong_antichain",
    ),
    "filters": (
        "FilterPresentation", "a_sub_h", "d_member", "divides_tilde",
        "filter_member", "interpolation_check", "make_filter",
        "parse_filter_spec", "principal", "product_member", "scale_filter",
    ),
    "chains": ("ChainSpec", "ad_family", "build_chain", "max_approx", "verify_chain"),
    "corpus": ("default_filters", "load_corpus", "random_expressions"),
    "harness": ("LEMMA_IDS", "HarnessCase", "HarnessParams", "HarnessReport", "run_harness"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
