"""Symbolic set algebra over N, finitely presented filters, strong
antichains and finite divisibility chains, with certificate-producing
three-valued decision procedures."""

from .arith import (
    Factorization,
    coprime_lcm,
    divisors,
    factorize,
    is_prime,
    nth_prime,
    omega,
    prime_index,
    primes_upto,
)
from .errors import (
    BudgetExceededError,
    DivfiltersError,
    FilterConstructionError,
    IncompleteEnumerationError,
    ParseError,
    PreconditionError,
)
from .verdict import ProofState, Verdict, proved, refuted, unknown
from .setexpr import (
    EMPTY,
    FACTORIALS,
    N,
    P,
    Comp,
    Down,
    Empty,
    Factorials,
    Inter,
    Level,
    Lit,
    Mult,
    Nat,
    PowSet,
    Primes,
    PrimesGeom,
    PrimesIdx,
    ProdSet,
    Quot,
    Scale,
    SetExpr,
    Union,
    Up,
    lit,
    parse_expr,
    render,
)
from .semantics import (
    enumerate_upto,
    is_infinite,
    is_upward_closed,
    member,
    quotient_case_rule,
    structurally_subset,
)
from .antichain import (
    AntichainCertificate,
    CoveringCertificate,
    covering_witness,
    extend_antichain,
    find_antichain_of_size,
    is_n_free,
    lcm_extension,
    max_strong_antichain,
)
from .filters import (
    FilterPresentation,
    a_sub_h,
    d_member,
    divides_tilde,
    filter_member,
    interpolation_check,
    make_filter,
    parse_filter_spec,
    principal,
    product_member,
    scale_filter,
)
from .chains import (
    ChainSpec,
    ad_family,
    build_chain,
    max_approx,
    verify_chain,
)
from .corpus import default_filters, load_corpus, random_expressions
from .harness import (
    LEMMA_IDS,
    HarnessCase,
    HarnessParams,
    HarnessReport,
    run_harness,
)

__version__ = "0.1.0"
