"""Three-valued proof state with certificates.

Proved and Refuted are final: re-running a query with a larger budget must
never flip them. UnknownAtBound records the budget at which search stopped.

The three states are also bound once as module constants, _PROVED, _REFUTED
and _UNKNOWN, which the state checks and constructors here and the member
handlers in semantics use. On Python 3.11 reading ProofState.PROVED goes
through the Enum metaclass and costs about 130 ns, where a global read
costs a fraction of that, and the harness builds and tests millions of
verdicts a run.
"""

from __future__ import annotations

from enum import Enum

# version tag of every JSON payload: CLI output and harness reports
SCHEMA_VERSION = "divfilters/1"


class ProofState(Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown-at-bound"


_PROVED = ProofState.PROVED
_REFUTED = ProofState.REFUTED
_UNKNOWN = ProofState.UNKNOWN


class Verdict:
    """Outcome of a (possibly semi-decidable) query.

    certificate is an optional witness: a natural number, a finite tuple/set,
    or the name of the structural rule that applied.
    """

    __slots__ = ("state", "budget", "certificate")

    def __init__(self, state: ProofState, budget: int, certificate: object = None):
        self.state = state
        self.budget = budget
        self.certificate = certificate

    @property
    def proved(self) -> bool:
        return self.state is _PROVED

    @property
    def refuted(self) -> bool:
        return self.state is _REFUTED

    @property
    def unknown(self) -> bool:
        return self.state is _UNKNOWN

    @property
    def decided(self) -> bool:
        return self.state is not _UNKNOWN

    def __repr__(self):
        cert = f", certificate={self.certificate!r}" if self.certificate is not None else ""
        return f"Verdict({self.state.value}, budget={self.budget}{cert})"

    def to_json(self) -> dict:
        out = {"state": self.state.value, "budget": self.budget}
        if self.certificate is not None:
            cert = self.certificate
            if hasattr(cert, "to_json"):
                cert = cert.to_json()
            elif isinstance(cert, (set, frozenset)):
                cert = sorted(cert)
            elif isinstance(cert, tuple):
                cert = list(cert)
            out["certificate"] = cert
        return out


def proved(budget: int, certificate: object = None) -> Verdict:
    return Verdict(_PROVED, budget, certificate)


def refuted(budget: int, certificate: object = None) -> Verdict:
    return Verdict(_REFUTED, budget, certificate)


def unknown(budget: int, certificate: object = None) -> Verdict:
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
