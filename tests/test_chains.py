import itertools

import pytest

from divfilters.arith import DEFAULT_SIEVE_CAP, omega
from divfilters.chains import ChainSpec, ad_family, build_chain, verify_chain
from divfilters.errors import BudgetExceededError, PreconditionError
from divfilters.filters import divides_tilde, make_filter, principal
from divfilters.semantics import enumerate_upto
from divfilters.setexpr import Lit, PrimesGeom, PrimesIdx, ProdSet, Union, Up, parse_expr

BUDGET = 10**4


def test_ad_family_residue():
    fam = ad_family(4, "residue")
    assert fam == [PrimesIdx(r, 4) for r in (1, 2, 3, 4)]
    assert ad_family(1, "residue") == [PrimesIdx(1, 1)]


@pytest.mark.parametrize("scheme", ["residue", "tree"])
def test_ad_family_past_the_sieve_cap_raises(scheme):
    with pytest.raises(BudgetExceededError, match=f"sieve cap {DEFAULT_SIEVE_CAP}$"):
        ad_family(DEFAULT_SIEVE_CAP + 1, scheme)


def test_ad_family_tree_pairwise_small_intersections():
    fam = ad_family(8, "tree")
    bound = 10**4
    sets = [set(enumerate_upto(a, bound, bound)[0]) for a in fam]
    import math

    cap = int(math.log2(10**5))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert len(sets[i] & sets[j]) <= cap


@pytest.mark.parametrize("scheme", ["residue", "tree"])
def test_ad_family_members_meet_only_where_the_scheme_allows(scheme):
    # what chains rely on: residue members are disjoint, and two tree
    # members share only primes in both of their literal prefix sets
    for k in (1, 2, 3, 8, 16, 40):
        family = ad_family(k, scheme)
        members = [set(enumerate_upto(a, BUDGET, BUDGET)[0]) for a in family]
        assert all(members)
        for i, j in itertools.combinations(range(k), 2):
            if scheme == "residue":
                assert not members[i] & members[j]
            else:
                shared = family[i].left.elements & family[j].left.elements
                assert members[i] & members[j] <= shared


def test_build_chain_shape():
    chain = build_chain(3, scheme="residue")
    assert len(chain.family) == 3
    assert chain.links[0].principal and chain.links[0].point == 1
    for j in range(1, 4):
        gen = chain.links[j].gens[0]
        assert gen == parse_expr(
            "up(prodset(" + ",".join(f"primesIdx({r},3)" for r in range(1, j + 1)) + "))"
        )


def test_build_chain_trivial_and_rejections():
    chain = build_chain(0)
    assert len(chain.family) == 0 and len(chain.links) == 1
    with pytest.raises(PreconditionError):
        build_chain(-1)
    with pytest.raises(PreconditionError):
        build_chain(2, scheme="nope")


def test_chain_law():
    chain = build_chain(4, scheme="residue")
    for j in range(4):
        assert divides_tilde(chain.links[j], chain.links[j + 1], BUDGET).proved


def test_verify_chain_passes_both_schemes():
    for scheme in ("residue", "tree"):
        chain = build_chain(3, scheme=scheme)
        report = verify_chain(chain, 10**6, BUDGET)
        assert report.passed, scheme
        assert len(report.pairs) == 12


def test_verify_chain_detects_permuted_links():
    chain = build_chain(3, scheme="residue")
    links = list(chain.links)
    links[1], links[3] = links[3], links[1]
    broken = ChainSpec(chain.family, tuple(links), chain.scheme)
    report = verify_chain(broken, 10**6, BUDGET)
    assert not report.passed
    violated = [(p.beta, p.alpha) for p in report.pairs if not p.ok]
    assert violated


def test_chain_level_law():
    chain = build_chain(3, scheme="residue")
    for j in range(1, 4):
        prod = ProdSet(chain.family[:j])
        members, _ = enumerate_upto(prod, 2000, BUDGET)
        assert members, f"no products <= 2000 at level {j}"
        for m in members:
            assert omega(m) == j
        core_members, _ = enumerate_upto(chain.links[j].core, 2000, BUDGET)
        for m in core_members:
            assert omega(m) >= j


def test_chain_spec_serializes():
    chain = build_chain(2, scheme="residue")
    payload = chain.to_json()
    assert payload["k"] == 2 and payload["scheme"] == "residue"
    assert len(payload["links"]) == 3


def test_omission_witness_inside_target_is_not_proved():
    # 1 lies in the second member, so its upward closure is all of N and
    # every avoiding product meets it; that shows an overlap, not inclusion.
    # The chain has the links build_chain makes, over a family it never uses.
    family = (
        Union(Lit(frozenset({2})), PrimesGeom(2, 2)),
        Union(Lit(frozenset({1})), PrimesGeom(3, 2)),
    )
    links = (principal(1),) + tuple(make_filter([Up(ProdSet(family[:j]))]) for j in (1, 2))
    chain = ChainSpec(family, links, "by-hand")
    report = verify_chain(chain, 1000, BUDGET)
    pair = next(p for p in report.pairs if (p.beta, p.alpha) == (1, 1))
    assert pair.verdict.unknown and pair.verdict.certificate == 2
    assert not pair.ok and not report.passed


def test_long_chains_build_and_verify():
    # each link's witness is a product of j primes; up() asks its prime
    # product about the j-fold products only, not all 2^j divisors
    assert verify_chain(build_chain(20)).passed
    chain = build_chain(40)
    assert len(chain.links) == 41
    assert [omega(link.fip_witness) for link in chain.links] == list(range(41))
