"""Hypothesis strategies for set expressions, shared by the test modules.

`exprs` generates the Down-free fragment, where member() always decides.
`wide_exprs` adds the remaining atoms and combinators (down, pow, prodset,
factorials, primesGeom, N, empty), so UnknownAtBound verdicts occur too.
"""

from hypothesis import strategies as st

from divfilters.setexpr import (
    EMPTY,
    FACTORIALS,
    N,
    Comp,
    Down,
    Inter,
    Level,
    Lit,
    Mult,
    PowSet,
    Primes,
    PrimesGeom,
    PrimesIdx,
    ProdSet,
    Quot,
    Scale,
    Union,
    Up,
)

_atoms = st.one_of(
    st.builds(Mult, st.integers(1, 30)),
    st.builds(Level, st.integers(1, 4)),
    st.just(Primes()),
    st.builds(
        Lit,
        st.frozensets(st.integers(1, 60), min_size=1, max_size=5),
    ),
    st.builds(lambda r: PrimesIdx(r, 3), st.integers(1, 3)),
)


def _combine(children):
    return st.one_of(
        st.builds(Union, children, children),
        st.builds(Inter, children, children),
        st.builds(Comp, children),
        st.builds(Up, children),
        st.builds(Quot, children, st.integers(1, 6)),
        st.builds(Scale, children, st.integers(1, 6)),
    )


exprs = st.recursive(_atoms, _combine, max_leaves=4)

_wide_atoms = st.one_of(
    _atoms,
    st.sampled_from([N, EMPTY, FACTORIALS]),
    st.builds(Level, st.integers(0, 2)),
    st.builds(PrimesGeom, st.integers(1, 4), st.integers(2, 3)),
    # Unknown wherever no element lies within the budget
    st.builds(lambda s: Down(Lit(s)), st.frozensets(st.integers(1, 2000), min_size=1, max_size=3)),
)


def _wide_combine(children):
    return st.one_of(
        _combine(children),
        st.builds(Down, children),
        st.builds(PowSet, children, st.integers(1, 3)),
        st.builds(lambda a, b: ProdSet((a, b)), children, children),
    )


wide_exprs = st.recursive(_wide_atoms, _wide_combine, max_leaves=4)
