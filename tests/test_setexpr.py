import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfilters import load_corpus
from divfilters.errors import ParseError, PreconditionError
from divfilters.semantics import (
    evaluate_range,
    is_upward_closed,
    member,
    quotient_case_rule,
    simplify,
)
from divfilters.setexpr import (
    MAX_DEPTH,
    N,
    NODE_CLASSES,
    P,
    Comp,
    Inter,
    Level,
    Lit,
    Mult,
    PowSet,
    PrimesGeom,
    PrimesIdx,
    ProdSet,
    Quot,
    Scale,
    Union,
    Up,
    depth,
    map_children,
    parse_expr,
    render,
)
from strategies import wide_exprs


def test_parse_simple_atoms():
    assert parse_expr("mult(6)") == Mult(6)
    assert parse_expr("up(inter(level(2),comp({4})))") == Up(
        Inter(Level(2), Comp(Lit(frozenset({4}))))
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("up(")
    assert exc.value.position == 3


def test_parse_whitespace_insensitive():
    assert parse_expr(" union( mult(2) , mult(3) ) ") == parse_expr(
        "union(mult(2),mult(3))"
    )


def test_render_roundtrip_corpus():
    for e in load_corpus():
        text = render(e)
        assert parse_expr(text) == e
        # canonical: re-rendering is a fixed point
        assert render(parse_expr(text)) == text


def test_parameter_ranges():
    with pytest.raises((ParseError, Exception)):
        parse_expr("primesIdx(5,4)")  # r must be within 1..m
    with pytest.raises((ParseError, Exception)):
        parse_expr("mult(0)")
    with pytest.raises(ParseError):
        parse_expr("prodset()")


def test_primesidx_residue_bounds():
    e = parse_expr("primesIdx(3,4)")
    assert isinstance(e, PrimesIdx) and (e.r, e.m) == (3, 4)


def test_node_count_and_depth():
    e = parse_expr("up(inter(level(2),comp({4})))")
    assert depth(e) == 4


def test_lit_renders_sorted():
    assert render(parse_expr("{9,2,4}")) == "{2,4,9}"


def _nested(levels: int, leaf: str = "mult(6)") -> str:
    """`levels` wrappers, cycling through the unary and binary combinators,
    around `leaf`: an expression of depth levels + 1."""
    wraps = [("comp(", ")"), ("union({9},", ")"), ("inter(N,", ")"),
             ("quot(", ",1)"), ("scale(", ",1)")]
    text = leaf
    for i in range(levels):
        head, tail = wraps[i % len(wraps)]
        text = head + text + tail
    return text


@pytest.mark.parametrize("text", [
    "comp(" * (MAX_DEPTH - 1) + "N" + ")" * (MAX_DEPTH - 1),
    _nested(MAX_DEPTH - 1),
], ids=["comp-chain", "mixed-chain"])
def test_expression_at_max_depth_is_usable(text):
    e = parse_expr(text)
    assert depth(e) == MAX_DEPTH
    assert render(e) == text
    states = [member(e, m, 100).state for m in range(1, 31)]
    bulk = evaluate_range(e, 30, 100)
    assert [m for m in range(1, 31) if bulk[m] == 1] == \
        [m for m in range(1, 31) if states[m - 1].value == "proved"]
    assert 2 not in bulk
    is_upward_closed(e, 100)
    assert [member(simplify(e), m, 100).state for m in range(1, 31)] == states


def test_expression_past_max_depth_is_a_parse_error():
    text = "comp(" * MAX_DEPTH + "N" + ")" * MAX_DEPTH
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.position == 5 * MAX_DEPTH
    with pytest.raises(ParseError):
        parse_expr("prodset(N," + _nested(MAX_DEPTH - 1) + ")")


@given(wide_exprs)
@settings(max_examples=300, deadline=None)
def test_render_roundtrip_generated(e):
    text = render(e)
    assert parse_expr(text) == e
    assert render(parse_expr(text)) == text


def test_level_zero_is_the_set_of_one():
    assert parse_expr("level(0)") == Level(0)
    assert parse_expr(" level( 00 ) ") == Level(0)
    assert render(Level(0)) == "level(0)"
    assert [m for m in range(1, 10) if member(Level(0), m).state.value == "proved"] == [1]


@given(wide_exprs)
@settings(max_examples=300, deadline=None)
def test_map_children_identity(e):
    assert map_children(e, lambda c: c) == e
    # a node with no expression child comes back as itself
    assert all(map_children(a, render) is a for a in (Mult(6), Level(0), Lit(frozenset({4}))))


@given(wide_exprs)
@settings(max_examples=200, deadline=None)
def test_equal_nodes_hash_equal(e):
    again = parse_expr(render(e))
    assert again == e and again is not e
    assert hash(again) == hash(e)
    assert {e: 1}[again] == 1


def test_equality_needs_the_same_class_and_fields():
    a, b = Mult(2), Lit(frozenset({3}))
    assert Union(a, b) == Union(Mult(2), Lit(frozenset({3})))
    assert Union(a, b) != Inter(a, b)
    assert Union(a, b) != Union(b, a)
    assert Mult(2) != Level(2)
    assert Quot(a, 2) != Scale(a, 2)
    assert Mult(2) != 2 and Mult(2) != (2,)


def test_nodes_are_immutable():
    e = Quot(Mult(4), 2)
    for name, value in [("inner", Mult(2)), ("n", 3), ("_hash", 0), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(e, name, value)
    with pytest.raises(AttributeError):
        del e.inner
    assert e == Quot(Mult(4), 2) and hash(e) == hash(Quot(Mult(4), 2))
    with pytest.raises(AttributeError):
        Mult(2).__dict__


# Each call that builds a node the grammar cannot write, with its message: a
# field its sig declares a natural holds a float, a bool or a natural out of
# range, a "+" field is empty or in a list or set (unhashable), or the fields
# break a class's own condition
_NAT = "must be a natural >= 1"
_OFF_SIG = [
    (Lit, (frozenset(),), "Lit elements must be one or more naturals >= 1"),
    (Lit, (frozenset({True}),), "Lit elements must be one or more naturals >= 1"),
    (Lit, (frozenset({2.5}),), "Lit elements must be one or more naturals >= 1"),
    (Lit, (frozenset({0}),), "Lit elements must be one or more naturals >= 1"),
    (Lit, ({2, 3},), "Lit elements must be a frozenset"),
    (quotient_case_rule, (frozenset(), 5), "B must hold at least one prime"),
    (Mult, (2.5,), f"Mult n {_NAT}"),
    (Mult, (True,), f"Mult n {_NAT}"),
    (Mult, (0,), f"Mult n {_NAT}"),
    (Level, (0.5,), "Level n must be a natural >= 0"),
    (Level, (-1,), "Level n must be a natural >= 0"),
    (PrimesIdx, (1.5, 2), f"PrimesIdx r {_NAT}"),
    (PrimesIdx, (1, 2.0), f"PrimesIdx m {_NAT}"),
    (PrimesIdx, (0, 1), f"PrimesIdx r {_NAT}"),
    (PrimesIdx, (5, 4), "primesIdx requires 1 <= r <= m"),
    (PrimesGeom, (1, 2.0), f"PrimesGeom q {_NAT}"),
    (PrimesGeom, (0, 2), f"PrimesGeom c {_NAT}"),
    (PrimesGeom, (1, 1), "primesGeom requires c >= 1 and q >= 2"),
    (PowSet, (P, 2.0), f"PowSet n {_NAT}"),
    (PowSet, (P, 0), f"PowSet n {_NAT}"),
    (ProdSet, ((),), "ProdSet args must be one or more expressions"),
    (ProdSet, ([P, P],), "ProdSet args must be a tuple"),
    (Quot, (N, True), f"Quot n {_NAT}"),
    (Quot, (N, 0), f"Quot n {_NAT}"),
    (Scale, (N, 1.5), f"Scale n {_NAT}"),
    (Scale, (N, 0), f"Scale n {_NAT}"),
]


@pytest.mark.parametrize("build,args,message", _OFF_SIG,
                         ids=[f"{build.__name__}{args}" for build, args, _ in _OFF_SIG])
def test_fields_outside_the_sig_are_refused(build, args, message):
    with pytest.raises(PreconditionError) as exc:
        build(*args)
    assert str(exc.value) == message


def test_only_nodes_with_a_field_to_check_run_a_check():
    # a node whose fields are all single expressions, or that has none,
    # is built by an __init__ with no guard in it
    unchecked = {cls for cls in NODE_CLASSES if not cls._guards}
    assert unchecked == {cls for cls in NODE_CLASSES if not set(cls.sig) - {"e"}}
    assert {cls.head for cls in unchecked} == {
        "N", "P", "empty", "factorials", "comp", "union", "inter", "up", "down"}


# The field tests the node classes ran, as functions, before they were
# compiled into __init__: the reference the guards must agree with. Each
# kind's tests in turn, then the class's own test across its fields.
_REFERENCE_KINDS = {
    "n": ((lambda x: type(x) is int and x >= 1, "a natural >= 1"),),
    "z": ((lambda x: type(x) is int and x >= 0, "a natural >= 0"),),
    "n+": ((lambda xs: isinstance(xs, frozenset), "a frozenset"),
           (lambda xs: bool(xs) and all(type(x) is int and x >= 1 for x in xs),
            "one or more naturals >= 1")),
    "e+": ((lambda xs: isinstance(xs, tuple), "a tuple"),
           (bool, "one or more expressions")),
}
_REFERENCE_ACROSS = {
    PrimesIdx: (lambda r, m: r <= m, "primesIdx requires 1 <= r <= m"),
    PrimesGeom: (lambda c, q: q >= 2, "primesGeom requires c >= 1 and q >= 2"),
}


def _reference_refusal(cls, values):
    """The message the reference refuses values with, or None if it accepts them."""
    for name, kind, value in zip(cls._fields, re.findall(r".\+?", cls.sig), values):
        for test, words in _REFERENCE_KINDS.get(kind, ()):
            if not test(value):
                return f"{cls.__name__} {name} must be {words}"
    if cls in _REFERENCE_ACROSS:
        test, message = _REFERENCE_ACROSS[cls]
        if not test(*values):
            return message
    return None


# a value that fits each kind, and values of every sort
_FITS = {"e": st.sampled_from([N, P]), "n": st.integers(1, 12), "z": st.integers(0, 12),
         "n+": st.frozensets(st.integers(1, 12), min_size=1, max_size=3),
         "e+": st.lists(st.sampled_from([N, P]), min_size=1, max_size=3).map(tuple)}
_scalars = st.one_of(st.integers(-1, 12), st.sampled_from([0, -1, True, False]),
                     st.floats(), st.text(max_size=2))
_any_value = st.one_of(
    _scalars, st.sets(_scalars, max_size=3), st.frozensets(_scalars, max_size=3),
    st.lists(_scalars, max_size=3), st.lists(_scalars, max_size=3).map(tuple))


def _drawn_fields(cls):
    # each field fits its kind half the time, so that every class is also built
    return st.tuples(*(
        st.booleans().flatmap(lambda fits, kind=kind: _FITS[kind] if fits else _any_value)
        for kind in re.findall(r".\+?", cls.sig)))


@given(st.sampled_from(NODE_CLASSES).flatmap(
    lambda cls: st.tuples(st.just(cls), _drawn_fields(cls))))
@settings(max_examples=500, deadline=None)
def test_guards_refuse_what_the_reference_refuses(drawn):
    cls, values = drawn
    message = _reference_refusal(cls, values)
    if message is None:
        assert cls(*values)._values() == values
    else:
        with pytest.raises(PreconditionError) as exc:
            cls(*values)
        assert str(exc.value) == message


def test_nodes_survive_copy_and_pickle():
    e = parse_expr("union(quot(mult(4),2),prodset(P,{2,3},level(0)))")
    for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert again == e and hash(again) == hash(e)


# Each malformed input with its message and offset, as the parser gave them
# before the grammar became one table
_MALFORMED = [
    ("", "expected an expression", 0),
    ("N(", "trailing input after expression", 1),
    ("P P", "trailing input after expression", 2),
    ("empty)", "trailing input after expression", 5),
    ("factorials,", "trailing input after expression", 10),
    ("{}", "expected a natural number", 1),
    ("{0}", "naturals start at 1", 1),
    ("{2,}", "expected a natural number", 3),
    ("{2 3}", "expected '}'", 3),
    ("mult(0)", "naturals start at 1", 5),
    ("mult 6", "expected '('", 5),
    ("mult(6", "expected ')'", 6),
    ("level(-1)", "expected a natural number", 6),
    ("level(1,2)", "expected ')'", 7),
    ("primesIdx(5,4)", "primesIdx requires 1 <= r <= m", 0),
    ("primesIdx(0,1)", "naturals start at 1", 10),
    ("primesIdx(1)", "expected ','", 11),
    ("primesGeom(1,1)", "primesGeom requires c >= 1 and q >= 2", 0),
    ("primesGeom(0,2)", "naturals start at 1", 11),
    ("pow(P)", "expected ','", 5),
    ("pow(P,0)", "naturals start at 1", 6),
    ("prodset()", "expected an expression", 8),
    ("prodset(P,)", "expected an expression", 10),
    ("comp(P,P)", "expected ')'", 6),
    ("union(P)", "expected ','", 7),
    ("inter(P,P", "expected ')'", 9),
    ("up()", "expected an expression", 3),
    ("down(P", "expected ')'", 6),
    ("quot(P,0)", "naturals start at 1", 7),
    ("scale(P,0)", "naturals start at 1", 8),
    ("scale(mult(2),x)", "expected a natural number", 14),
    ("foo(1)", "unknown expression head 'foo'", 0),
    ("inter(Up(N),P)", "unknown expression head 'Up'", 6),
    ("mult(6) x", "trailing input after expression", 8),
    ("mult(\u00b2)", "expected a natural number", 5),
    ("{\u0661}", "expected a natural number", 1),
    ("mult(" + "1" * 5000 + ")", "natural number has too many digits", 5),
    ("comp(" * MAX_DEPTH + "N" + ")" * MAX_DEPTH,
     f"expression nested deeper than {MAX_DEPTH} levels", 5 * MAX_DEPTH),
]


@pytest.mark.parametrize("text,message,offset", _MALFORMED, ids=[t[:16] for t, _, _ in _MALFORMED])
def test_malformed_input_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert (str(exc.value), exc.value.position) == (f"{message} (at offset {offset})", offset)
