import pytest

from divfilters import load_corpus
from divfilters.errors import ParseError
from divfilters.semantics import evaluate_range, is_upward_closed, member, simplify
from divfilters.setexpr import (
    MAX_DEPTH,
    Comp,
    Inter,
    Level,
    Lit,
    Mult,
    PrimesIdx,
    Up,
    depth,
    node_count,
    parse_expr,
    render,
)


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
    assert node_count(e) == 5
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
    proved, unknown = evaluate_range(e, 30, 100)
    assert [m for m in range(1, 31) if proved[m]] == \
        [m for m in range(1, 31) if states[m - 1].value == "proved"]
    assert not any(unknown)
    is_upward_closed(e, 100)
    assert [member(simplify(e), m, 100).state for m in range(1, 31)] == states


def test_expression_past_max_depth_is_a_parse_error():
    text = "comp(" * MAX_DEPTH + "N" + ")" * MAX_DEPTH
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.position == 5 * MAX_DEPTH
    with pytest.raises(ParseError):
        parse_expr("prodset(N," + _nested(MAX_DEPTH - 1) + ")")
