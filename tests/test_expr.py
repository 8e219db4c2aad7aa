"""Expression language: parsing, evaluation, round-trips, error spans."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub.expr import (Coord, ExprError, Pow, _Tokenizer, eval_expr,
                          parse_expression, parse_predicate, to_text)
from confsub.jets import primal

COORDS = {"x1", "x2", "x3"}


def ev(text, **env):
    return primal(eval_expr(parse_expression(text, COORDS), env))


@pytest.mark.parametrize("text,env,expected", [
    ("2 + 3*4", {}, 14.0),
    ("-x1^2", {"x1": 3.0}, -9.0),            # unary minus binds below ^
    ("(1 - x1)/(1 + x1)", {"x1": 0.5}, 1.0 / 3.0),
    ("exp(-2*x2)", {"x2": 0.5}, math.exp(-1.0)),
    ("x3^-2", {"x3": 2.0}, 0.25),
    ("x1^(1/2)", {"x1": 9.0}, 3.0),
    ("x1^(-3/2)", {"x1": 4.0}, 0.125),
    ("2 + sin(x3)*cos(x3)", {"x3": 0.7},
     2 + math.sin(0.7) * math.cos(0.7)),
    ("sqrt(x1*x1)", {"x1": 5.0}, 5.0),
    ("log(exp(x2))", {"x2": 1.25}, 1.25),
])
def test_evaluation(text, env, expected):
    assert ev(text, **env) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("text", [
    "2 +", "x9", "exp", "exp()", "1 ^ x1", "x1^(1/x2)", "(1+2", "1..2",
    "x1 @ 2", "sin 3",
])
def test_syntax_errors_have_positions(text):
    with pytest.raises(ExprError) as err:
        parse_expression(text, COORDS)
    assert err.value.pos >= 0
    assert "column" in str(err.value)


@pytest.mark.parametrize("text", ["x1^(1/0)", "x1^(-3/0)", "x1^-(0/0)"])
def test_zero_denominator_exponent_is_a_syntax_error(text):
    # a rational exponent over 0 is an ExprError at the denominator, not
    # a ZeroDivisionError
    with pytest.raises(ExprError, match="zero denominator") as err:
        parse_expression(text, COORDS)
    assert text[err.value.pos:] == "0)"


def test_unknown_coordinate_rejected():
    with pytest.raises(ExprError):
        parse_expression("y1 + 1", COORDS)


@pytest.mark.parametrize("text", [
    "exp(-2*x2)", "x3^-2 + 1", "(x1 + x2)*(x1 - x2)", "-x1*sin(x2)/3",
    "2 - x1 - x2", "x1/(x2/x3)", "x1^(3/2) - sqrt(2 + cos(x3))",
])
def test_text_round_trip(text):
    node = parse_expression(text, COORDS)
    rendered = to_text(node)
    reparsed = parse_expression(rendered, COORDS)
    env = {"x1": 1.3, "x2": 0.4, "x3": 2.1}
    assert primal(eval_expr(reparsed, env)) == pytest.approx(
        primal(eval_expr(node, env)), rel=1e-15)
    # rendering is a fixed point after one round trip
    assert to_text(reparsed) == rendered


@pytest.mark.parametrize("text,env,expected", [
    ("x1 > 0", {"x1": 0.5}, True),
    ("x1 > 0", {"x1": -0.5}, False),
    ("x1 > 0 and x2 <= 1", {"x1": 1.0, "x2": 1.0}, True),
    ("x1 >= 2 or x2 < 0", {"x1": 1.0, "x2": -0.1}, True),
])
def test_predicates(text, env, expected):
    node = parse_predicate(text, COORDS)
    assert bool(eval_expr(node, env)) is expected


def test_predicate_operators_rejected_in_expressions():
    with pytest.raises(ExprError):
        parse_expression("x1 > 0", COORDS)


@settings(max_examples=60, deadline=None)
@given(st.text(
    alphabet="x123 +-*/^().", min_size=0, max_size=24))
def test_parser_totality(text):
    # arbitrary input either parses or raises a positioned ExprError;
    # nothing else may escape
    try:
        parse_expression(text, COORDS)
    except ExprError as err:
        assert err.pos >= 0


@pytest.mark.parametrize("text,exponent", [
    ("x1^(1/2)", Fraction(1, 2)), ("x1^(-2/6)", Fraction(-1, 3)),
    ("x1^(4/2)", 2), ("x1^-3", -3), ("x1^2", 2), ("x1^-(6/3)", -2)])
def test_integer_exponents_are_ints_equal_to_their_fractions(text, exponent):
    # an integer exponent is an int, a rational one a reduced Fraction;
    # either compares and hashes as the Fraction of the same value, so
    # nodes built either way are equal
    node = parse_expression(text, COORDS)
    assert type(node.exponent) is type(exponent)
    assert node.exponent == exponent == Fraction(exponent)
    as_fraction = Pow(Coord("x1"), Fraction(exponent))
    assert node == as_fraction and hash(node) == hash(as_fraction)
    assert parse_expression(to_text(node), COORDS) == node


_PUNCT = ("<=", ">=", "+", "-", "*", "/", "^", "(", ")", "<", ">")


def reference_tokens(text):
    """The tokens of ``text`` by a scan of one character at a time, with
    str's own character classes: the tokenizer's reference."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        p = next((p for p in _PUNCT if text.startswith(p, i)), None)
        if p is not None:
            tokens.append(("punct", p, i))
            i += len(p)
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            # exponent part of a float literal, e.g. 1.5e-3
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    while k < len(text) and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", text, i)
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(scan, text):
    try:
        return scan(text)
    except ExprError as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="<>=+-*/^()0123456789.eE_abxyzXé"
               " \t\n\r\f\v\x1c\xa0\u2003\u3000$;!", max_size=16))
def test_tokenizer_matches_the_character_scan(text):
    # the one-pattern tokenizer gives the reference's tokens, or its error
    assert (_tokens_or_error(lambda t: _Tokenizer(t).tokens, text)
            == _tokens_or_error(reference_tokens, text))


@pytest.mark.parametrize("text,message", [
    # a numeric character that is no letter is no name
    ("x1 + \u00bd", "unexpected character '\u00bd' (column 6 in 'x1 + \u00bd')"),
    # a digit that is not decimal is no number either: the character scan
    # took it as one, which then failed as "malformed number"
    ("x1 + \u00b2", "unexpected character '\u00b2' (column 6 in 'x1 + \u00b2')"),
    ("x1 $ x2", "unexpected character '$' (column 4 in 'x1 $ x2')"),
    ("x1 + 1.2.3", "malformed number '1.2.3' (column 6 in 'x1 + 1.2.3')"),
])
def test_tokenizer_errors(text, message):
    with pytest.raises(ExprError) as err:
        parse_expression(text, COORDS)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["x\u00b2", "x\u00bd_2", "\u00e9\u00b2 + 1"])
def test_numeric_characters_continue_a_name(text):
    # inside a name every alphanumeric character counts, as in the scan
    assert _Tokenizer(text).tokens == reference_tokens(text)
