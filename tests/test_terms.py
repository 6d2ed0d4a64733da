"""Term grammar, printing, evaluation, and exhaustive law checking.

Format/parse stability is exercised two ways: a fixed seeded corpus of
10_000 random trees, and a hypothesis fuzzer over the same node shapes.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from shefferkit import (
    Apply,
    Law,
    NamedConstant,
    ParseError,
    Variable,
    check_law,
    eval_term,
    format_law,
    format_term,
    parse_law,
    parse_term,
    term_variables,
)
from shefferkit.terms import _check_loop

VARS = ("x", "y", "z", "u", "v", "w")


def random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Variable(rng.choice(VARS))
    if roll < 0.40:
        return NamedConstant(rng.choice(("bottom", "top")))
    if roll < 0.55:
        sub = random_term(rng, depth - 1)
        return Apply(sub, sub)  # what the prime sugar produces
    return Apply(random_term(rng, depth - 1), random_term(rng, depth - 1))


TREES = st.recursive(
    st.sampled_from([Variable(v) for v in VARS]
                    + [NamedConstant("bottom"), NamedConstant("top")]),
    lambda kids: st.tuples(kids, kids).map(lambda p: Apply(*p)),
    max_leaves=40,
)


class TestParsing:
    def test_axiom_shape(self):
        t = parse_term("(x|y)|(x|x)")
        assert t == Apply(Apply(Variable("x"), Variable("y")),
                          Apply(Variable("x"), Variable("x")))

    def test_prime_sugar(self):
        assert parse_term("x'") == Apply(Variable("x"), Variable("x"))
        # prime binds tighter than |
        assert parse_term("x|y'") == Apply(
            Variable("x"), Apply(Variable("y"), Variable("y")))

    def test_left_associative(self):
        assert parse_term("x|y|z") == parse_term("(x|y)|z")
        assert parse_term("x|y|z") != parse_term("x|(y|z)")

    def test_constants_and_space(self):
        assert parse_term(" 0 | 1 ") == Apply(
            NamedConstant("bottom"), NamedConstant("top"))

    def test_double_prime(self):
        inner = Apply(Variable("x"), Variable("x"))
        assert parse_term("x''") == Apply(inner, inner)

    @pytest.mark.parametrize("bad,pos", [
        ("", 0),
        ("(x|y", 4),
        ("x|", 2),
        ("x ? y", 2),
        ("x y", 2),
    ])
    def test_errors_carry_position(self, bad, pos):
        with pytest.raises(ParseError) as exc:
            parse_term(bad)
        assert exc.value.position == pos
        assert f"position {pos}" in str(exc.value)

    @pytest.mark.parametrize("parse,text,message", [
        (parse_term, "x)", "trailing input after term (at position 1)"),
        (parse_term, "(x))", "trailing input after term (at position 3)"),
        (parse_term, "((x)", "expected ')' (at position 4)"),
        (parse_term, "()", "expected a variable, constant, or '(' (at position 1)"),
        (parse_term, "(x|y)'|", "expected a variable, constant, or '(' (at position 7)"),
        (parse_law, "x) = y", "expected '=' (at position 1)"),
        (parse_law, "x =", "expected a variable, constant, or '(' (at position 3)"),
        (parse_law, "(x = y)", "expected ')' (at position 3)"),
        (parse_law, "x=y=>", "expected a variable, constant, or '(' (at position 5)"),
        (parse_law, "x = y & y = z", "premise list without '=>' (at position 13)"),
        (parse_law, "x = y)", "trailing input after law (at position 5)"),
    ])
    def test_error_messages(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_law_kinds(self):
        ident = parse_law("x|y = y|x")
        assert ident.kind == "identity" and ident.premises == ()
        quasi = parse_law("x|y = y|y & y|x = x|x => x = y")
        assert quasi.kind == "quasi-identity"
        assert len(quasi.premises) == 2
        assert quasi.variables == ("x", "y")

    def test_premises_need_arrow(self):
        with pytest.raises(ParseError):
            parse_law("x = y & y = z")

    def test_equation_needs_rhs(self):
        with pytest.raises(ParseError):
            parse_law("x =")

    def test_variable_cap(self):
        with pytest.raises(ValueError):
            parse_law("a|b|c|d|e|f|g = a")


class TestFormatting:
    def test_prime_preferred(self):
        assert format_term(parse_term("x'")) == "x'"
        assert format_term(parse_term("(x|x)")) == "x'"
        assert format_term(parse_term("(x|y)|(x|y)")) == "(x|y)'"

    def test_parenthesization(self):
        assert format_term(parse_term("x|y|z")) == "(x|y)|z"
        assert format_term(parse_term("x|(y|z)")) == "x|(y|z)"

    def test_law_text(self):
        law = parse_law("x|y = y|y & y|x = x|x => x = y")
        assert format_law(law) == "x|y = y' & y|x = x' => x = y"
        assert parse_law(format_law(law)) == law

    def test_seeded_corpus_roundtrip(self):
        rng = random.Random(20260815)
        for _ in range(10_000):
            t = random_term(rng, 6)
            text = format_term(t)
            again = parse_term(text)
            assert again == t
            assert format_term(again) == text

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_fuzz_roundtrip(self, t):
        assert parse_term(format_term(t)) == t

    @settings(max_examples=25, deadline=None)
    @given(st.lists(TREES, min_size=1, max_size=3), st.integers(1, 5000), st.randoms())
    def test_deep_spine_roundtrip(self, factors, length, rng):
        # each step puts the term so far left or right of the next factor, so
        # the printed form nests up to length - 1 parentheses deep
        t = factors[0]
        for k in range(1, length):
            f = factors[k % len(factors)]
            t = Apply(t, f) if rng.random() < 0.5 else Apply(f, t)
        text = format_term(t)
        again = parse_term(text)
        assert again == t
        assert format_term(again) == text


class TestVariables:
    def test_sorted_distinct(self):
        assert term_variables(parse_term("z|x|(y|x)")) == ("x", "y", "z")
        assert term_variables(parse_term("0|1")) == ()

    def test_law_variables_cover_premises(self):
        law = parse_law("x|z = z => x = x'")
        assert law.variables == ("x", "z")

    def test_shared_primes_visited_once(self, nand):
        # each prime shares its subterm, so a tree walk would take 2**60 steps
        law = parse_law("x" + "'" * 60 + " = x")
        assert law.variables == ("x",)
        assert term_variables(law.conclusion[0]) == ("x",)
        verdict = check_law(nand, law)
        assert verdict.holds and verdict.checked == 2


class TestEval:
    def test_single_application(self, ex1):
        assert eval_term(ex1, parse_term("x|y"), {"x": 0, "y": 1}) == 2

    def test_axiom_instance(self, ex1):
        t = parse_term("(x|y)|(x|x)")
        for x in range(4):
            for y in range(4):
                assert eval_term(ex1, t, {"x": x, "y": y}) == x

    def test_deep_prime_chain(self, ex1):
        # 'c' and 'd' swap under priming, so parity decides the value
        even = parse_term("x" + "'" * 1000)
        odd = parse_term("x" + "'" * 1001)
        assert eval_term(ex1, even, {"x": 2}) == 2
        assert eval_term(ex1, odd, {"x": 2}) == 3

    def test_unbound_variable(self, ex1):
        with pytest.raises(ValueError, match="unbound"):
            eval_term(ex1, parse_term("x|y"), {"x": 0})

    def test_out_of_carrier(self, ex1):
        with pytest.raises(ValueError):
            eval_term(ex1, parse_term("x"), {"x": 9})

    def test_constants_need_bounds(self, ex1, nand):
        with pytest.raises(ValueError, match="bottom"):
            eval_term(ex1, parse_term("0|x"), {"x": 0})
        import dataclasses
        bounded = dataclasses.replace(nand, bottom=0, top=1)
        assert eval_term(bounded, parse_term("0|1"), {}) == 1

    def test_prime_matches_self_application(self, ex1, nand, rproj):
        # the sugar must be semantically invisible
        primed = parse_term("(x|y)'")
        spelled = parse_term("(x|y)|(x|y)")
        for g in (ex1, nand, rproj):
            n = g.carrier.size
            for x in range(n):
                for y in range(n):
                    env = {"x": x, "y": y}
                    assert eval_term(g, primed, env) == eval_term(g, spelled, env)


class TestCheckLaw:
    def test_holding_identity_counts_all(self, ex1):
        v = check_law(ex1, parse_law("(x|y)|(x|x) = x"))
        assert v.holds and v.counterexample is None
        assert v.checked == 4 ** 2
        assert bool(v)

    def test_three_variable_count(self, nand):
        v = check_law(nand, parse_law("(x|y)|z = (x|y)|z"))
        assert v.holds and v.checked == 2 ** 3

    def test_first_violation_is_lexicographic(self, nand):
        v = check_law(nand, parse_law("x|y = x"))
        assert not v.holds
        assert v.counterexample == {"x": 0, "y": 0}
        assert (v.lhs_value, v.rhs_value) == (1, 0)
        assert v.checked == 1

    def test_quasi_identity_premise_filter(self, nand):
        # premises encode mutual comparability, which forces equality here
        v = check_law(nand, parse_law("x|y = y|y & y|x = x|x => x = y"))
        assert v.holds
        assert v.checked == 4

    def test_quasi_identity_on_projection(self, rproj):
        # both premises are trivial on the projection, so it fails fast
        v = check_law(rproj, parse_law("x|y = y|y & y|x = x|x => x = y"))
        assert not v.holds
        assert v.counterexample == {"x": 0, "y": 1}
        assert v.checked == 2

    def test_quasi_identity_violation(self, ex1):
        v = check_law(ex1, parse_law("x|y = y|y & y|x = x|x => x = y"))
        assert not v.holds
        assert v.counterexample == {"x": 0, "y": 2}

    def test_reflexive_equation_everywhere(self, sheffer_by_size):
        law = parse_law("x = x")
        for n, gs in sheffer_by_size.items():
            for g in gs:
                v = check_law(g, law)
                assert v.holds and v.checked == n

    def test_counterexamples_revalidate(self, ex1, nand, rproj):
        laws = [parse_law(s) for s in (
            "x|y = y|x",
            "x|y = x",
            "(x|y)|(x|x) = x",
            "x|((x|y)'|z)' = (x|y)'|z",
        )]
        for g in (ex1, nand, rproj):
            for law in laws:
                v = check_law(g, law)
                if not v.holds:
                    lhs = eval_term(g, law.conclusion[0], v.counterexample)
                    rhs = eval_term(g, law.conclusion[1], v.counterexample)
                    assert lhs == v.lhs_value and rhs == v.rhs_value
                    assert lhs != rhs

    def test_checked_law_pickles(self, nand):
        # the check loop cached on the law is generated code, which does
        # not pickle; the law drops it and builds it again when needed
        law = parse_law("x|y = y|x")
        verdict = check_law(nand, law)
        again = pickle.loads(pickle.dumps(law))
        assert again == law and check_law(nand, again) == verdict

    def test_checked_law_pickles_with_both_loops(self, nand):
        # the check loops are generated code, which does not pickle; they
        # are kept in one cache keyed by program, and a law keeps its loop
        # for small tables, which a pickle drops
        law = parse_law("x|y = y|x")
        verdict = check_law(nand, law)
        assert _check_loop(law._program, True)(nand) == verdict
        assert set(vars(law)) == {"premises", "conclusion", "_program", "_loop"}
        assert law._loop is _check_loop(law._program, False)
        again = pickle.loads(pickle.dumps(law))
        assert again == law and check_law(nand, again) == verdict

    def test_a_reparsed_law_reuses_its_loop(self, nand):
        text = "(x|y)|x' = x"
        law, again = parse_law(text), parse_law(text)
        assert law is not again and law == again and hash(law) == hash(again)
        check_law(nand, law)
        misses = _check_loop.cache_info().misses
        assert check_law(nand, again) == check_law(nand, law)
        assert _check_loop.cache_info().misses == misses
        assert _check_loop(again._program, False) is _check_loop(law._program, False)
        assert _check_loop(law._program, False) is not _check_loop(law._program, True)
        assert _check_loop.cache_info().maxsize is not None

    def test_renamed_laws_keep_their_names_in_counterexamples(self, nand):
        failing, renamed = parse_law("x|y = x"), parse_law("a|b = a")
        assert failing != renamed
        assert check_law(nand, failing).counterexample == {"x": 0, "y": 0}
        assert check_law(nand, renamed).counterexample == {"a": 0, "b": 0}
        assert check_law(nand, failing).counterexample == {"x": 0, "y": 0}

    def test_law_object_construction(self):
        law = Law((), (Variable("x"), Variable("x")))
        assert law.kind == "identity"
        assert law.variables == ("x",)
