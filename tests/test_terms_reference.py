"""The hash-consed term walk against the term walkers it replaced.

``ref_fmt``, ``ref_compile`` and ``ref_run`` are copies of the earlier tree
printer and two-mode instruction evaluator, ``ref_check_law`` is the
earlier law checker built on them, and ``ref_equal`` is the field-by-field
equality that ``Apply`` had.  They stay here as the reference that
``format_term``, ``check_law`` and term equality must agree with, plus pins
for the term shapes that made the earlier walkers exponential or recursive.
"""

import copy
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli
from shefferkit import (
    CATALOG,
    Apply,
    Carrier,
    Groupoid,
    Law,
    LawVerdict,
    NamedConstant,
    Variable,
    check_law,
    format_law,
    format_term,
    get_law,
    parse_law,
    parse_term,
)


# ---------------------------------------------------------------------------
# reference copies


def ref_fmt(t, as_factor):
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, NamedConstant):
        return "0" if t.which == "bottom" else "1"
    if t.left == t.right:
        return ref_fmt(t.left, True) + "'"
    body = ref_fmt(t.left, True) + "|" + ref_fmt(t.right, True)
    return "(" + body + ")" if as_factor else body


def ref_compile(term, var_slot=None):
    memo = {}
    code = []
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Apply):
            if ready:
                code.append(("app", memo[id(node.left)], memo[id(node.right)]))
                memo[id(node)] = len(code) - 1
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        else:
            if isinstance(node, Variable):
                if var_slot is None:
                    code.append(("var", node.name))
                else:
                    code.append(("pos", var_slot[node.name]))
            else:
                code.append(("const", node.which))
            memo[id(node)] = len(code) - 1
    return code


def ref_equal(s, t):
    if isinstance(s, Apply) and isinstance(t, Apply):
        return ref_equal(s.left, t.left) and ref_equal(s.right, t.right)
    return type(s) is type(t) and s == t


def ref_constant_index(g, which):
    value = g.bottom if which == "bottom" else g.top
    if value is None:
        side = "0" if which == "bottom" else "1"
        raise ValueError(f"term uses constant '{side}' but the groupoid has no designated {which}")
    return value


def ref_run(code, g, env):
    table = g.table
    slots = []
    for ins in code:
        op = ins[0]
        if op == "app":
            slots.append(table[slots[ins[1]]][slots[ins[2]]])
        elif op == "pos":
            slots.append(env[ins[1]])
        elif op == "var":
            try:
                v = env[ins[1]]
            except KeyError:
                raise ValueError(f"unbound variable {ins[1]!r}") from None
            if not 0 <= v < g.carrier.size:
                raise ValueError(f"assignment maps {ins[1]!r} outside the carrier")
            slots.append(v)
        else:
            slots.append(ref_constant_index(g, ins[1]))
    return slots[-1]


def ref_check_law(g, law):
    names = law.variables
    slot = {name: k for k, name in enumerate(names)}
    premise_code = [(ref_compile(l, slot), ref_compile(r, slot)) for l, r in law.premises]
    concl_l = ref_compile(law.conclusion[0], slot)
    concl_r = ref_compile(law.conclusion[1], slot)
    checked = 0
    for combo in itertools.product(range(g.carrier.size), repeat=len(names)):
        checked += 1
        if any(ref_run(cl, g, combo) != ref_run(cr, g, combo) for cl, cr in premise_code):
            continue
        lhs = ref_run(concl_l, g, combo)
        rhs = ref_run(concl_r, g, combo)
        if lhs != rhs:
            return LawVerdict(False, dict(zip(names, combo)), lhs, rhs, checked)
    return LawVerdict(True, None, None, None, checked)


# ---------------------------------------------------------------------------
# printing


def _grow(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda p: Apply(*p)),
        kids.map(lambda t: Apply(t, t)),                  # what ' builds
        kids.map(lambda t: Apply(t, copy.deepcopy(t))),   # equal, not shared
    )


TERMS = st.recursive(
    st.sampled_from([Variable(v) for v in ("x", "y", "z")]
                    + [NamedConstant("bottom"), NamedConstant("top")]),
    _grow, max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(TERMS)
def test_format_matches_reference(t):
    assert format_term(t) == ref_fmt(t, False)


def test_equal_prime_towers_print_in_linear_time():
    # the tree printer compared the two towers as trees: 2.0 s at 22 primes,
    # doubling with each prime
    tower = "x" + "'" * 40
    law = parse_law(f"({tower})|({tower}) = x")
    assert format_law(law) == "x" + "'" * 41 + " = x"


CHAIN = "|".join(["x"] * 5000)
CHAIN_TEXT = "(" * 4997 + "x'|x" + ")|x" * 4997


def test_long_chain_formats_without_recursion():
    assert format_term(parse_term(CHAIN)) == CHAIN_TEXT


def test_long_chain_through_cli():
    code, out, err = run_cli(["check", "law", "-e", CHAIN + " = x", "tests/data/nand.grp"])
    assert code in (0, 1), err
    assert out.splitlines()[0] == f"law: {CHAIN_TEXT} = x"


def test_printed_long_chain_reparses():
    assert parse_term(CHAIN_TEXT) == parse_term(CHAIN)
    code, out, err = run_cli(["check", "law", "-e", CHAIN_TEXT + " = x", "tests/data/nand.grp"])
    assert code in (0, 1), err
    assert out.splitlines()[0] == f"law: {CHAIN_TEXT} = x"


# ---------------------------------------------------------------------------
# parser nesting


def test_deep_nesting_parses():
    depth = 10_000
    text = "y|" + "(" * depth + "x" + ")" * depth
    assert parse_term(text) == parse_term("y|x")
    code, out, err = run_cli(["check", "law", "-e", text + " = y", "tests/data/nand.grp"])
    assert (code, out.splitlines()[0]) == (1, "law: y|x = y"), err


# ---------------------------------------------------------------------------
# equality and hashing


SMALL_TERMS = st.recursive(
    st.sampled_from([Variable("x"), Variable("y"), NamedConstant("top")]),
    _grow, max_leaves=4)


@settings(max_examples=400, deadline=None)
@given(SMALL_TERMS, SMALL_TERMS)
def test_equality_matches_reference(s, t):
    assert (s == t) == ref_equal(s, t)
    assert (s != t) == (not ref_equal(s, t))
    if ref_equal(s, t):
        assert hash(s) == hash(t)
    law_s, law_t = Law((), (s, t)), Law((), (copy.deepcopy(s), copy.deepcopy(t)))
    assert law_s == law_t and hash(law_s) == hash(law_t)


def test_prime_tower_hashes_and_compares_in_linear_time():
    # the generated methods compared and hashed the tower as a tree:
    # 0.5 s at 20 primes, doubling with each prime
    text = "x" + "'" * 40 + " = x"
    a, b = parse_law(text), parse_law(text)
    start = time.perf_counter()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_law("x" + "'" * 39 + " = x")
    assert time.perf_counter() - start < 0.01


# ---------------------------------------------------------------------------
# law checking


def _designations(n):
    bounds = (None,) + tuple(range(n))
    return itertools.product(bounds, repeat=2)


def _size_two_or_less():
    for n in (1, 2):
        car = Carrier.of_size(n)
        for cells in itertools.product(range(n), repeat=n * n):
            table = tuple(cells[i * n:(i + 1) * n] for i in range(n))
            yield Groupoid(car, table)


def _agree(g, law):
    needs = {ins[1] for t in law.premises + (law.conclusion,) for side in t
             for ins in ref_compile(side) if ins[0] == "const"}
    if any(getattr(g, which) is None for which in needs):
        # constants are resolved before the first assignment
        with pytest.raises(ValueError, match="no designated"):
            check_law(g, law)
    else:
        assert check_law(g, law) == ref_check_law(g, law)


def test_check_law_matches_reference_up_to_size_two():
    for base in _size_two_or_less():
        for bottom, top in _designations(base.size):
            g = Groupoid(base.carrier, base.table, bottom, top)
            for key in CATALOG:
                _agree(g, get_law(key))


def test_check_law_matches_reference_on_size_three_models(sheffer_by_size):
    assert len(sheffer_by_size[3]) == 52
    for base in sheffer_by_size[3]:
        for bottom, top in _designations(3):
            g = Groupoid(base.carrier, base.table, bottom, top)
            for key in CATALOG:
                _agree(g, get_law(key))


def test_missing_bound_raises_even_when_no_premise_holds():
    # x|y = x' on this table: the premises of COMPL never hold together,
    # so a lazy lookup of '1' never happened
    g = Groupoid(Carrier.of_size(2), ((1, 1), (0, 0)), bottom=0)
    assert ref_check_law(g, get_law("COMPL")).holds
    with pytest.raises(ValueError, match="no designated top"):
        check_law(g, get_law("COMPL"))
