"""The hash-consed term walk against the term walkers it replaced.

``ref_fmt``, ``ref_compile`` and ``ref_run`` are copies of the earlier tree
printer and two-mode instruction evaluator, ``ref_check_law`` is the
earlier law checker built on them, one assignment at a time, and
``ref_equal`` is the field-by-field equality that ``Apply`` had.  They stay
here as the reference that ``format_term``, the staged ``check_law`` and
term equality must agree with, plus pins for the term shapes that made the
earlier walkers exponential or recursive.
"""

import copy
import functools
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, run_cli
from shefferkit import (
    CATALOG,
    Apply,
    Carrier,
    Groupoid,
    Law,
    LawVerdict,
    NamedConstant,
    Variable,
    assign,
    check_law,
    format_law,
    format_term,
    get_law,
    parse_law,
    parse_term,
    twist_sheffer,
)
from shefferkit.cli import parse_system_file
from shefferkit.terms import _check_loop


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
    tower = "x" + "'" * 24
    law = parse_law(f"({tower})|({tower}) = x")
    start = time.perf_counter()
    assert format_law(law) == "x" + "'" * 25 + " = x"
    assert time.perf_counter() - start < 0.01


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


def test_repr_reads_the_linear_walk():
    # the generated repr expanded a tower as a tree, doubling with each
    # prime (9.96 MB at 18 primes), and recursed on the long chain
    tower = parse_law("x" + "'" * 20 + " = x")
    start = time.perf_counter()
    assert repr(tower) == "parse_law(\"x" + "'" * 20 + " = x\")"
    assert time.perf_counter() - start < 0.01
    assert eval(repr(tower), {"parse_law": parse_law}) == tower
    chain = parse_term(CHAIN)
    assert repr(chain) == f"parse_term({CHAIN_TEXT!r})"
    assert repr(Law((), (chain, Variable("x")))) == f"parse_law({CHAIN_TEXT + ' = x'!r})"


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
    assert (law_s == Law((), (t, s))) == ref_equal(s, t)


def test_prime_tower_hashes_and_compares_in_linear_time():
    # the generated methods compared and hashed the tower as a tree:
    # 0.5 s at 20 primes, doubling with each prime
    text = "x" + "'" * 24 + " = x"
    a, b = parse_law(text), parse_law(text)
    start = time.perf_counter()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_law("x" + "'" * 23 + " = x")
    assert time.perf_counter() - start < 0.01


def test_built_laws_compare_hash_and_check_without_walking(monkeypatch, nand):
    # a law compiles its sides once, when it is built; comparing, hashing,
    # grounding it again and checking it read that program
    from shefferkit import search, terms
    texts = ["x" + "'" * 40 + " = x", "x|((x|y)'|z)' = (x|y)'|z", "x|y = 1 => y|x = 0"]
    laws = [parse_law(text) for text in texts]
    again = [parse_law(text) for text in texts]
    ground = [search._ground_law(law, 2, 6) for law in laws]
    bounded = Groupoid(nand.carrier, nand.table, 0, 1)

    def walk(terms):
        raise AssertionError("walked a built law")

    monkeypatch.setattr(terms, "_walk", walk)
    for law, same, instances in zip(laws, again, ground):
        assert hash(law) == hash(same) and law == same
        assert all(law != other for other in laws if other is not law)
        assert search._ground_law(same, 2, 6) is instances
        assert check_law(bounded, same) == check_law(bounded, law)


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
    """``check_law`` and the loop with tuple vectors, which tables of more
    than 256 elements take, both agree with the reference."""
    needs = {ins[1] for t in law.premises + (law.conclusion,) for side in t
             for ins in ref_compile(side) if ins[0] == "const"}
    if any(getattr(g, which) is None for which in needs):
        # constants are resolved before the first assignment
        for check in (check_law, lambda g, law: _check_loop(law._program, True)(g)):
            with pytest.raises(ValueError, match="no designated"):
                check(g, law)
    else:
        want = ref_check_law(g, law)
        assert check_law(g, law) == want
        assert _check_loop(law._program, True)(g) == want


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


# ---------------------------------------------------------------------------
# the staged checker on random laws and tables


TOP = (NamedConstant("top"),)


@functools.lru_cache(maxsize=None)
def _terms_over(leaves):
    return st.recursive(st.sampled_from(leaves), _grow, max_leaves=8)


@st.composite
def law_cases(draw):
    """A law of 0-4 variables, maybe with constants, and 0-2 premises, on a
    table of 1-8 elements with random bounds, its rows tuples or lists.

    Each premise reads all the variables or only the last one, and the
    conclusion all of them or all but the last, so that every stage of the
    checker meets scalar and vector sides; one conclusion in four has
    equal sides, so that some checks run to the end."""
    k = draw(st.integers(0, 4))
    names = sorted(draw(st.lists(st.sampled_from("awxyz"), min_size=k, max_size=k, unique=True)))
    constants = (NamedConstant("bottom"),) + TOP if draw(st.booleans()) else ()

    def term(pool):
        leaves = tuple(Variable(v) for v in pool) + (constants or (() if pool else TOP))
        return draw(_terms_over(leaves))

    premises = tuple((term(pool), term(pool)) for pool in
                     draw(st.lists(st.sampled_from([names, names[-1:]]), max_size=2)))
    pool = draw(st.sampled_from([names, names[:-1]]))
    lhs = term(pool)
    rhs = copy.deepcopy(lhs) if draw(st.integers(0, 3)) == 0 else term(pool)
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    rows = [cells[i:i + n] for i in range(0, n * n, n)]
    if draw(st.booleans()):
        rows = tuple(map(tuple, rows))
    bottom, top = (None if b < 0 else b for b in draw(st.lists(st.integers(-1, n - 1),
                                                                min_size=2, max_size=2)))
    g = Groupoid(Carrier.of_size(n), rows, bottom, top)
    return g, Law(premises, (lhs, rhs))


@settings(max_examples=300, deadline=None)
@given(law_cases())
def test_check_law_matches_reference_on_random_laws(case):
    _agree(*case)


@pytest.fixture(scope="module")
def twist64():
    chain8 = parse_system_file((DATA / "chain8.sys").read_text(encoding="utf-8"))
    g = twist_sheffer(assign(chain8))
    assert g.size == 64
    return g


def test_trans8_on_a_64_element_twist_table(twist64):
    assert check_law(twist64, get_law("TRANS8")) == LawVerdict(True, None, None, None, 262144)


def test_late_failure_on_a_64_element_twist_table(twist64):
    # the premise reads the last variable, the conclusion does not; the
    # first counterexample lies in the ninth block of 4096 assignments
    law = parse_law("y = z|x => x = (y|x)'")
    verdict = check_law(twist64, law)
    assert verdict == ref_check_law(twist64, law)
    assert (verdict.counterexample, verdict.checked) == ({"x": 8, "y": 0, "z": 0}, 32769)


@pytest.mark.parametrize("n", [257, 260])
def test_tables_wider_than_bytes_take_tuple_vectors(n):
    # a byte vector holds values below 256; x|y is x + y mod n here but for
    # one cell of the last row, so the failing laws fail late
    rows = [[(x + y) % n for y in range(n)] for x in range(n)]
    rows[n - 1][n - 2] = n - 2
    g = Groupoid(Carrier.of_size(n), rows)
    cases = [
        ("x'' = x'|x'", True, n, None),
        ("x|x' = x'|x", False, n, {"x": n - 1}),
        ("y|x = x|y => (x|y)' = (y|x)'", True, n * n, None),
        ("x|y = y|x", False, (n - 2) * n + n, {"x": n - 2, "y": n - 1}),
        ("x|(y|x) = (x|y)|x", False, (n - 2) * n + 2, {"x": n - 2, "y": 1}),
    ]
    for text, holds, checked, counterexample in cases:
        law = parse_law(text)
        verdict = check_law(g, law)
        assert verdict == ref_check_law(g, law)
        assert (verdict.holds, verdict.checked, verdict.counterexample) == (holds, checked, counterexample)
