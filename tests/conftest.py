"""Shared fixtures: the 4-element worked example, tiny chains and lattices,
the golden command corpus, and session-scoped enumerations that several
suites quantify over."""

import contextlib
import io
import itertools
import pathlib

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    EnumerationSpec,
    Groupoid,
    RelationalSystem,
    enumerate_drsi,
    induce_system,
    is_directed,
    run_enumeration,
)

# 4-element Sheffer groupoid on {a,b,c,d}; the central worked fixture.
EX1_NAMES = ("a", "b", "c", "d")
EX1_TABLE = (
    (0, 2, 3, 2),
    (2, 1, 3, 2),
    (0, 1, 3, 2),
    (0, 1, 3, 2),
)


@pytest.fixture(scope="session")
def ex1():
    return Groupoid(Carrier(EX1_NAMES), EX1_TABLE)


@pytest.fixture(scope="session")
def ex1_system(ex1):
    return induce_system(ex1)


@pytest.fixture(scope="session")
def c2():
    return Carrier(("0", "1"))


@pytest.fixture(scope="session")
def nand(c2):
    return Groupoid(c2, ((1, 1), (1, 0)))


@pytest.fixture(scope="session")
def nor(c2):
    return Groupoid(c2, ((1, 0), (0, 0)))


@pytest.fixture(scope="session")
def rproj(c2):
    """Second projection; Sheffer but not commutative."""
    return Groupoid(c2, ((0, 1), (0, 1)))


@pytest.fixture(scope="session")
def chain2(c2):
    """Two-element order with the swap involution and both bounds."""
    rel = BinaryRelation.from_matrix(c2, ((1, 1), (0, 1)))
    return RelationalSystem(c2, rel, ElementMap(c2, c2, (1, 0)), 0, 1)


@pytest.fixture(scope="session")
def chain3_plain():
    """Three-element chain, no involution."""
    car = Carrier(("0", "m", "1"))
    rel = BinaryRelation.from_matrix(car, ((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    return RelationalSystem(car, rel)


@pytest.fixture(scope="session")
def chain4():
    """Four-element chain with the order-reversing pairing and bounds."""
    car = Carrier(("0", "p", "q", "1"))
    rows = ((1, 1, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1))
    rel = BinaryRelation.from_matrix(car, rows)
    return RelationalSystem(car, rel, ElementMap(car, car, (3, 2, 1, 0)), 0, 3)


@pytest.fixture(scope="session")
def bool4():
    """Square lattice order 0 < p,q < 1 with complement involution."""
    car = Carrier(("0", "p", "q", "1"))
    rows = ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1))
    rel = BinaryRelation.from_matrix(car, rows)
    return RelationalSystem(car, rel, ElementMap(car, car, (3, 2, 1, 0)), 0, 3)


@pytest.fixture(scope="session")
def m3():
    """Five-element lattice order with three incomparable midpoints."""
    car = Carrier(("0", "p", "q", "r", "1"))
    rows = (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 0, 1),
        (0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1),
    )
    rel = BinaryRelation.from_matrix(car, rows)
    # swap two midpoints, fix the third; antitone because midpoints are
    # incomparable
    return RelationalSystem(car, rel, ElementMap(car, car, (4, 2, 1, 3, 0)), 0, 4)


@pytest.fixture(scope="session")
def n5():
    """Pentagon lattice order 0 < p < r < 1, 0 < q < 1."""
    car = Carrier(("0", "p", "q", "r", "1"))
    rows = (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1),
    )
    rel = BinaryRelation.from_matrix(car, rows)
    return RelationalSystem(car, rel, ElementMap(car, car, (4, 3, 2, 1, 0)), 0, 4)


@pytest.fixture(scope="session")
def drsi_by_size():
    """Every reflexive directed system with antitone involution, sizes 1..3."""
    return {n: list(enumerate_drsi(n)) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def sheffer_by_size():
    """Every operation table satisfying both defining axioms, sizes 1..3."""
    out = {}
    for n in (1, 2, 3):
        spec = EnumerationSpec(n, require=("AX1", "AX2"))
        out[n] = run_enumeration(spec).groupoids
    return out


def reflexive_directed_relations(n):
    """All reflexive relations on n elements whose cones never empty out.

    Independent of the search module: plain mask iteration plus a
    directedness filter through is_directed.
    """
    car = Carrier.of_size(n)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off):
            if mask >> k & 1:
                rows[i] |= 1 << j
        sys = RelationalSystem(car, BinaryRelation(car, tuple(rows)))
        if is_directed(sys).holds:
            out.append(sys)
    return out


def is_transitive_raw(rel):
    """Oracle-style transitivity scan written against pairs, not masks."""
    pairs = set(rel.pairs())
    return all((x, w) in pairs
               for (x, y) in pairs for (z, w) in pairs if y == z)


@pytest.fixture(scope="session")
def reflexive_directed_by_size():
    return {n: reflexive_directed_relations(n) for n in (1, 2, 3)}


def groupoids_naive(n, predicate):
    """Unpruned oracle: every one of the n**(n*n) tables, filtered."""
    car = Carrier.of_size(n)
    out = []
    for cells in itertools.product(range(n), repeat=n * n):
        table = tuple(cells[i * n:(i + 1) * n] for i in range(n))
        g = Groupoid(car, table)
        if predicate(g):
            out.append(g)
    return out


TESTS_DIR = pathlib.Path(__file__).parent
DATA = TESTS_DIR / "data"
GOLDEN = TESTS_DIR / "golden"

# (golden file stem, argv, expected exit code); frozen command corpus
CLI_CORPUS = [
    ("check_sheffer_ex1", ["check", "sheffer", "tests/data/ex1.grp"], 0),
    ("check_sheffer_lproj", ["check", "sheffer", "tests/data/lproj.grp"], 1),
    ("check_named_sym7_ex1", ["check", "named", "SYM7", "tests/data/ex1.grp"], 0),
    ("check_named_trans8_ex1", ["check", "named", "TRANS8", "tests/data/ex1.grp"], 1),
    ("check_law_comm_ex1", ["check", "law", "-e", "x|y = y|x", "tests/data/ex1.grp"], 1),
    ("check_props_ex1", ["check", "props", "tests/data/ex1.sys"], 0),
    ("check_drsi_ex1", ["check", "drsi", "tests/data/ex1.sys"], 0),
    ("check_kleene_chain2", ["check", "kleene", "tests/data/chain2.sys"], 0),
    ("check_kleene_discrete2", ["check", "kleene", "tests/data/discrete2.sys"], 1),
    ("check_props_noloop2", ["check", "props", "tests/data/noloop2.sys"], 0),
    ("induce_ex1", ["induce", "tests/data/ex1.grp"], 0),
    ("assign_min_ex1", ["assign", "--policy", "min", "tests/data/ex1.sys"], 0),
    ("assign_max_ex1", ["assign", "--policy", "max", "tests/data/ex1.sys"], 0),
    ("assign_rand42_ex1", ["assign", "--policy", "rand:42", "tests/data/ex1.sys"], 0),
    ("space_ex1", ["space", "tests/data/ex1.sys"], 0),
    ("roundtrip_ex1", ["roundtrip", "tests/data/ex1.sys"], 0),
    ("twist_chain2", ["twist", "tests/data/chain2.sys"], 0),
    ("twist_op_nand", ["twist-op", "tests/data/nand.grp"], 0),
    ("kleene_sub_chain3", ["kleene-sub", "--base", "0", "tests/data/chain3.sys"], 0),
    ("hom_groupoid_ex1", ["hom", "--groupoid", "tests/data/ex1.grp", "tests/data/ex1.grp"], 0),
    ("hom_strong_chain2", ["hom", "--strong", "tests/data/chain2.sys", "tests/data/chain2.sys"], 0),
    ("hom_map_chain2", ["hom", "--map", "tests/data/identity2.map", "tests/data/chain2.sys",
                        "tests/data/chain2.sys"], 0),
    ("hom_map_swap_chain2", ["hom", "--map", "tests/data/swap2.map", "tests/data/chain2.sys",
                             "tests/data/chain2.sys"], 1),
    ("quotient_ex1", ["quotient", "tests/data/ex1.grp", "tests/data/collapse.map",
                      "tests/data/quotient.sys"], 0),
    ("enumerate_n2", ["enumerate", "-n", "2", "--require", "AX1,AX2"], 0),
    ("enumerate_n3_count", ["enumerate", "-n", "3", "--require", "AX1,AX2", "--count"], 0),
    ("independence", ["independence"], 0),
]


def resolve_argv(argv):
    """Rewrite repo-relative data paths so the corpus runs from anywhere."""
    root = TESTS_DIR.parent
    return [str(root / a) if a.startswith("tests/") else a for a in argv]


def run_cli(argv):
    """Drive the command-line entry point in process; returns (exit, out, err)."""
    from shefferkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolve_argv(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_cli_corpus():
    """Run every corpus command and compare stdout byte for byte."""
    for name, argv, want_code in CLI_CORPUS:
        code, out, err = run_cli(argv)
        expected = (GOLDEN / f"{name}.txt").read_text()
        assert code == want_code, (name, code, err)
        assert out == expected, name
        assert err == ""
