"""Homomorphism checks and search against the code they replaced.

``ref_is_rel_homomorphism`` and ``ref_is_groupoid_homomorphism`` are copies
of the earlier loops over pairs and cells, and ``ref_find_homomorphisms``
the earlier backtracking search with its own consistency test per depth, a
separate bucket of involution pairs and a scan of the unused targets at
every node.  They stay here as the reference that the one list of
homomorphism conditions must agree with exactly: the same verdicts,
witnesses and reasons included, and the same maps in the same order.
"""

import itertools

import pytest

from conftest import groupoids_naive
from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    Groupoid,
    RelationalSystem,
    Verdict,
    find_homomorphisms,
    is_groupoid_homomorphism,
    is_rel_homomorphism,
)


# ---------------------------------------------------------------------------
# reference copies


def ref_carriers_match(f, src, dst):
    if f.domain != src.carrier or f.codomain != dst.carrier:
        raise ValueError("map carriers do not match source and target")


def ref_is_rel_homomorphism(src, dst, f, strong=False):
    ref_carriers_match(f, src, dst)
    n = src.carrier.size
    for x in range(n):
        for y in range(n):
            forward = src.relation.has(x, y)
            back = dst.relation.has(f(x), f(y))
            if forward and not back:
                return Verdict(False, (x, y), "related pair with unrelated images")
            if strong and back and not forward:
                return Verdict(False, (x, y), "unrelated pair with related images")
    if src.involution is not None and dst.involution is not None:
        for x in range(n):
            if f(src.involution(x)) != dst.involution(f(x)):
                return Verdict(False, (x,), "does not commute with the involutions")
    return Verdict(True)


def ref_is_groupoid_homomorphism(ga, gb, f):
    ref_carriers_match(f, ga, gb)
    n = ga.size
    for x in range(n):
        for y in range(n):
            if f(ga.table[x][y]) != gb.table[f(x)][f(y)]:
                return Verdict(False, (x, y), "f(x|y) differs from f(x)|f(y)")
    return Verdict(True)


def ref_find_homomorphisms(src, dst, *, strong=False, surjective=False, injective=False):
    groupoid_mode = isinstance(src, Groupoid)
    if groupoid_mode != isinstance(dst, Groupoid):
        raise TypeError("source and target must both be systems or both groupoids")
    if groupoid_mode and strong:
        raise ValueError("strong mode applies to relational systems only")
    n = src.carrier.size
    m = dst.carrier.size
    check_inv = (not groupoid_mode and src.involution is not None
                 and dst.involution is not None)
    inv_pairs = [[] for _ in range(n)]
    for x in range(n if check_inv else 0):
        inv_pairs[max(x, src.involution(x))].append((x, src.involution(x)))

    image = [0] * n
    used = [0] * m

    def consistent(i):
        if groupoid_mode:
            for x in range(i + 1):
                for y in range(i + 1):
                    z = src.table[x][y]
                    if z <= i and (x == i or y == i or z == i):
                        if image[z] != dst.table[image[x]][image[y]]:
                            return False
            return True
        for x in range(i + 1):
            for a, b in ((x, i), (i, x)):
                forward = src.relation.has(a, b)
                back = dst.relation.has(image[a], image[b])
                if forward and not back:
                    return False
                if strong and back and not forward:
                    return False
        for x, j in inv_pairs[i]:
            if image[j] != dst.involution(image[x]):
                return False
        return True

    def extend(i):
        if i == n:
            yield ElementMap(src.carrier, dst.carrier, tuple(image))
            return
        for v in range(m):
            if injective and used[v]:
                continue
            image[i] = v
            used[v] += 1
            missing = sum(1 for c in used if c == 0)
            if not (surjective and missing > n - i - 1) and consistent(i):
                yield from extend(i + 1)
            used[v] -= 1

    return extend(0)


# ---------------------------------------------------------------------------
# the universes compared


def every_relation(car):
    n = car.size
    return [BinaryRelation(car, rows) for rows in itertools.product(range(1 << n), repeat=n)]


def chain(car):
    n = car.size
    return BinaryRelation(car, tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)))


def plain_systems():
    """Systems without involution: every relation up to size 2, and on three
    elements the empty, diagonal, full and chain relations, a 3-cycle and a
    relation with no symmetry at all."""
    out = []
    for n in (1, 2):
        car = Carrier.of_size(n)
        out += [RelationalSystem(car, rel) for rel in every_relation(car)]
    c3 = Carrier.of_size(3)
    rels = [BinaryRelation(c3, (0, 0, 0)), BinaryRelation.diagonal(c3),
            BinaryRelation.full(c3), chain(c3),
            BinaryRelation.from_pairs(c3, [(0, 1), (1, 2), (2, 0)]),
            BinaryRelation.from_pairs(c3, [(0, 0), (0, 2), (1, 0), (2, 1), (2, 2)])]
    return out + [RelationalSystem(c3, rel) for rel in rels]


def involuted_systems():
    """Chains up to size 3 with no involution or with every self-map as the
    involution, period two or not."""
    out = []
    for n in (1, 2, 3):
        car = Carrier.of_size(n)
        maps = [None] + [ElementMap(car, car, image)
                         for image in itertools.product(range(n), repeat=n)]
        out += [RelationalSystem(car, chain(car), u) for u in maps]
    return out


def every_map(src, dst):
    for image in itertools.product(range(dst.carrier.size), repeat=src.carrier.size):
        yield ElementMap(src.carrier, dst.carrier, image)


@pytest.fixture(scope="module")
def small_groupoids(sheffer_by_size):
    tables = [g for n in (1, 2) for g in groupoids_naive(n, lambda g: True)]
    return tables + sheffer_by_size[3]


def search_outcome(find, src, dst, **modes):
    """The maps found in order, or the type and message of the error raised at the call."""
    try:
        found = find(src, dst, **modes)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [f.image for f in found]


def assert_same_search(src, dst):
    for strong, surjective, injective in itertools.product((False, True), repeat=3):
        modes = dict(strong=strong, surjective=surjective, injective=injective)
        got = search_outcome(find_homomorphisms, src, dst, **modes)
        assert got == search_outcome(ref_find_homomorphisms, src, dst, **modes), (src, dst, modes)


# ---------------------------------------------------------------------------
# comparisons


RELATION_REASONS = {"", "related pair with unrelated images", "unrelated pair with related images"}


@pytest.mark.parametrize("family,reasons", [
    (plain_systems, RELATION_REASONS),
    (involuted_systems, RELATION_REASONS | {"does not commute with the involutions"}),
])
def test_system_verdicts_match_reference(family, reasons):
    systems = family()
    seen = set()
    for src, dst in itertools.product(systems, repeat=2):
        for f in every_map(src, dst):
            for strong in (False, True):
                want = ref_is_rel_homomorphism(src, dst, f, strong)
                assert is_rel_homomorphism(src, dst, f, strong) == want, (src, dst, f, strong)
                seen.add(want.reason)
    # every kind of verdict is met, so each kind of condition is compared
    assert seen == reasons


def test_groupoid_verdicts_match_reference(small_groupoids):
    assert len(small_groupoids) == 17 + 52
    failures = 0
    for ga, gb in itertools.product(small_groupoids, repeat=2):
        for f in every_map(ga, gb):
            want = ref_is_groupoid_homomorphism(ga, gb, f)
            assert is_groupoid_homomorphism(ga, gb, f) == want, (ga.table, gb.table, f.image)
            failures += not want.holds
    assert failures


@pytest.mark.parametrize("family", [plain_systems, involuted_systems])
def test_system_search_matches_reference(family):
    systems = family()
    for src, dst in itertools.product(systems, repeat=2):
        assert_same_search(src, dst)


def test_groupoid_search_matches_reference(small_groupoids):
    for ga, gb in itertools.product(small_groupoids, repeat=2):
        assert_same_search(ga, gb)


def test_surjective_search_onto_a_smaller_target():
    # the unused-target count prunes here: three elements onto two
    src, dst = Carrier.of_size(3), Carrier.of_size(2)
    systems = (RelationalSystem(src, BinaryRelation.full(src)),
               RelationalSystem(dst, BinaryRelation.full(dst)))
    onto = [f.image for f in find_homomorphisms(*systems, surjective=True)]
    assert onto == [image for image in itertools.product(range(2), repeat=3)
                    if len(set(image)) == 2]
    assert onto == [f.image for f in ref_find_homomorphisms(*systems, surjective=True)]


def test_mode_errors_are_raised_at_the_call():
    c2 = Carrier.of_size(2)
    g = Groupoid(c2, ((1, 1), (1, 0)))
    sys = RelationalSystem(c2, BinaryRelation.full(c2))
    with pytest.raises(ValueError, match="strong mode applies to relational systems only"):
        find_homomorphisms(g, g, strong=True)
    with pytest.raises(TypeError, match="both be systems or both groupoids"):
        find_homomorphisms(g, sys)
