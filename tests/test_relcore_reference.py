"""The relational checks against the scans they replaced.

``ref_is_directed`` and ``ref_check_involution`` are copies of the earlier
pair scans: the cone test at every pair, and the antitone test over
``pairs()`` and ``has()``.  ``ref_relation_properties``,
``ref_check_bounded``, ``ref_reflexive``, ``ref_check_complemented`` and
``ref_is_kleene`` are copies
of the per-pair loops that the first-witness bit scan replaced.
``ref_cone_duality``, ``ref_p_a_subset`` and ``ref_least_upper_bounds`` are
copies of the loops over all n * n pairs that the one scan over pairs
a <= b (``relcore._cone_pairs``) replaced.  The
mask-based checks must return the same verdicts and reports, witnesses
included, for every relation (and every self-map, every pair of bounds)
on carriers of at most three elements, and on seeded random relations of
up to nine elements.

``ref_check_index`` is the one-index check that the constructors and
guards called once per value; ``ref_groupoid``, ``ref_element_map``,
``ref_from_pairs``, ``ref_upper_cone``, ``ref_lower_cone`` and
``ref_set_related`` are copies of the loops that called it.  The checks
made once per row, image or argument list must build the same value, or
raise the same exception with the same message, on seeded random inputs
of up to eight elements.  ``set_related`` now checks every index before
it reads a row, so it may raise where the copy returned False.
"""

import dataclasses
import itertools
import random

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    DrsiReport,
    ElementMap,
    Groupoid,
    PropertyReport,
    RelationalSystem,
    Verdict,
    bits_of,
    check_bounded,
    check_complemented,
    check_involution,
    is_directed,
    is_kleene,
    lattice_sheffer,
    lower_cone,
    p_a_subset,
    relation_properties,
    set_related,
    twist_product,
    upper_cone,
    validate_drsi,
)
import shefferkit.bridge as bridge


def ref_is_directed(sys):
    rel = sys.relation
    n = sys.carrier.size
    for a in range(n):
        for b in range(n):
            if not rel.upper_mask(a, b):
                return Verdict(False, (a, b), "upper cone empty")
            if not rel.lower_mask(a, b):
                return Verdict(False, (a, b), "lower cone empty")
    return Verdict(True)


def ref_check_involution(sys, u):
    for x in range(sys.carrier.size):
        if u(u(x)) != x:
            return Verdict(False, (x,), "not of period two")
    rel = sys.relation
    for x, y in rel.pairs():
        if not rel.has(u(y), u(x)):
            return Verdict(False, (x, y), "not antitone")
    return Verdict(True)


def ref_relation_properties(rel):
    n = rel.carrier.size
    witnesses = {}

    reflexive = True
    for x in range(n):
        if not rel.has(x, x):
            reflexive = False
            witnesses["reflexive"] = (x,)
            break

    symmetric = True
    for x in range(n):
        if not symmetric:
            break
        for y in bits_of(rel.rows[x]):
            if not rel.has(y, x):
                symmetric = False
                witnesses["symmetric"] = (x, y)
                break

    antisymmetric = True
    for x in range(n):
        if not antisymmetric:
            break
        for y in bits_of(rel.rows[x]):
            if x != y and rel.has(y, x):
                antisymmetric = False
                witnesses["antisymmetric"] = (x, y)
                break

    transitive = True
    for x in range(n):
        if not transitive:
            break
        for y in bits_of(rel.rows[x]):
            gap = rel.rows[y] & ~rel.rows[x]
            if gap:
                z = (gap & -gap).bit_length() - 1
                transitive = False
                witnesses["transitive"] = (x, y, z)
                break

    return PropertyReport(reflexive, symmetric, antisymmetric, transitive, witnesses)


def ref_check_bounded(sys):
    rel = sys.relation
    for x in range(sys.carrier.size):
        if not rel.has(sys.bottom, x):
            return Verdict(False, (sys.bottom, x), "bottom not below element")
    for x in range(sys.carrier.size):
        if not rel.has(x, sys.top):
            return Verdict(False, (x, sys.top), "element not below top")
    return Verdict(True)


def ref_reflexive(sys):
    for x in range(sys.carrier.size):
        if not sys.relation.has(x, x):
            return Verdict(False, (x,), "missing loop")
    return Verdict(True)


def ref_check_complemented(sys):
    u = sys.involution
    bounded = ref_check_bounded(sys)
    if not bounded:
        return Verdict(False, bounded.witness, "not bounded: " + bounded.reason)
    if u(sys.bottom) != sys.top:
        return Verdict(False, (sys.bottom,), "bottom' is not top")
    rel = sys.relation
    top_mask = 1 << sys.top
    bottom_mask = 1 << sys.bottom
    for x in range(sys.carrier.size):
        if rel.upper_mask(x, u(x)) != top_mask:
            return Verdict(False, (x,), "U(x, x') differs from {top}")
    for x in range(sys.carrier.size):
        if rel.lower_mask(x, u(x)) != bottom_mask:
            return Verdict(False, (x,), "L(x, x') differs from {bottom}")
    return Verdict(True)


def ref_is_kleene(sys):
    rel = sys.relation
    u = sys.involution
    members = range(sys.carrier.size)
    lowers = [rel.lower_mask(x, u(x)) for x in members]
    uppers = [rel.upper_mask(y, u(y)) for y in members]
    for x, lower in zip(members, lowers):
        for y, upper in zip(members, uppers):
            for z in bits_of(lower):
                gap = upper & ~rel.rows[z]
                if gap:
                    return Verdict(False, (x, y, z, (gap & -gap).bit_length() - 1),
                                   "L(x, x') not wholly below U(y, y')")
    return Verdict(True)


def ref_image_mask(image, mask):
    out = 0
    for x in bits_of(mask):
        out |= 1 << image[x]
    return out


def ref_cone_duality(sys):
    rel = sys.relation
    image = sys.involution.image
    for a in range(sys.carrier.size):
        for b in range(sys.carrier.size):
            if rel.lower_mask(a, b) != ref_image_mask(image, rel.upper_mask(image[a], image[b])):
                return Verdict(False, (a, b), "lower cone is not the primed upper cone")
    return Verdict(True)


def ref_validate_drsi(sys):
    return DrsiReport(ref_reflexive(sys), ref_is_directed(sys),
                      ref_check_involution(sys, sys.involution), ref_cone_duality(sys))


def ref_p_a_subset(sys, a):
    rel = sys.relation
    n = sys.carrier.size
    below_a = rel.column(a)
    above_a = rel.rows[a]
    members = []
    for x in range(n):
        for y in range(n):
            lm = rel.lower_mask(x, y)
            um = rel.upper_mask(x, y)
            if lm & ~below_a == 0 and um & ~above_a == 0:
                members.append(x * n + y)
    return frozenset(members)


def ref_least_upper_bounds(rel, names, bound):
    n = len(names)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            mask = rel.upper_mask(a, b)
            found = [u for u in bits_of(mask) if rel.rows[u] & mask == mask]
            if len(found) != 1:
                raise ValueError(f"no unique {bound} for pair ({names[a]}, {names[b]})")
            row.append(found[0])
        out.append(row)
    return out


def lattice_outcome(order, mode):
    """The table lattice_sheffer builds, or the message of the error it raises."""
    try:
        return lattice_sheffer(order, mode)
    except ValueError as exc:
        return str(exc)


def all_relations(n):
    car = Carrier.of_size(n)
    for mask in range(1 << n * n):
        rows = tuple(mask >> (i * n) & ((1 << n) - 1) for i in range(n))
        yield BinaryRelation(car, rows)


def random_relations(seed, count, max_size=9):
    """Relations of 1..max_size elements at mixed densities, half of them with
    every loop added, so that each property both holds and fails."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_size)
        density = rng.choice((0.1, 0.5, 0.9, 0.97))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        if rng.random() < 0.5:
            rows = [row | 1 << i for i, row in enumerate(rows)]
        yield BinaryRelation(Carrier.of_size(n), tuple(rows))


def assert_relation_scans_agree(rel):
    """Properties, reflexive verdict, and bounds at every (bottom, top) pair."""
    assert relation_properties(rel) == ref_relation_properties(rel), rel.rows
    car = rel.carrier
    sys = RelationalSystem(car, rel, ElementMap.identity(car))
    assert validate_drsi(sys).reflexive == ref_reflexive(sys), rel.rows
    for bottom, top in itertools.product(range(car.size), repeat=2):
        bounded = dataclasses.replace(sys, bottom=bottom, top=top)
        assert check_bounded(bounded) == ref_check_bounded(bounded), (rel.rows, bottom, top)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_relation_and_self_map(n):
    car = Carrier.of_size(n)
    maps = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)]
    antitone = 0
    for mask in range(1 << n * n):
        rows = tuple(mask >> (i * n) & ((1 << n) - 1) for i in range(n))
        sys = RelationalSystem(car, BinaryRelation(car, rows))
        assert is_directed(sys) == ref_is_directed(sys), rows
        for u in maps:
            verdict = check_involution(sys, u)
            assert verdict == ref_check_involution(sys, u), (rows, u.image)
            antitone += verdict.holds
    # from two elements on, the comparison reaches both outcomes
    assert n == 1 or 0 < antitone < (1 << n * n) * len(maps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kleene_on_every_relation_and_self_map(n):
    car = Carrier.of_size(n)
    maps = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)]
    for rel in all_relations(n):
        for u in maps:
            sys = RelationalSystem(car, rel, u)
            assert is_kleene(sys) == ref_is_kleene(sys), (rel.rows, u.image)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complemented_on_every_relation_involution_and_bounds(n):
    car = Carrier.of_size(n)
    involutions = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)
                   if all(image[image[x]] == x for x in range(n))]
    outcomes = set()
    for rel in all_relations(n):
        for u in involutions:
            for bottom, top in itertools.product(range(n), repeat=2):
                sys = RelationalSystem(car, rel, u, bottom, top)
                verdict = check_complemented(sys)
                assert verdict == ref_check_complemented(sys), (rel.rows, u.image, bottom, top)
                outcomes.add(verdict.reason)
    # from two elements on, every outcome but the L(x, x') cross-check is reached;
    # that one follows from the others, so it never fails first
    assert n == 1 or len(outcomes) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_scans_on_every_small_relation(n):
    for rel in all_relations(n):
        assert_relation_scans_agree(rel)


def test_relation_scans_on_random_relations():
    flags = set()
    for rel in random_relations(seed=20211, count=1500):
        assert_relation_scans_agree(rel)
        flags.add(tuple(relation_properties(rel)))
    # every flag is seen both true and false
    assert all({flag[i] for flag in flags} == {True, False} for i in range(4))


def assert_drsi_reports_agree(sys):
    assert validate_drsi(sys) == ref_validate_drsi(sys), (sys.relation.rows, sys.involution.image)


def assert_admissible_pairs_agree(sys):
    for a in range(sys.carrier.size):
        assert p_a_subset(sys, a) == ref_p_a_subset(sys, a), (sys.relation.rows, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_scans_on_every_relation_and_self_map(n):
    car = Carrier.of_size(n)
    maps = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)]
    reports = set()
    for rel in all_relations(n):
        assert_admissible_pairs_agree(RelationalSystem(car, rel))
        for u in maps:
            sys = RelationalSystem(car, rel, u)
            assert_drsi_reports_agree(sys)
            report = validate_drsi(sys)
            reports.add((report.directed.reason, report.cone_duality.holds))
    # from two elements on, each cone verdict is reached both ways
    assert n == 1 or {reason for reason, _ in reports} == {
        "", "upper cone empty", "lower cone empty"}
    assert n == 1 or {holds for _, holds in reports} == {True, False}


def test_cone_scans_on_random_relations():
    rng = random.Random(20212)
    duality = set()
    for rel in random_relations(seed=20213, count=600):
        car = rel.carrier
        n = car.size
        involution = list(range(n))
        for i in range(0, n - 1, 2):
            involution[i], involution[i + 1] = i + 1, i
        assert_admissible_pairs_agree(RelationalSystem(car, rel))
        maps = [tuple(rng.randrange(n) for _ in range(n)), tuple(involution)]
        for image in maps:
            sys = RelationalSystem(car, rel, ElementMap(car, car, image))
            assert_drsi_reports_agree(sys)
            duality.add(validate_drsi(sys).cone_duality.holds)
        if n <= 3:
            # the swap of a twist-product is always antitone, so its cones are dual
            twist = twist_product(RelationalSystem(car, rel))
            assert_drsi_reports_agree(twist)
            assert_admissible_pairs_agree(twist)
    assert duality == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_sheffer_on_every_relation_with_an_antitone_involution(n, monkeypatch):
    car = Carrier.of_size(n)
    maps = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)]
    outcomes = []
    for rel in all_relations(n):
        for u in maps:
            order = RelationalSystem(car, rel, u)
            if not check_involution(order, u):
                continue
            for mode in ("join", "meet"):
                got = lattice_outcome(order, mode)
                with monkeypatch.context() as patch:
                    patch.setattr(bridge, "_least_upper_bounds", ref_least_upper_bounds)
                    assert got == lattice_outcome(order, mode), (rel.rows, u.image, mode)
                outcomes.append(got)
    # tables and "no unique" refusals are both compared from two elements on
    assert n == 1 or any(isinstance(got, Groupoid) for got in outcomes)
    assert n == 1 or any("no unique" in str(got) for got in outcomes)


def ref_check_index(carrier, i):
    if not 0 <= i < carrier.size:
        raise IndexError(f"element index {i} out of range for carrier of size {carrier.size}")


def ref_groupoid(carrier, table, bottom=None, top=None):
    table = tuple(map(tuple, table))
    n = carrier.size
    if len(table) != n:
        raise ValueError(f"expected {n} table rows, got {len(table)}")
    for row in table:
        if len(row) != n:
            raise ValueError("table is not square")
        for v in row:
            ref_check_index(carrier, v)
    for bound in (bottom, top):
        if bound is not None:
            ref_check_index(carrier, bound)
    return Groupoid._unchecked(carrier, table, bottom, top)


def ref_element_map(domain, codomain, image):
    image = tuple(image)
    if len(image) != domain.size:
        raise ValueError("image tuple does not cover the domain")
    for v in image:
        ref_check_index(codomain, v)
    return image


def ref_from_pairs(carrier, pairs):
    rows = [0] * carrier.size
    for i, j in pairs:
        ref_check_index(carrier, i)
        ref_check_index(carrier, j)
        rows[i] |= 1 << j
    return BinaryRelation(carrier, tuple(rows))


def ref_upper_cone(sys, a, b):
    ref_check_index(sys.carrier, a)
    ref_check_index(sys.carrier, b)
    return frozenset(bits_of(sys.relation.upper_mask(a, b)))


def ref_lower_cone(sys, a, b):
    ref_check_index(sys.carrier, a)
    ref_check_index(sys.carrier, b)
    return frozenset(bits_of(sys.relation.lower_mask(a, b)))


def ref_set_related(rel, left, right):
    right_mask = 0
    for c in right:
        ref_check_index(rel.carrier, c)
        right_mask |= 1 << c
    for b in left:
        ref_check_index(rel.carrier, b)
        if rel.rows[b] & right_mask != right_mask:
            return False
    return True


def outcome(call, *args):
    """("value", what call returns), or the type name and message of its error."""
    try:
        return "value", call(*args)
    except (IndexError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def random_index(rng, n, bad=0.2):
    """An element index of an n-element carrier, or with chance ``bad`` one of -1, n, 10 * n."""
    return rng.choice((-1, n, 10 * n)) if rng.random() < bad else rng.randrange(n)


def random_indices(rng, n, count, bad):
    return [random_index(rng, n, bad) for _ in range(count)]


def random_bound(rng, n):
    return None if rng.random() < 0.4 else random_index(rng, n, bad=0.3)


def test_groupoid_checks_on_random_tables():
    rng = random.Random(20201)
    kinds = set()
    for _ in range(1500):
        n = rng.randint(1, 8)
        car = Carrier.of_size(n)
        bad = rng.choice((0, 0.02, 0.2))
        # now and then a short row or a missing row, so the checks also race a ValueError
        table = [random_indices(rng, n, n - (rng.random() < 0.03), bad)
                 for _ in range(n - (rng.random() < 0.02))]
        bottom, top = random_bound(rng, n), random_bound(rng, n)
        want = outcome(ref_groupoid, car, table, bottom, top)
        assert outcome(Groupoid, car, table, bottom, top) == want, (table, bottom, top)
        kinds.add(want[0])
    assert kinds == {"value", "IndexError", "ValueError"}


def test_map_and_pair_checks_on_random_indices():
    rng = random.Random(20202)
    kinds = set()
    for _ in range(1500):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        dom, cod = Carrier.of_size(n), Carrier.of_size(m)
        bad = rng.choice((0.02, 0.2))
        image = random_indices(rng, m, n, bad)
        want = outcome(ref_element_map, dom, cod, image)
        assert outcome(lambda: ElementMap(dom, cod, image).image) == want, (n, image)
        kinds.add(want[0])
        pairs = [tuple(random_indices(rng, n, 2, bad / 2)) for _ in range(rng.randint(0, 2 * n))]
        assert outcome(BinaryRelation.from_pairs, dom, pairs) == outcome(ref_from_pairs, dom, pairs)
    assert kinds == {"value", "IndexError"}


def test_cone_checks_on_random_systems():
    rng = random.Random(20203)
    for rel in random_relations(seed=20204, count=300, max_size=8):
        sys = RelationalSystem(rel.carrier, rel)
        n = rel.carrier.size
        for _ in range(8):
            a, b = random_indices(rng, n, 2, 0.3)
            assert outcome(upper_cone, sys, a, b) == outcome(ref_upper_cone, sys, a, b)
            assert outcome(lower_cone, sys, a, b) == outcome(ref_lower_cone, sys, a, b)


def test_set_related_checks_on_random_sets():
    rng = random.Random(20205)
    unreached = 0
    for rel in random_relations(seed=20206, count=400, max_size=8):
        n = rel.carrier.size
        for _ in range(6):
            left = random_indices(rng, n, rng.randint(0, 4), 0.15)
            right = random_indices(rng, n, rng.randint(0, 4), 0.15)
            got = outcome(set_related, rel, left, right)
            want = outcome(ref_set_related, rel, left, right)
            if want[0] == "value" and got[0] == "IndexError":
                # the copy returned at a row before it reached the bad index
                bad = next(i for i in right + left if not 0 <= i < n)
                assert got[1] == f"element index {bad} out of range for carrier of size {n}"
                unreached += 1
            else:
                assert got == want, (rel.rows, left, right)
    assert unreached
