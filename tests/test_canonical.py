"""Canonical forms decide isomorphism on structures larger than the
enumerations reach.  Each structure keeps its form under random
relabelings.  Up to 8 elements, a one-cell or one-bit change, and a swap
of two cells or of two relation pairs that keeps every element signature
of the key, give an equal form exactly when the exhaustive minimum of
``test_search_reference.ref_canonical_form`` is equal: random tables and
relations of 5 and 6 elements, a 7-element chain and an 8-element lattice
groupoid.  On 16-element twists, where that minimum cannot finish, a
change that an invariant shows to leave the class gives an unequal form."""

import itertools
import random

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    Groupoid,
    RelationalSystem,
    canonical_form,
    EnumerationSpec,
    is_sheffer,
    relation_properties,
    run_enumeration,
    twist_product,
    lattice_sheffer,
    twist_sheffer,
)
from test_search_reference import ref_canonical_form


def random_groupoid(rng, n, values):
    """A table whose cells are drawn from ``values``, with a random bottom
    and top, either of which may be missing."""
    table = tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
    bottom, top = (rng.choice([None, *range(n)]) for _ in range(2))
    return Groupoid(Carrier.of_size(n), table, bottom, top)


def random_involution(rng, n):
    image = list(range(n))
    rest = list(range(n))
    rng.shuffle(rest)
    for a, b in zip(rest[0::2], rest[1::2]):
        if rng.random() < 0.5:
            image[a], image[b] = b, a
    return tuple(image)


def random_system(rng, n, density, with_involution):
    car = Carrier.of_size(n)
    rows = tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n))
    u = ElementMap(car, car, random_involution(rng, n)) if with_involution else None
    bottom, top = (rng.choice([None, *range(n)]) for _ in range(2))
    return RelationalSystem(car, BinaryRelation(car, rows), u, bottom, top)


def chain(n):
    """n-element chain, i <= j, with the order-reversing involution."""
    car = Carrier.of_size(n)
    rel = BinaryRelation(car, tuple(sum(1 << j for j in range(i, n)) for i in range(n)))
    return RelationalSystem(car, rel, ElementMap(car, car, tuple(range(n - 1, -1, -1))), 0, n - 1)


def chain_product(a, b):
    """The product order of an a-chain and a b-chain, element x = (x // b, x % b),
    with the product of the order-reversing involutions."""
    n = a * b
    car = Carrier.of_size(n)
    rows = tuple(sum(1 << y for y in range(n) if x // b <= y // b and x % b <= y % b)
                 for x in range(n))
    image = tuple((a - 1 - x // b) * b + (b - 1 - x % b) for x in range(n))
    return RelationalSystem(car, BinaryRelation(car, rows), ElementMap(car, car, image), 0, n - 1)


def relabel(obj, perm):
    """The copy of a groupoid or system in which element x is named perm[x]."""
    n = obj.carrier.size
    bottom, top = (None if b is None else perm[b] for b in (obj.bottom, obj.top))
    if isinstance(obj, Groupoid):
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[perm[i]][perm[j]] = perm[obj.table[i][j]]
        return Groupoid(obj.carrier, tuple(map(tuple, table)), bottom, top)
    rows = [0] * n
    for i, j in obj.relation.pairs():
        rows[perm[i]] |= 1 << perm[j]
    u = None
    if obj.involution is not None:
        image = [0] * n
        for i in range(n):
            image[perm[i]] = perm[obj.involution(i)]
        u = ElementMap(obj.carrier, obj.carrier, tuple(image))
    return RelationalSystem(obj.carrier, BinaryRelation(obj.carrier, tuple(rows)), u, bottom, top)


def with_table(g, cells):
    """``g`` with the given ``{(x, y): value}`` cells."""
    table = [list(row) for row in g.table]
    for (x, y), v in cells.items():
        table[x][y] = v
    return Groupoid(g.carrier, tuple(map(tuple, table)), g.bottom, g.top)


def with_flips(s, pairs):
    """``s`` with the relation bit of each pair flipped."""
    rows = list(s.relation.rows)
    for x, y in pairs:
        rows[x] ^= 1 << y
    return RelationalSystem(s.carrier, BinaryRelation(s.carrier, tuple(rows)),
                            s.involution, s.bottom, s.top)


def changes(obj, rng):
    """A one-cell or one-bit change of ``obj``, then a change that keeps
    every element signature of the key when there is one: two off-diagonal
    cells with different values swapped, or related pairs (a, b), (c, d)
    with (a, d), (c, b) unrelated moved to (a, d), (c, b)."""
    n = obj.carrier.size
    x, y = rng.randrange(n), rng.randrange(n)
    if isinstance(obj, Groupoid):
        yield with_table(obj, {(x, y): (obj.table[x][y] + 1) % n})
        cells = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(cells)
        for p, q in zip(cells, cells[1:]):
            if obj.table[p[0]][p[1]] != obj.table[q[0]][q[1]]:
                yield with_table(obj, {p: obj.table[q[0]][q[1]], q: obj.table[p[0]][p[1]]})
                return
        return
    yield with_flips(obj, [(x, y)])
    pairs = list(obj.relation.pairs())
    rng.shuffle(pairs)
    for (a, b), (c, d) in zip(pairs, pairs[1:]):
        if not obj.relation.has(a, d) and not obj.relation.has(c, b):
            yield with_flips(obj, [(a, b), (c, d), (a, d), (c, b)])
            return


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def assert_partition_kept(obj, rng):
    """Relabelings keep the form and its hash, and each change gives an
    equal form exactly when the exhaustive minimum is equal."""
    form, want = canonical_form(obj), ref_canonical_form(obj)
    for _ in range(2):
        moved = canonical_form(relabel(obj, shuffled(rng, obj.carrier.size)))
        assert moved == form and hash(moved) == hash(form), obj
    for changed in changes(obj, rng):
        same = ref_canonical_form(changed) == want
        assert (canonical_form(changed) == form) == same, (obj, changed)
        # relabeling the changed copy keeps the verdict
        moved = relabel(changed, shuffled(rng, obj.carrier.size))
        assert (canonical_form(moved) == form) == same, (obj, moved)


class TestAgainstExhaustiveMinimum:
    @pytest.mark.parametrize("n", [5, 6])
    def test_random_groupoids_with_partial_bounds(self, n):
        rng = random.Random(n)
        for values in (range(n), (0, 1), (0, n - 1), (2,)):
            for _ in range(3):
                assert_partition_kept(random_groupoid(rng, n, values), rng)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_systems_with_partial_bounds(self, n):
        rng = random.Random(10 + n)
        for density in (0.2, 0.5, 0.8):
            for with_involution in (False, True):
                for _ in range(2):
                    assert_partition_kept(random_system(rng, n, density, with_involution), rng)

    def test_seven_element_chain_system(self):
        assert_partition_kept(chain(7), random.Random(7))

    def test_eight_element_chain_product_groupoid(self):
        assert_partition_kept(lattice_sheffer(chain_product(2, 4), "join"), random.Random(8))


def test_sixteen_element_twist_product(ex1):
    g = twist_sheffer(ex1)
    form = canonical_form(g)
    for seed in (1, 2):
        assert canonical_form(relabel(g, shuffled(random.Random(seed), g.size))) == form
    # two cells swapped keep the key, and the copy is no Sheffer groupoid
    swapped = with_table(g, {(0, 1): g.table[0][3], (0, 3): g.table[0][1]})
    assert g.table[0][1] != g.table[0][3]
    assert is_sheffer(g).holds and not is_sheffer(swapped).holds
    assert canonical_form(swapped) != form


def test_chain_twist_product_is_decided_at_once():
    # twist_product(chain(4)): the exhaustive and the least-relabeling forms
    # took minutes here
    s = twist_product(chain(4))
    form = canonical_form(s)
    for seed in (1, 2):
        assert canonical_form(relabel(s, shuffled(random.Random(seed), 16))) == form
    assert canonical_form(with_flips(s, [(0, 15)])) != form
    # a swap of related pairs keeps the key and breaks transitivity
    a, b, c, d = next((a, b, c, d) for (a, b), (c, d) in itertools.combinations(s.relation.pairs(), 2)
                      if not s.relation.has(a, d) and not s.relation.has(c, b))
    swapped = with_flips(s, [(a, b), (c, d), (a, d), (c, b)])
    assert relation_properties(s.relation).transitive
    assert not relation_properties(swapped.relation).transitive
    assert canonical_form(swapped) != form


@pytest.mark.parametrize("n, classes", [(3, 11), (4, 270)])
def test_forms_deduplicate_the_models(n, classes):
    models = run_enumeration(EnumerationSpec(n, ("AX1", "AX2"))).groupoids
    assert len({canonical_form(g) for g in models}) == classes
