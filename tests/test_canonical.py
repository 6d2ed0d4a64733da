"""The pruned canonical form against the exhaustive minimum of
``test_search_reference.ref_canonical_form`` on structures larger than the
enumerations reach: random tables and relations of 5 and 6 elements, a
7-element chain and an 8-element lattice groupoid, plus a 16-element
twist-product that the exhaustive minimum cannot finish."""

import random

import pytest

import shefferkit.search as search
from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    Groupoid,
    RelationalSystem,
    canonical_form,
    find_homomorphisms,
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


def relabel(g, perm):
    n = g.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[g.table[i][j]]
    bottom, top = (None if b is None else perm[b] for b in (g.bottom, g.top))
    return Groupoid(g.carrier, tuple(map(tuple, table)), bottom, top)


class TestAgainstExhaustiveMinimum:
    @pytest.mark.parametrize("n", [5, 6])
    def test_random_groupoids_with_partial_bounds(self, n):
        rng = random.Random(n)
        for values in (range(n), (0, 1), (0, n - 1), (2,)):
            for _ in range(3):
                g = random_groupoid(rng, n, values)
                assert canonical_form(g).data == ref_canonical_form(g), g

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_systems_with_partial_bounds(self, n):
        rng = random.Random(10 + n)
        for density in (0.2, 0.5, 0.8):
            for with_involution in (False, True):
                for _ in range(2):
                    s = random_system(rng, n, density, with_involution)
                    assert canonical_form(s).data == ref_canonical_form(s), s

    def test_seven_element_chain_system(self):
        s = chain(7)
        assert canonical_form(s).data == ref_canonical_form(s)

    def test_eight_element_chain_product_groupoid(self):
        g = lattice_sheffer(chain_product(2, 4), "join")
        assert canonical_form(g).data == ref_canonical_form(g)


def test_eight_element_groupoid_completes_few_relabelings(monkeypatch):
    # the identity that seeds the search, each transposition tried as a
    # twin swap and every completed relabeling go through _relabeled once
    completed = []
    real = search._relabeled

    def counting(parts, inv, below=None):
        completed.append(tuple(inv))
        return real(parts, inv, below)

    monkeypatch.setattr(search, "_relabeled", counting)
    g = lattice_sheffer(chain_product(2, 4), "join")
    moved = relabel(g, (5, 2, 7, 0, 3, 6, 1, 4))
    assert canonical_form(moved) == canonical_form(g)
    assert len(completed) < 40320 // 20, len(completed)


def test_sixteen_element_twist_product(ex1):
    g = twist_sheffer(ex1)
    n = g.size
    form = canonical_form(g)
    for seed in (1, 2):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        assert canonical_form(relabel(g, perm)) == form
    # the least data is a relabeling of the input: an isomorphism reaches it
    cells, bounds = form.data
    assert bounds is None
    least = Groupoid(g.carrier, tuple(cells[i:i + n] for i in range(0, n * n, n)))
    assert next(find_homomorphisms(g, least, injective=True), None) is not None
