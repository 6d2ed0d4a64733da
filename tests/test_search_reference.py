"""Canonical forms and system enumeration against the code they replaced.

``ref_relabel_groupoid`` and ``ref_relabel_system`` are copies of the two
earlier relabeling functions, and ``ref_canonical_form`` the earlier
minimum over them.  ``ref_enumerate_drsi`` is the earlier nested filter,
which tested directedness once per (relation, involution) pair.  They stay
here as the reference that ``canonical_form`` and ``enumerate_drsi`` must
agree with exactly: the same forms, so the same isomorphism partition, and
the same systems in the same order.
"""

import itertools

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    EnumerationSpec,
    Groupoid,
    RelationalSystem,
    canonical_form,
    check_involution,
    enumerate_drsi,
    is_directed,
    run_enumeration,
)


# ---------------------------------------------------------------------------
# reference copies


def ref_relabel_groupoid(g, perm):
    n = g.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[g.table[i][j]]
    flat = tuple(v for row in table for v in row)
    bounds = None
    if g.bottom is not None or g.top is not None:
        bounds = (None if g.bottom is None else perm[g.bottom],
                  None if g.top is None else perm[g.top])
    return (flat, bounds)


def ref_relabel_system(sys, perm):
    n = sys.carrier.size
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = 1 if sys.relation.has(i, j) else 0
    flat = tuple(v for row in matrix for v in row)
    image = None
    if sys.involution is not None:
        relabeled = [0] * n
        for i in range(n):
            relabeled[perm[i]] = perm[sys.involution(i)]
        image = tuple(relabeled)
    bounds = None
    if sys.bottom is not None or sys.top is not None:
        bounds = (None if sys.bottom is None else perm[sys.bottom],
                  None if sys.top is None else perm[sys.top])
    return (flat, image, bounds)


def ref_canonical_form(obj):
    relabel = ref_relabel_groupoid if isinstance(obj, Groupoid) else ref_relabel_system
    n = obj.carrier.size
    return min(relabel(obj, perm) for perm in itertools.permutations(range(n)))


def ref_enumerate_drsi(n):
    carrier = Carrier.of_size(n)
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    involutions = [p for p in itertools.permutations(range(n))
                   if all(p[p[i]] == i for i in range(n))]
    for mask in range(1 << len(off_diag)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off_diag):
            if mask >> k & 1:
                rows[i] |= 1 << j
        relation = BinaryRelation(carrier, tuple(rows))
        for image in involutions:
            u = ElementMap(carrier, carrier, image)
            sys = RelationalSystem(carrier, relation, u)
            if check_involution(sys, u).holds and is_directed(sys).holds:
                yield sys


# ---------------------------------------------------------------------------
# comparisons


def bound_choices(n):
    return list(itertools.product([None, *range(n)], repeat=2))


def assert_same_forms(structures):
    for obj in structures:
        assert canonical_form(obj).data == ref_canonical_form(obj), obj


class TestCanonicalFormReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_sheffer_model(self, n):
        assert_same_forms(run_enumeration(EnumerationSpec(n, ("AX1", "AX2"))).groupoids)

    def test_size3_with_bounds_models(self):
        spec = EnumerationSpec(3, ("AX1", "AX2"), with_bounds=True)
        models = run_enumeration(spec).groupoids
        assert len(models) == 52 * 9
        assert_same_forms(models)

    def test_small_models_with_partial_bounds(self, sheffer_by_size):
        assert_same_forms(Groupoid(g.carrier, g.table, bottom, top)
                          for n, gs in sheffer_by_size.items() for g in gs
                          for bottom, top in bound_choices(n))

    def test_every_small_drsi_with_and_without_involution_and_bounds(self, drsi_by_size):
        assert_same_forms(RelationalSystem(s.carrier, s.relation, involution, bottom, top)
                          for n, systems in drsi_by_size.items() for s in systems
                          for involution in (s.involution, None)
                          for bottom, top in bound_choices(n))


class TestDrsiEnumerationReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_systems_in_same_order(self, n):
        assert list(enumerate_drsi(n)) == list(ref_enumerate_drsi(n))
