"""Canonical forms, isomorphism classes and system enumeration against the
code they replaced.

``ref_relabel_groupoid`` and ``ref_relabel_system`` are copies of the two
earlier relabeling functions, and ``ref_canonical_form`` the earlier
minimum over them.  ``ref_iso_representatives`` is the earlier seen-set
pass, which kept the first model of each class in the sorted listing.
``ref_enumerate_drsi`` is the earlier nested filter, which tested
directedness once per (relation, involution) pair.  They stay here as the
reference that ``canonical_form``, ``up_to_isomorphism`` and
``enumerate_drsi`` must agree with exactly: the same forms, so the same
isomorphism partition, the same representatives, and the same systems in
the same order.
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
    count_models,
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


def ref_iso_representatives(groupoids):
    seen = set()
    kept = []
    for g in groupoids:
        form = canonical_form(g)
        if form.data not in seen:
            seen.add(form.data)
            kept.append(g)
    return kept


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


IDENTITIES = ("COMM", "SYM7", "TRANS8", "CD3", "CD9", "ANTISYM")
SHEFFER_LAW_SETS = [("AX1", "AX2")] + [("AX1", "AX2", key) for key in IDENTITIES]


def iso_specs(n):
    """Keyword sets of the specs whose classes are compared at size n."""
    if n == 4:
        for laws in SHEFFER_LAW_SETS:
            for commutative in (False, True):
                yield dict(size=n, require=laws, commutative=commutative)
        return
    for laws in [("AX1",), ("AX2",)] + SHEFFER_LAW_SETS:
        banned = "SYM7" if "COMM" in laws else "COMM"
        for commutative in (False, True):
            for forbid in ((), (banned,)):
                yield dict(size=n, require=laws, forbid=forbid, commutative=commutative)
    for key in ("BOUND0", "BOUND1", "COMPL"):
        for commutative in (False, True):
            yield dict(size=n, require=("AX1", "AX2", key), with_bounds=True,
                       commutative=commutative)
            yield dict(size=n, require=("AX1", "AX2"), forbid=(key,), with_bounds=True,
                       commutative=commutative)


class TestIsomorphismClassesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_least_members_are_the_first_of_each_class(self, n):
        for kw in iso_specs(n):
            want = ref_iso_representatives(run_enumeration(EnumerationSpec(**kw)).groupoids)
            spec = EnumerationSpec(**kw, up_to_isomorphism=True)
            assert run_enumeration(spec).groupoids == want, kw
            assert count_models(spec) == len(want), kw
            limited = EnumerationSpec(**kw, up_to_isomorphism=True, limit=2)
            assert run_enumeration(limited).groupoids == want[:2], kw

    def test_orbit_counting_on_size_four(self):
        # the orbits of the 270 classes under the 24 relabelings hold the
        # 5450 labelled models, each once
        classes = run_enumeration(EnumerationSpec(4, ("AX1", "AX2"), up_to_isomorphism=True))
        perms = list(itertools.permutations(range(4)))
        orbits = 0
        for g in classes.groupoids:
            own = ref_relabel_groupoid(g, perms[0])
            orbits += len(perms) // sum(ref_relabel_groupoid(g, p) == own for p in perms)
        assert (len(classes.groupoids), orbits) == (270, 5450)


class TestDrsiEnumerationReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_systems_in_same_order(self, n):
        assert list(enumerate_drsi(n)) == list(ref_enumerate_drsi(n))
