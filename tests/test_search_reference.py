"""Canonical forms, isomorphism classes and system enumeration against the
code they replaced.

``ref_relabel_groupoid`` and ``ref_relabel_system`` are copies of the two
earlier relabeling functions, and ``ref_canonical_form`` the earlier
minimum over them, whose equality is the isomorphism partition.
``ref_iso_representatives`` is the earlier seen-set pass, which kept the
first model of each class in the sorted listing.  ``ref_enumerate_drsi``
is the earlier nested filter, which tested directedness once per
(relation, involution) pair, and ``ref_involutions`` the earlier recursive
walk over period-two maps.  ``ref_least_member`` is the earlier per-model
loop of ``up_to_isomorphism``, which built relabeled rows through
``ref_relabeled`` (a copy of the earlier least-relabeling step) until one
was smaller.  ``ref_models`` is the earlier listing, which walked the
labelled search tree and kept every table it yielded, and
``ref_count_models`` the earlier count, one by one over those models.
``ref_bounded_models`` is the earlier handling of bounds, which crossed
each table of the constant-free search with every bottom and top, kept
the pairs that passed the automorphism tie-break ``ref_kept_pairs`` and
filtered them through ``check_law`` on the required laws with constants
and on the forbidden laws; ``ref_orbit_weight`` is the earlier
bound-fixing stabilizer weight of a count.  ``ref_ground`` is the earlier
grounding, which built every law's instances afresh on each call.  They
stay here as the reference that ``canonical_form``, ``up_to_isomorphism``,
the node check ``_narrow`` on a table and its bound cells, the listing by
orbits, the bounded listing, the orbit sums of ``count_models``, the
cached ``_ground``, ``enumerate_drsi`` and ``_involutions`` must agree
with exactly: the same isomorphism partition, the same representatives,
the same verdicts, the same counts, the same instances, and the same
systems and maps in the same order.

``SEARCH_TREES`` pins the model count, branching nodes and forced cells of
the labelled table search as measured before its propagation step was
made lighter; that change must leave the search tree as it was.
``ISO_SEARCH_TREES`` pins the same figures up to isomorphism, where the
search cuts subtrees; a listing and a count walk that tree.
"""

import itertools
import math
from dataclasses import replace

import pytest

from shefferkit import (
    CATALOG,
    BinaryRelation,
    Carrier,
    ElementMap,
    EnumerationResult,
    EnumerationSpec,
    Groupoid,
    RelationalSystem,
    canonical_form,
    check_involution,
    check_law,
    count_models,
    enumerate_drsi,
    get_law,
    is_directed,
    parse_law,
    run_enumeration,
)
from shefferkit.search import (_builder, _cell_order, _count, _ground, _ground_law, _involutions,
                               _models, _narrow, _relabelings, _search_tables)
from shefferkit.terms import _compile


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
        form = ref_canonical_form(g)
        if form not in seen:
            seen.add(form)
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


def ref_parts(obj):
    """The kind of ``obj`` and what ``ref_relabeled`` reads of it: the cell rows,
    whether cell values are elements, the involution image and the bounds."""
    if isinstance(obj, Groupoid):
        kind, rows, values, involution = "groupoid", obj.table, True, None
    else:
        kind, rows, values = "system", obj.relation.matrix(), False
        involution = None if obj.involution is None else obj.involution.image
    bounds = None if obj.bottom is None and obj.top is None else (obj.bottom, obj.top)
    return kind, (rows, values, involution, bounds)


def ref_relabeled(parts, inv, below=None):
    """The data of a structure relabeled by the inverse permutation ``inv``
    (new label ``a`` is old element ``inv[a]``); with ``below``, None unless
    that data is lexicographically less than ``below``."""
    rows, values, involution, bounds = parts
    n = len(inv)
    perm = [0] * n
    for a, i in enumerate(inv):
        perm[i] = a
    cells = []
    settled = below is None
    for a, i in enumerate(inv):
        row = rows[i]
        got = tuple([perm[row[j]] for j in inv] if values else [row[j] for j in inv])
        if not settled:
            want = below[0][a * n:a * n + n]
            if got > want:
                return None
            settled = got < want
        cells.extend(got)
    data = (tuple(cells),)
    if not values:
        data += (None if involution is None else tuple([perm[involution[i]] for i in inv]),)
    data += (None if bounds is None else tuple(None if b is None else perm[b] for b in bounds),)
    return data if settled or data < below else None


def ref_least_member(g, inverses):
    parts = ref_parts(g)[1]
    own = ref_relabeled(parts, range(g.size))
    return not any(ref_relabeled(parts, inv, own) is not None for inv in inverses)


def ref_ground(laws, n):
    out = []
    for law in laws:
        sides = []
        for t in law.sides:
            prog = _compile([t])
            reads = tuple((n * n, ("bottom", "top").index(which)) for which in prog.consts)
            sides.append(([law.variables.index(name) for name in prog.names], reads, prog.apps,
                          prog.roots[0], [~i for i in range(len(reads) + len(prog.apps))]))
        for combo in itertools.product(range(n), repeat=len(law.variables)):
            ground = []
            for pos, reads, apps, root, results in sides:
                rights = [combo[p] for p in pos] + results
                lefts = [combo[p] * n for p in pos] + results
                ground.append(rights[root] if root < len(pos) else
                              reads + tuple((lefts[a], rights[b]) for a, b in apps))
            eqs = list(zip(ground[0::2], ground[1::2]))
            out.append((tuple(eqs[:-1]), eqs[-1]))
    return out


def ref_involutions(n):
    image = [None] * n

    def rec(start):
        i = next((k for k in range(start, n) if image[k] is None), None)
        if i is None:
            yield tuple(image)
            return
        image[i] = i
        yield from rec(i + 1)
        image[i] = None
        for j in range(i + 1, n):
            if image[j] is None:
                image[i] = j
                image[j] = i
                yield from rec(i + 1)
                image[i] = None
                image[j] = None

    yield from rec(0)


def row_major(n, with_bounds=False):
    """The n! - 1 relabelings over a table's cells row-major, then the
    bottom and top cells ``with_bounds``, as a listing narrows by."""
    return _relabelings(n, tuple(range(n * n + 2 if with_bounds else n * n)))


def ref_models(spec, result=None):
    """The models of the spec in the order of its search tree, the limit
    ignored: every labelled model, or under ``up_to_isomorphism`` the least
    of each class in row-major order.  The search adds its nodes and forced
    cells to ``result``."""
    result = result or EnumerationResult([], 0, 0.0, 0, 0)
    relabelings = row_major(spec.size, spec.with_bounds) if spec.up_to_isomorphism else []
    build = _builder(spec.size)
    return [build(flat) for flat, _, _ in _models(spec, _search_tables(spec, result, relabelings), build)]


def ref_count_models(spec):
    return len(ref_models(spec)[:spec.limit])


def ref_kept_pairs(n, automorphisms):
    """The (bottom, top) pairs that no automorphism of the table maps to a
    smaller pair, so that each class keeps its least member."""
    return [(bottom, top) for bottom, top in itertools.product(range(n), repeat=2)
            if all((perm[bottom], perm[top]) >= (bottom, top) for _, _, perm in automorphisms)]


def ref_bounded_models(spec):
    """Each model of a spec with bounds and the automorphisms of its table:
    every table of the search for the constant-free required laws, crossed
    with the kept bottom and top pairs, and checked against the required
    laws with constants and the forbidden laws."""
    n = spec.size
    carrier = Carrier.of_size(n)
    const_require = [law for law in spec.require if law.constants]
    free = replace(spec, require=tuple(law for law in spec.require if not law.constants),
                   forbid=(), with_bounds=False)
    relabelings = row_major(n) if free.up_to_isomorphism else []
    for flat, automorphisms in _search_tables(free, EnumerationResult([], 0, 0.0, 0, 0), relabelings):
        table = tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))
        for bottom, top in ref_kept_pairs(n, automorphisms):
            g = Groupoid._unchecked(carrier, table, bottom, top)
            if any(check_law(g, law).holds for law in spec.forbid) or \
                    not all(check_law(g, law).holds for law in const_require):
                continue
            yield g, automorphisms


def ref_orbit_weight(g, automorphisms):
    """n!/|Stab|, Stab being the identity and the automorphisms of the
    table that fix the bottom and top."""
    return math.factorial(g.size) // (1 + sum((perm[g.bottom], perm[g.top]) == (g.bottom, g.top)
                                              for _, _, perm in automorphisms))


def ref_bounded_count(spec):
    """The number of models, summed over the classes as ``_count`` did."""
    classes = replace(spec, up_to_isomorphism=True)
    return sum(1 if spec.up_to_isomorphism else ref_orbit_weight(g, automorphisms)
               for g, automorphisms in ref_bounded_models(classes))


# ---------------------------------------------------------------------------
# comparisons


def bound_choices(n):
    return list(itertools.product([None, *range(n)], repeat=2))


def assert_same_partition(structures):
    """Forms are equal, with equal hashes, exactly within the classes of
    ``ref_canonical_form``: every form equals the others of its class, and
    the forms of one member of each class are pairwise unequal."""
    classes = {}
    for obj in structures:
        classes.setdefault(ref_canonical_form(obj), []).append(canonical_form(obj))
    for first, *rest in classes.values():
        for form in rest:
            assert form == first and hash(form) == hash(first), (first.structure, form.structure)
    for a, b in itertools.combinations([forms[0] for forms in classes.values()], 2):
        assert a != b, (a.structure, b.structure)


class TestCanonicalFormReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_sheffer_model(self, n):
        assert_same_partition(run_enumeration(EnumerationSpec(n, ("AX1", "AX2"))).groupoids)

    def test_size3_with_bounds_models(self):
        spec = EnumerationSpec(3, ("AX1", "AX2"), with_bounds=True)
        models = run_enumeration(spec).groupoids
        assert len(models) == 52 * 9
        assert_same_partition(models)

    def test_small_models_with_partial_bounds(self, sheffer_by_size):
        assert_same_partition(Groupoid(g.carrier, g.table, bottom, top)
                          for n, gs in sheffer_by_size.items() for g in gs
                          for bottom, top in bound_choices(n))

    def test_every_small_drsi_with_and_without_involution_and_bounds(self, drsi_by_size):
        assert_same_partition(RelationalSystem(s.carrier, s.relation, involution, bottom, top)
                          for n, systems in drsi_by_size.items() for s in systems
                          for involution in (s.involution, None)
                          for bottom, top in bound_choices(n))


IDENTITIES = ("COMM", "SYM7", "TRANS8", "CD3", "CD9", "ANTISYM")
SHEFFER_LAW_SETS = [("AX1", "AX2")] + [("AX1", "AX2", key) for key in IDENTITIES]


def iso_specs(n):
    """Keyword sets of the specs whose classes are compared at size n."""
    if n == 4:
        for laws in SHEFFER_LAW_SETS:
            for comm in ((), ("COMM",)):
                yield dict(size=n, require=laws + comm)
        return
    for laws in [("AX1",), ("AX2",)] + SHEFFER_LAW_SETS:
        banned = "SYM7" if "COMM" in laws else "COMM"
        for comm in ((), ("COMM",)):
            for forbid in ((), (banned,)):
                yield dict(size=n, require=laws + comm, forbid=forbid)
    yield from bounded_specs(n)


def bounded_specs(n, forbidden=True):
    """Keyword sets of the specs with bounds at size n: each law with
    constants required, or with ``forbidden`` also forbidden, with and
    without COMM."""
    for key in ("BOUND0", "BOUND1", "COMPL"):
        for comm in ((), ("COMM",)):
            yield dict(size=n, require=("AX1", "AX2", key) + comm, with_bounds=True)
            if forbidden:
                yield dict(size=n, require=("AX1", "AX2") + comm, forbid=(key,), with_bounds=True)


class TestIsomorphismClassesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_least_members_are_the_first_of_each_class(self, n):
        for kw in iso_specs(n):
            want = ref_iso_representatives(ref_models(EnumerationSpec(**kw)))
            spec = EnumerationSpec(**kw, up_to_isomorphism=True)
            assert run_enumeration(spec).groupoids == want, kw
            assert count_models(spec) == len(want), kw
            limited = EnumerationSpec(**kw, up_to_isomorphism=True, limit=2)
            assert run_enumeration(limited).groupoids == want[:2], kw

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_counting_below_size_four(self, n):
        assert_orbit_sums(n)

    def test_orbit_counting_on_size_four(self):
        # e.g. the orbits of the 270 AX1,AX2 classes under the 24
        # relabelings hold the 5450 labelled models, each once
        assert_orbit_sums(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_equal_the_plain_walk(self, n):
        # the count (``_count``) narrows in the search's own cell order, the
        # reference row-major: other representatives, the same classes
        for kw in iso_specs(n):
            for iso, limit in itertools.product((False, True), (0, 1, 7, None)):
                spec = EnumerationSpec(**kw, up_to_isomorphism=iso, limit=limit)
                assert count_models(spec) == ref_count_models(spec), (kw, iso, limit)


class TestListingByOrbitsReference:
    """A plain listing walks the tree of the search up to isomorphism and
    expands each class representative into its orbit; it lists the models
    of the labelled search, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_models_in_same_order(self, n):
        # iso_specs(n) holds bounded_specs(n) below size four
        for kw in iso_specs(n):
            spec = EnumerationSpec(**kw)
            want = [(g.table, g.bottom, g.top) for g in ref_models(spec)]
            for limit in (0, 1, 7, None):
                got = run_enumeration(replace(spec, limit=limit)).groupoids
                assert [(g.table, g.bottom, g.top) for g in got] == want[:limit], (kw, limit)


def assert_same_bounded_models(specs):
    """The listing, bounds and order included, and the count of each spec
    equal the crossing of the constant-free search with the bounds, with
    and without classes and at every limit."""
    for kw, iso in itertools.product(specs, (False, True)):
        spec = EnumerationSpec(**kw, up_to_isomorphism=iso)
        want = [(g.table, g.bottom, g.top) for g, _ in ref_bounded_models(spec)]
        total = ref_bounded_count(spec)
        for limit in (0, 1, 7, None):
            limited = replace(spec, limit=limit)
            got = [(g.table, g.bottom, g.top) for g in run_enumeration(limited).groupoids]
            assert got == want[:limit], (kw, iso, limit)
            assert count_models(limited) == min(total, math.inf if limit is None else limit), \
                (kw, iso, limit)


class TestBoundedModelsReference:
    """Bottom and top are two more cells of the table search; the models
    are those of the earlier crossing of each table with its bounds."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_models_below_size_four(self, n):
        assert_same_bounded_models(bounded_specs(n))

    @pytest.mark.slow
    def test_same_models_on_size_four(self):
        # about 4 s, most of it in the reference's 87,200 law checks per
        # spec without COMM
        assert_same_bounded_models(bounded_specs(4, forbidden=False))


def assert_orbit_sums(n):
    """For each spec at size n, the orbits of its classes under the n!
    relabelings, sized through the reference relabeling, hold every
    labelled model once: the sum of n!/|Aut| over the classes is the
    plain count."""
    perms = list(itertools.permutations(range(n)))
    for kw in iso_specs(n):
        orbits = 0
        for g in run_enumeration(EnumerationSpec(**kw, up_to_isomorphism=True)).groupoids:
            own = ref_relabel_groupoid(g, perms[0])
            orbits += len(perms) // sum(ref_relabel_groupoid(g, p) == own for p in perms)
        assert orbits == ref_count_models(EnumerationSpec(**kw)), kw


def kept_bounds(flat, n, plain, bounded):
    """The bounds under which ``_narrow`` keeps the complete table as the
    least of its class: (None, None) for the table alone, narrowed by the
    relabelings ``plain``, and each (bottom, top) pair for the table
    followed by its two bound cells, narrowed by ``bounded``."""
    kept = set() if _narrow(flat, plain) is None else {(None, None)}
    return kept | {pair for pair in itertools.product(range(n), repeat=2)
                   if _narrow([*flat, *pair], bounded) is not None}


def ref_least_in_order(flat, n, order):
    """Whether no relabeling of the table (and its bounds, after its
    cells) is smaller when both are read in the cell ``order``, computed
    from the relabeled tables."""
    own = [flat[c] for c in order]
    for perm in itertools.permutations(range(n)):
        moved = [0] * len(flat)
        for i, j in itertools.product(range(n), repeat=2):
            moved[perm[i] * n + perm[j]] = perm[flat[i * n + j]]
        moved[n * n:] = [perm[b] for b in flat[n * n:]]
        if [moved[c] for c in order] < own:
            return False
    return True


def universe(n):
    """Every operation table of size n, flat."""
    return itertools.product(range(n), repeat=n * n)


class TestLeastMemberReference:
    def test_same_verdicts(self, sheffer_by_size):
        # one relabeling at a time on the Sheffer models
        verdicts = set()
        for n, models in sheffer_by_size.items():
            inverses = list(itertools.permutations(range(n)))[1:]
            plain, bounded = row_major(n), row_major(n, True)
            assert len(plain) == len(bounded) == len(inverses)
            for g in models:
                flat = [v for row in g.table for v in row]
                for inv, one, one_bounded in zip(inverses, plain, bounded):
                    kept = kept_bounds(flat, n, [one], [one_bounded])
                    for bottom, top in [(None, None), *itertools.product(range(n), repeat=2)]:
                        got = (bottom, top) in kept
                        assert got == ref_least_member(Groupoid(g.carrier, g.table, bottom, top),
                                                       [inv]), (g, bottom, top, inv)
                        verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_table_with_and_without_bounds(self, n):
        carrier = Carrier.of_size(n)
        inverses = list(itertools.permutations(range(n)))[1:]
        plain, bounded = row_major(n), row_major(n, True)
        for flat in universe(n):
            table = tuple(flat[i:i + n] for i in range(0, n * n, n))
            kept = kept_bounds(flat, n, plain, bounded)
            least = ref_least_member(Groupoid._unchecked(carrier, table, None, None), inverses)
            assert ((None, None) in kept) == least, table
            # the reference compares cells before bounds, so a table whose
            # cells are not least is not least under any bounds
            for bottom, top in itertools.product(range(n), repeat=2):
                want = least and ref_least_member(Groupoid._unchecked(carrier, table, bottom, top),
                                                  inverses)
                assert ((bottom, top) in kept) == want, (table, bottom, top)

    def test_node_cuts_only_non_least_tables(self):
        # the search knows the diagonal and then a row-major prefix; a cut
        # there rejects every completion, and no relabeling that ties on
        # the complete table is dropped on the way
        n = 3
        carrier = Carrier.of_size(n)
        inverses = list(itertools.permutations(range(n)))[1:]
        relabelings = row_major(n)
        rest = [i * n + j for i in range(n) for j in range(n) if i != j]
        cuts = 0
        for flat in universe(n):
            automorphisms = _narrow(flat, relabelings)
            partial = [v if c % (n + 1) == 0 else -1 for c, v in enumerate(flat)]
            for cell in [None, *rest]:
                if cell is not None:
                    partial[cell] = flat[cell]
                live = _narrow(partial, relabelings)
                if live is None:
                    cuts += 1
                    table = tuple(flat[i:i + n] for i in range(0, n * n, n))
                    assert not ref_least_member(Groupoid._unchecked(carrier, table, None, None),
                                                inverses), (table, partial)
                    break
                assert automorphisms is None or set(map(id, automorphisms)) <= set(map(id, live))
        assert cuts

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_search_order_keeps_the_least_in_that_order(self, n):
        # the relabelings a count narrows by, over the diagonal, the other
        # cells row-major and the bounds, on every table, with bounds below
        # size three; a cut on a prefix of that order, as the search fixes
        # it, rejects every completion
        plain = _relabelings(n, _cell_order(n, n * n))
        bounded = _relabelings(n, _cell_order(n, n * n + 2))
        choices = [None, *itertools.product(range(n), repeat=2)] if n < 3 else [None]
        cuts = 0
        for flat in universe(n):
            for pair in choices:
                full, relabelings = (flat, plain) if pair is None else ([*flat, *pair], bounded)
                order = _cell_order(n, len(full))
                least = ref_least_in_order(full, n, order)
                assert (_narrow(full, relabelings) is not None) == least, (full, order)
                if pair is None:
                    partial = [-1] * len(full)
                    for cell in order:
                        partial[cell] = full[cell]
                        if _narrow(partial, relabelings) is None:
                            cuts += 1
                            assert not least, (full, partial)
                            break
        # one element has no other relabeling
        assert cuts or n == 1


# (count, nodes, forced) at n = 4 per required law set
SEARCH_TREES = {
    ("AX1", "AX2"): (5450, 20268, 3537),
    ("AX1", "AX2", "COMM"): (96, 596, 177),
    ("AX1", "AX2", "COMM", "COMM"): (96, 596, 177),
    ("AX1", "AX2", "SYM7"): (434, 1960, 709),
    ("AX1", "AX2", "SYM7", "COMM"): (0, 88, 65),
    ("AX1", "AX2", "TRANS8"): (802, 5440, 1651),
    ("AX1", "AX2", "TRANS8", "COMM"): (48, 304, 191),
    ("AX1", "AX2", "CD3"): (96, 812, 564),
    ("AX1", "AX2", "CD3", "COMM"): (96, 596, 177),
    ("AX1", "AX2", "CD9"): (646, 4092, 1423),
    ("AX1", "AX2", "CD9", "COMM"): (96, 596, 177),
    ("AX1", "AX2", "ANTISYM"): (504, 4940, 1548),
    ("AX1", "AX2", "ANTISYM", "COMM"): (96, 596, 177),
}
# the same at n = 3 with bounds, per law with constants
BOUNDED_SEARCH_TREES = {"BOUND0": (198, 531, 56), "BOUND1": (198, 801, 56), "COMPL": (0, 21, 19)}


# (classes, nodes, forced) of the same specs up to isomorphism, where the
# search cuts a subtree at the node where a smaller relabeling shows
ISO_SEARCH_TREES = {
    ("AX1", "AX2"): (270, 1804, 502),
    ("AX1", "AX2", "COMM"): (6, 92, 57),
    ("AX1", "AX2", "COMM", "COMM"): (6, 92, 57),
    ("AX1", "AX2", "SYM7"): (35, 288, 208),
    ("AX1", "AX2", "SYM7", "COMM"): (0, 48, 35),
    ("AX1", "AX2", "TRANS8"): (43, 580, 311),
    ("AX1", "AX2", "TRANS8", "COMM"): (3, 72, 66),
    ("AX1", "AX2", "CD3"): (6, 116, 123),
    ("AX1", "AX2", "CD3", "COMM"): (6, 92, 57),
    ("AX1", "AX2", "CD9"): (40, 448, 309),
    ("AX1", "AX2", "CD9", "COMM"): (6, 92, 57),
    ("AX1", "AX2", "ANTISYM"): (24, 480, 223),
    ("AX1", "AX2", "ANTISYM", "COMM"): (6, 92, 57),
}
ISO_BOUNDED_SEARCH_TREES = {"BOUND0": (35, 129, 24), "BOUND1": (35, 174, 24), "COMPL": (0, 12, 10)}

# the same classes on the tree a count walks, whose relabelings compare the
# cells in the order the search fixes them (diagonal first), so a relabeling
# that differs on the diagonal is settled there
COUNT_SEARCH_TREES = {
    ("AX1", "AX2"): (270, 1604, 417),
    ("AX1", "AX2", "COMM"): (6, 72, 41),
    ("AX1", "AX2", "COMM", "COMM"): (6, 72, 41),
    ("AX1", "AX2", "SYM7"): (35, 264, 171),
    ("AX1", "AX2", "SYM7", "COMM"): (0, 36, 23),
    ("AX1", "AX2", "TRANS8"): (43, 580, 242),
    ("AX1", "AX2", "TRANS8", "COMM"): (3, 52, 46),
    ("AX1", "AX2", "CD3"): (6, 92, 91),
    ("AX1", "AX2", "CD3", "COMM"): (6, 72, 41),
    ("AX1", "AX2", "CD9"): (40, 448, 241),
    ("AX1", "AX2", "CD9", "COMM"): (6, 72, 41),
    ("AX1", "AX2", "ANTISYM"): (24, 452, 169),
    ("AX1", "AX2", "ANTISYM", "COMM"): (6, 72, 41),
}
# at n = 3 the two orders cut the same subtrees
COUNT_BOUNDED_SEARCH_TREES = ISO_BOUNDED_SEARCH_TREES


def labelled_tree(spec):
    """(models, nodes, forced) of the labelled search for the spec."""
    result = EnumerationResult([], 0, 0.0, 0, 0)
    return len(ref_models(spec, result)), result.nodes, result.forced


class TestSearchTreePins:
    @pytest.mark.parametrize("laws", list(dict.fromkeys(laws + comm for laws in SHEFFER_LAW_SETS
                                                        for comm in ((), ("COMM",)))), ids=",".join)
    def test_size_four(self, laws):
        assert labelled_tree(EnumerationSpec(4, laws)) == SEARCH_TREES[laws]

    @pytest.mark.parametrize("key", sorted(BOUNDED_SEARCH_TREES))
    def test_size_three_with_bounds(self, key):
        spec = EnumerationSpec(3, ("AX1", "AX2", key), with_bounds=True)
        assert labelled_tree(spec) == BOUNDED_SEARCH_TREES[key]

    @pytest.mark.parametrize("laws", sorted(ISO_SEARCH_TREES), ids=",".join)
    def test_size_four_up_to_isomorphism(self, laws):
        result = run_enumeration(EnumerationSpec(4, laws, up_to_isomorphism=True))
        assert (result.count, result.nodes, result.forced) == ISO_SEARCH_TREES[laws]
        assert result.nodes <= SEARCH_TREES[laws][1]

    @pytest.mark.parametrize("key", sorted(ISO_BOUNDED_SEARCH_TREES))
    def test_size_three_with_bounds_up_to_isomorphism(self, key):
        spec = EnumerationSpec(3, ("AX1", "AX2", key), with_bounds=True, up_to_isomorphism=True)
        result = run_enumeration(spec)
        assert (result.count, result.nodes, result.forced) == ISO_BOUNDED_SEARCH_TREES[key]
        assert result.nodes <= BOUNDED_SEARCH_TREES[key][1]

    @pytest.mark.parametrize("laws", sorted(ISO_SEARCH_TREES), ids=",".join)
    def test_the_relabelings_passed_choose_the_tree(self, laws):
        # none walk the labelled tree and all n! - 1 a class tree, whatever
        # up_to_isomorphism says: row-major the listing's, in the search's
        # own cell order the count's
        for iso in (False, True):
            spec = EnumerationSpec(4, laws, up_to_isomorphism=iso)
            for relabelings, want in (([], SEARCH_TREES[laws]),
                                      (row_major(4), ISO_SEARCH_TREES[laws]),
                                      (_relabelings(4, _cell_order(4, 16)),
                                       COUNT_SEARCH_TREES[laws])):
                result = EnumerationResult([], 0, 0.0, 0, 0)
                tables = list(_search_tables(spec, result, relabelings))
                assert (len(tables), result.nodes, result.forced) == want, iso


class TestCountTreePins:
    """A count and a listing walk a tree of the search up to isomorphism,
    whether or not the spec asks for classes: the listing the row-major one
    of ``ISO_SEARCH_TREES``, whose representatives it expands into their
    orbits, the count the one narrowed in the search's own cell order,
    ``COUNT_SEARCH_TREES``, whose orbits it sums."""

    @pytest.mark.parametrize("laws", sorted(ISO_SEARCH_TREES), ids=",".join)
    def test_size_four(self, laws):
        spec = EnumerationSpec(4, laws)
        for result, trees in ((_count(spec), COUNT_SEARCH_TREES),
                              (run_enumeration(spec), ISO_SEARCH_TREES)):
            assert (result.count, result.nodes, result.forced) == \
                SEARCH_TREES[laws][:1] + trees[laws][1:]

    @pytest.mark.parametrize("key", sorted(ISO_BOUNDED_SEARCH_TREES))
    def test_size_three_with_bounds(self, key):
        spec = EnumerationSpec(3, ("AX1", "AX2", key), with_bounds=True)
        for result, trees in ((_count(spec), COUNT_BOUNDED_SEARCH_TREES),
                              (run_enumeration(spec), ISO_BOUNDED_SEARCH_TREES)):
            assert (result.count, result.nodes, result.forced) == \
                BOUNDED_SEARCH_TREES[key][:1] + trees[key][1:]

    def test_size_five(self):
        # about 0.5 s; the row-major class tree took 149,600 nodes and
        # 20,091 forced cells for the same 30,755 classes
        result = _count(EnumerationSpec(5, ("AX1", "AX2")))
        assert (result.count, result.nodes, result.forced) == (3617108, 134185, 17932)

    def test_repeated_searches_walk_the_same_tree(self):
        # the ground instances and relabelings come from caches the second
        # time; nothing a search does may change them
        for spec in (EnumerationSpec(4, ("AX1", "AX2", "TRANS8")),
                     EnumerationSpec(4, ("AX1", "AX2"), up_to_isomorphism=True),
                     EnumerationSpec(3, ("AX1", "AX2", "BOUND1"), with_bounds=True)):
            for run in (_count, run_enumeration):
                first, second = run(spec), run(spec)
                assert (first.count, first.nodes, first.forced) == \
                    (second.count, second.nodes, second.forced), (spec, run)
                assert first.groupoids == second.groupoids


def frozen(value):
    """Whether ``value`` is an int or a tuple of such values all the way down."""
    return isinstance(value, int) or isinstance(value, tuple) and all(map(frozen, value))


class TestGroundReference:
    """Each law is ground once per size; the cached instances equal a fresh
    grounding and cannot be changed by the searches that share them."""

    LAWS = [get_law(key) for key in CATALOG] + [
        # premises, both constants, and a side that is a bare variable
        parse_law("x|0 = y & (y|1)|x = x => (x|y)|0 = 1|(x|x)"),
        parse_law("x = y => x|1 = y"),
    ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_instances(self, n):
        for law in self.LAWS:
            got = _ground((law,), n)
            assert isinstance(got, tuple) and isinstance(_ground_law(law, n), tuple)
            assert list(got) == ref_ground([law], n), (law, n)
            assert frozen(got), (law, n)
        assert list(_ground(self.LAWS, n)) == ref_ground(self.LAWS, n)

    def test_made_once_per_law_and_size(self):
        law = get_law("TRANS8")
        assert _ground_law(law, 3) is _ground_law(law, 3)
        # an equal law parsed afresh reads the same entry
        assert _ground_law(parse_law(CATALOG["TRANS8"]), 3) is _ground_law(law, 3)
        assert _relabelings(3, _cell_order(3, 9)) is _relabelings(3, _cell_order(3, 9))
        assert _ground_law.cache_info().maxsize is not None
        assert _relabelings.cache_info().maxsize is not None


class TestDrsiEnumerationReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_systems_in_same_order(self, n):
        assert list(enumerate_drsi(n)) == list(ref_enumerate_drsi(n))

    @pytest.mark.parametrize("n", range(7))
    def test_same_involutions_in_same_order(self, n):
        got = list(_involutions(n))
        assert got == list(ref_involutions(n))
        # 1, 1, 2, 4, 10, 26, 76 involutions of 0..6 elements
        assert len(got) == (1, 1, 2, 4, 10, 26, 76)[n]
