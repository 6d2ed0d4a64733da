"""Model enumeration with pruning, checked against naive full scans."""

import contextlib
import hashlib
import itertools
import os
import random
import tracemalloc

import pytest

import shefferkit.search as search
from shefferkit import cli
from conftest import groupoids_naive, run_cli
from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    EnumerationSpec,
    Groupoid,
    RelationalSystem,
    canonical_form,
    check_law,
    count_models,
    enumerate_drsi,
    find_model,
    get_law,
    parse_law,
    run_enumeration,
    validate_drsi,
)

SHEFFER2 = [
    ((0, 1), (0, 1)),  # second projection
    ((1, 0), (0, 0)),  # joint denial
    ((1, 0), (1, 0)),  # negated second argument
    ((1, 1), (1, 0)),  # alternative denial
]


def spec_sheffer(n, *extra, **kw):
    return EnumerationSpec(n, require=("AX1", "AX2") + extra, **kw)


def raw_sheffer_tables(n):
    """Oracle written without the terms machinery: direct table loops."""
    out = []
    for cells in itertools.product(range(n), repeat=n * n):
        t = [cells[i * n:(i + 1) * n] for i in range(n)]
        ok = all(t[t[x][y]][t[x][x]] == x and t[t[x][y]][t[y][y]] == y
                 for x in range(n) for y in range(n))
        if ok:
            out.append(tuple(map(tuple, t)))
    return out


class TestSpecValidation:
    def test_size_bounds(self):
        with pytest.raises(ValueError):
            EnumerationSpec(0)
        with pytest.raises(ValueError):
            EnumerationSpec(6)

    def test_limit_bounds(self):
        # a negative limit used to drop models from the end of the list
        with pytest.raises(ValueError, match="limit must be at least 0"):
            EnumerationSpec(2, limit=-1)
        assert run_enumeration(EnumerationSpec(2, limit=0)).groupoids == []

    def test_keys_resolve(self):
        spec = EnumerationSpec(2, require=("AX1",), forbid=("COMM",))
        assert spec.require == (get_law("AX1"),)
        assert spec.forbid == (get_law("COMM"),)

    def test_law_values_accepted(self):
        law = parse_law("x|y = x")
        assert EnumerationSpec(2, require=(law,)).require == (law,)

    def test_constant_laws_need_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            EnumerationSpec(2, require=("BOUND1",))
        EnumerationSpec(2, require=("BOUND1",), with_bounds=True)


class TestShefferCounts:
    def test_size_one(self):
        gs = list(run_enumeration(spec_sheffer(1)).groupoids)
        assert len(gs) == 1 and gs[0].table == ((0,),)

    def test_size_two_tables(self):
        assert [g.table for g in run_enumeration(spec_sheffer(2)).groupoids] == SHEFFER2

    def test_size_two_against_raw_oracle(self):
        assert raw_sheffer_tables(2) == SHEFFER2

    def test_size_three_count(self):
        assert count_models(spec_sheffer(3)) == 52

    def test_commutative_restriction(self):
        gs = run_enumeration(spec_sheffer(2, "COMM")).groupoids
        assert [g.table for g in gs] == [((1, 0), (0, 0)), ((1, 1), (1, 0))]

    def test_pruning_skips_nodes(self):
        # the listing walks the class search (the labelled search: 177
        # nodes, 56 forced)
        res = run_enumeration(spec_sheffer(3))
        assert 0 < res.nodes < 3 ** 9
        assert (res.nodes, res.forced) == (57, 24)
        assert res.seconds >= 0

    def test_size_four_counts(self):
        assert count_models(spec_sheffer(4)) == 5450
        assert count_models(spec_sheffer(4, up_to_isomorphism=True)) == 270
        assert count_models(EnumerationSpec(4, require=("AX1", "AX2", "TRANS8"))) == 802
        assert count_models(EnumerationSpec(4, require=("AX1", "AX2", "SYM7"))) == 434

    def test_size_four_nodes(self):
        # the search without propagation tried 105,820 nodes here, and the
        # labelled search with it 20,268
        res = run_enumeration(spec_sheffer(4))
        assert res.nodes == 1804

    def test_size_five_count(self):
        # walking every labelled model took 54 s; the orbit sum over the
        # 30,755 classes takes under a second
        assert count_models(spec_sheffer(5)) == 3617108

    def test_size_five_commutative(self):
        assert count_models(spec_sheffer(5, "COMM")) == 2080

    @pytest.mark.slow
    def test_size_five_classes(self):
        # the search cuts each subtree at the node where a smaller
        # relabeling shows: 149,600 nodes, against 14,412,875 without --iso
        classes = run_enumeration(spec_sheffer(5, up_to_isomorphism=True))
        assert (classes.count, classes.nodes) == (30755, 149600)
        # the orbits of these classes under the 120 relabelings hold the
        # 3,617,108 labelled models, each once
        perms = list(itertools.permutations(range(5)))
        orbits = 0
        for g in classes.groupoids:
            t = g.table
            automorphisms = sum(all(p[t[x][y]] == t[p[x]][p[y]] for x in range(5) for y in range(5))
                                for p in perms)
            orbits += len(perms) // automorphisms
        assert orbits == 3617108


class TestStreaming:
    """Models are built and filtered one table at a time."""

    def test_count_keeps_no_models(self):
        # the buffered run peaked at 1183 KiB
        tracemalloc.start()
        try:
            assert count_models(spec_sheffer(4)) == 5450
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_count_builds_no_unchecked_models(self, monkeypatch):
        # a count with nothing to check on a groupoid once built all 5450,
        # and then one per kept class representative (270); now it builds none
        built = []
        unchecked = Groupoid._unchecked
        monkeypatch.setattr(search.Groupoid, "_unchecked",
                            lambda *args: built.append(args) or unchecked(*args))
        assert count_models(spec_sheffer(4)) == 5450
        assert count_models(spec_sheffer(3, with_bounds=True, up_to_isomorphism=True)) == 80
        assert run_cli(["enumerate", "-n", "4", "--require", "AX1,AX2", "--count"])[1] == "5450\n"
        # a law with constants prunes inside the search, so it builds
        # nothing either (building its 35 classes once cost 35 groupoids)
        assert count_models(spec_sheffer(3, "BOUND0", with_bounds=True)) == 198
        assert len(built) == 0
        # a forbidden law is checked on the representative, one groupoid
        # each for the 11 classes (the plain walk checked all 52)
        assert count_models(spec_sheffer(3, forbid=("COMM",))) == 40
        assert len(built) == 11

    def test_iso_listing_builds_each_checked_class_once(self, monkeypatch):
        # the listing built each kept representative a second time after
        # the forbidden law was checked on it: 534 groupoids
        built = []
        unchecked = Groupoid._unchecked
        monkeypatch.setattr(search.Groupoid, "_unchecked",
                            lambda *args: built.append(args) or unchecked(*args))
        spec = EnumerationSpec(4, ("AX1", "AX2"), forbid=(get_law("COMM"),), up_to_isomorphism=True)
        assert len(run_enumeration(spec).groupoids) == 264
        assert len(built) == 270

    def test_listing_builds_each_model_once(self, monkeypatch):
        # each member of an orbit was built after its representative had been
        # built to check the forbidden law: 5624 groupoids; now the 5354
        # models once each, and the 6 representatives that COMM rejects
        built = []
        unchecked = Groupoid._unchecked
        monkeypatch.setattr(search.Groupoid, "_unchecked",
                            lambda *args: built.append(args) or unchecked(*args))
        assert len(run_enumeration(spec_sheffer(4, forbid=("COMM",))).groupoids) == 5354
        assert len(built) == 5360

    @pytest.mark.parametrize("argv, builds", [
        # 5450, 270 and 468 when the listing printed a groupoid per model
        (["-n", "4", "--require", "AX1,AX2"], 0),
        (["-n", "4", "--require", "AX1,AX2", "--iso"], 0),
        (["-n", "3", "--require", "AX1,AX2", "--with-bounds"], 0),
        # one per checked class representative (5624 before)
        (["-n", "4", "--require", "AX1,AX2", "--forbid", "COMM"], 270),
    ], ids=["plain", "iso", "bounds", "forbid"])
    def test_cli_listing_builds_no_groupoid(self, monkeypatch, argv, builds):
        built = []
        unchecked = Groupoid._unchecked
        monkeypatch.setattr(search.Groupoid, "_unchecked",
                            lambda *args: built.append(args) or unchecked(*args))
        assert run_cli(["enumerate", *argv])[0] == 0
        assert len(built) == builds

    def test_cli_listing_keeps_no_models(self):
        # printing after run_enumeration had returned peaked at 1049 KiB
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(["enumerate", "-n", "4", "--require", "AX1,AX2"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 256 * 1024

    def test_limit_stops_building_models(self, monkeypatch):
        # the buffered run checked the forbidden law on all 5450 tables
        first = run_enumeration(spec_sheffer(4, forbid=("COMM",))).groupoids[0]
        calls = []
        check = search.check_law
        monkeypatch.setattr(search, "check_law", lambda g, law: calls.append(g) or check(g, law))
        assert run_enumeration(spec_sheffer(4, forbid=("COMM",), limit=1)).groupoids == [first]
        assert len(calls) <= 5

    def test_limit_stops_the_search(self):
        # sorting the whole run first cost all 20,268 nodes
        limited = spec_sheffer(4, limit=1)
        listed = run_enumeration(limited)
        assert listed.nodes < 2027
        counted = search.EnumerationResult([], 0, 0.0, 0, 0)
        for _ in search._listing(limited, counted):
            pass
        assert (counted.count, counted.nodes, counted.forced) == \
            (listed.count, listed.nodes, listed.forced)

    def test_iso_listing_holds_no_tables(self):
        # sorting the whole run first peaked at 395 KiB
        tracemalloc.start()
        try:
            assert len(run_enumeration(spec_sheffer(4, up_to_isomorphism=True)).groupoids) == 270
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


# Every search over sizes 1..3 is compared with a filter over all tables.
CATALOG_IDENTITIES = ("COMM", "SYM7", "TRANS8", "CD3", "CD9", "ANTISYM")
LAW_SETS = [("AX1",), ("AX2",), ("AX1", "AX2")] + \
    [("AX1", "AX2", key) for key in CATALOG_IDENTITIES]


@pytest.fixture(scope="module")
def naive_law_tables():
    """Per size, every table satisfying AX1 or AX2 with the catalog laws it
    satisfies, in lexicographic order; the other tables meet no spec below."""
    out = {}
    for n in (1, 2, 3):
        rows = []
        for g in groupoids_naive(n, lambda g: True):
            holds = {k for k in ("AX1", "AX2") if check_law(g, get_law(k)).holds}
            if holds:
                holds.update(k for k in CATALOG_IDENTITIES if check_law(g, get_law(k)).holds)
                rows.append((g.table, holds))
        out[n] = rows
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    def test_model_lists(self, naive_law_tables, laws):
        banned = "SYM7" if "SYM7" not in laws else "COMM"
        for n, rows in naive_law_tables.items():
            for commutative in (False, True):
                for forbid in ((), (banned,)):
                    spec = EnumerationSpec(n, require=laws + ("COMM",) * commutative,
                                           forbid=forbid)
                    got = [g.table for g in run_enumeration(spec).groupoids]
                    want = [t for t, holds in rows
                            if holds.issuperset(laws) and not holds.intersection(forbid)
                            and (not commutative or t == tuple(zip(*t)))]
                    assert got == want, (n, commutative, forbid)

    def test_deep_primes(self):
        law = parse_law("x" + "'" * 60 + " = x")
        got = [g.table for g in run_enumeration(EnumerationSpec(2, require=(law,))).groupoids]
        assert got == [g.table for g in groupoids_naive(2, lambda g: check_law(g, law).holds)]


class TestListingText:
    """The CLI writes each model from its table's bytes; the text must be
    that of the groupoids ``run_enumeration`` builds."""

    @staticmethod
    def expected(spec):
        return "\n".join(f"# model {k}\n" + cli.format_groupoid_file(g)
                         for k, g in enumerate(run_enumeration(spec).groupoids, start=1))

    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    def test_universe_up_to_size_3(self, laws):
        banned = "SYM7" if "SYM7" not in laws else "COMM"
        for n, commutative, bounds, iso, forbid, limit in itertools.product(
                (1, 2, 3), (False, True), (False, True), (False, True), ((), (banned,)),
                (0, 1, 7, None)):
            argv = ["enumerate", "-n", str(n), "--require", ",".join(laws)]
            argv += ["--commutative"] * commutative + ["--with-bounds"] * bounds
            argv += ["--iso"] * iso + ["--forbid", banned] * bool(forbid)
            argv += [] if limit is None else ["--limit", str(limit)]
            spec = EnumerationSpec(n, laws + ("COMM",) * commutative, forbid, bounds, iso, limit)
            code, out, err = run_cli(argv)
            assert (code, err) == (0, "")
            assert out == self.expected(spec), argv

    @pytest.mark.parametrize("args, digest", [
        ("-n 4 --require AX1,AX2",
         "4efbcbc3f4b82be209765f3879a23f3192bf7b8d2939d759283a2f167242241c"),
        ("-n 4 --require AX1,AX2 --forbid COMM",
         "8fd395a00985c551d378a6a5788a1cb652215beab94feb5f30f084ecb2e026f9"),
        ("-n 3 --require AX1,AX2 --with-bounds",
         "e6c27959527e1de07e936cba461752652a8c35ff9de8e3995e83e5db0230452c"),
        ("-n 4 --require AX1,AX2 --iso",
         "6abea7ae42d942444136a3ceca7dd25ecda17d0b0e07c494ac6e2a2ed9612839"),
    ])
    def test_listing_digests(self, args, digest):
        # the digests of the listings printed from built groupoids
        code, out, _ = run_cli(["enumerate", *args.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCommutativityLaw:
    """A required ``x|y = y|x``, in any spelling, is kept by mirroring cells."""

    @staticmethod
    def models_and_stats(argv):
        code, out, err = run_cli(argv + ["--stats"])
        assert code == 0, err
        # the summary echoes --require and the seconds vary: keep models, nodes, forced
        return out, err.split("; ")[1:4]

    @pytest.mark.parametrize("key", CATALOG_IDENTITIES)
    def test_flag_equals_required_key(self, key):
        for n in ("3", "4"):
            for forbid in ([], ["--forbid", "CD3" if key == "SYM7" else "SYM7"]):
                argv = ["enumerate", "-n", n] + forbid + ["--require"]
                flag = self.models_and_stats(argv + [f"AX1,AX2,{key}", "--commutative"])
                law = self.models_and_stats(argv + [f"AX1,AX2,{key},COMM"])
                assert flag == law, (n, key, forbid)

    @pytest.mark.parametrize("text", ["x|y = y|x", "a|b = b|a", "y|x = x|y"])
    def test_any_spelling_is_mirrored(self, text):
        law = parse_law(text)
        assert search._is_commutativity(law)
        res = run_enumeration(spec_sheffer(4, law))
        # the class search; the labelled one took 596 nodes and 177 forced
        # cells, and grounding the law there forced 579 cells on them
        assert (res.count, res.nodes, res.forced) == (96, 92, 57)
        keyed = run_enumeration(spec_sheffer(4, "COMM")).groupoids
        assert [g.table for g in res.groupoids] == [g.table for g in keyed]

    @pytest.mark.parametrize("text", ["x = y => x|y = y|x", "(x|y)|z = z|(x|y)",
                                      "x|y = y|y", "x|x = x|x"])
    def test_other_laws_are_ground(self, text):
        law = parse_law(text)
        assert not search._is_commutativity(law)
        got = [g.table for g in run_enumeration(EnumerationSpec(2, require=(law,))).groupoids]
        assert got == [g.table for g in groupoids_naive(2, lambda g: check_law(g, law).holds)]

    def test_quasi_identity_keeps_non_commutative_models(self):
        # x = y makes the conclusion x|x = x|x, so every Sheffer table passes
        law = parse_law("x = y => x|y = y|x")
        got = [g.table for g in run_enumeration(spec_sheffer(3, law)).groupoids]
        assert got == raw_sheffer_tables(3)


class TestOrderingAndLimits:
    def test_lexicographic_stream(self):
        # at n = 4 the runs of several diagonals are merged
        for n, extra in ((3, ()), (4, ()), (4, ("COMM",))):
            spec = spec_sheffer(n, *extra)
            tables = [g.table for g in run_enumeration(spec).groupoids]
            assert tables == sorted(tables), (n, extra)

    def test_limit(self):
        spec = spec_sheffer(3, limit=5)
        gs = run_enumeration(spec).groupoids
        assert len(gs) == 5
        full = run_enumeration(spec_sheffer(3)).groupoids
        assert [g.table for g in gs] == [g.table for g in full[:5]]


class TestForbidAndFind:
    def test_first_axiom_only(self):
        g = find_model(require=("AX1",), forbid=("AX2",), max_size=3)
        assert g.table == ((0, 0), (1, 1))

    def test_second_axiom_only(self):
        # no 2-element table separates the axioms in this direction
        g = find_model(require=("AX2",), forbid=("AX1",), max_size=3)
        assert g.size == 3
        assert g.table == ((0, 0, 1), (0, 2, 1), (0, 0, 1))
        assert check_law(g, get_law("AX2")).holds
        assert not check_law(g, get_law("AX1")).holds
        assert count_models(EnumerationSpec(2, require=("AX2",), forbid=("AX1",))) == 0

    def test_nothing_found(self):
        assert find_model(require=("AX1", "COMM"), forbid=("AX2",), max_size=2) is None

    def test_collapse_law(self):
        g = find_model(require=(parse_law("x = y"),), forbid=(), max_size=3)
        assert g.size == 1


class TestWithBounds:
    def test_bounded_sheffer_models(self):
        spec = EnumerationSpec(2, with_bounds=True,
                               require=("AX1", "AX2", "BOUND0", "BOUND1"))
        got = [(g.table, g.bottom, g.top) for g in run_enumeration(spec).groupoids]
        # naive rebuild: every table and designation, checked via check_law
        expect = []
        bound_laws = [get_law("BOUND0"), get_law("BOUND1")]
        import dataclasses
        for table in raw_sheffer_tables(2):
            g = Groupoid(Carrier.of_size(2), table)
            for bottom, top in itertools.product(range(2), repeat=2):
                cand = dataclasses.replace(g, bottom=bottom, top=top)
                if all(check_law(cand, law).holds for law in bound_laws):
                    expect.append((table, bottom, top))
        assert sorted(got) == sorted(expect)
        assert len(got) == 10

    def test_constant_laws_prune_inside_the_search(self, monkeypatch):
        # crossing each table with every bottom and top checked COMPL once
        # per (table, bottom, top); the search now grounds it like any law
        laws = []
        check = search.check_law
        monkeypatch.setattr(search, "check_law", lambda g, law: laws.append(law) or check(g, law))
        spec = spec_sheffer(4, "COMPL", with_bounds=True)
        assert len(run_enumeration(spec).groupoids) == 192
        assert count_models(spec) == 192
        assert not any(law in spec.require for law in laws)


class TestRandomLawSets:
    def test_pruned_equals_naive(self):
        pool = [
            "AX1", "AX2", "COMM", "SYM7", "CD3", "CD9",
            parse_law("x|x = x"),
            parse_law("x|y = x"),
            parse_law("x|y = y|x => x = y"),
        ]
        rng = random.Random(0)
        for _ in range(20):
            require = tuple(rng.sample(pool, rng.randint(0, 2)))
            forbid = tuple(rng.sample(pool, rng.randint(0, 1)))
            spec = EnumerationSpec(2, require=require, forbid=forbid)
            pruned = [g.table for g in run_enumeration(spec).groupoids]

            def keep(g, _spec=spec):
                return (all(check_law(g, law).holds for law in _spec.require)
                        and all(not check_law(g, law).holds for law in _spec.forbid))

            naive = [g.table for g in groupoids_naive(2, keep)]
            assert pruned == naive


class TestDrsiEnumeration:
    def test_counts(self, drsi_by_size):
        assert [len(drsi_by_size[n]) for n in (1, 2, 3)] == [1, 4, 34]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_drsi(5))

    def test_two_element_systems(self, drsi_by_size):
        shapes = [(sys.relation.matrix(), sys.involution.image)
                  for sys in drsi_by_size[2]]
        assert shapes == [
            (((1, 1), (0, 1)), (1, 0)),
            (((1, 0), (1, 1)), (1, 0)),
            (((1, 1), (1, 1)), (0, 1)),
            (((1, 1), (1, 1)), (1, 0)),
        ]

    def test_all_validate(self, drsi_by_size):
        for systems in drsi_by_size.values():
            for sys in systems:
                assert validate_drsi(sys).passed

    def test_deterministic(self):
        assert list(enumerate_drsi(3)) == list(enumerate_drsi(3))


class TestCanonicalForms:
    def test_duals_are_isomorphic(self, nand, nor, rproj):
        assert canonical_form(nand) == canonical_form(nor)
        assert canonical_form(nand) != canonical_form(rproj)

    def test_bounds_break_the_isomorphism(self, nand, nor):
        import dataclasses
        nand_b = dataclasses.replace(nand, bottom=0, top=1)
        nor_b = dataclasses.replace(nor, bottom=0, top=1)
        assert canonical_form(nand_b) != canonical_form(nor_b)

    def test_relabeling_invariance(self, sheffer_by_size):
        rng = random.Random(5)
        for g in sheffer_by_size[3][:10]:
            perm = list(range(3))
            rng.shuffle(perm)
            relabeled = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(3):
                    relabeled[perm[i]][perm[j]] = perm[g.table[i][j]]
            h = Groupoid(g.carrier, tuple(map(tuple, relabeled)))
            assert canonical_form(h) == canonical_form(g)

    def test_iso_classes_size_two(self):
        assert count_models(spec_sheffer(2, up_to_isomorphism=True)) == 3

    def test_iso_representatives_are_least(self):
        gs = run_enumeration(spec_sheffer(2, up_to_isomorphism=True)).groupoids
        assert [g.table for g in gs] == [
            ((0, 1), (0, 1)), ((1, 0), (0, 0)), ((1, 0), (1, 0))]

    def test_system_canonicalization(self, chain2):
        # reversing the chain names gives an isomorphic copy
        import dataclasses
        car = chain2.carrier
        rel = BinaryRelation.from_matrix(car, ((1, 0), (1, 1)))
        flipped = RelationalSystem(car, rel, ElementMap(car, car, (1, 0)))
        bare = dataclasses.replace(chain2, bottom=None, top=None)
        assert canonical_form(flipped) == canonical_form(bare)
        full = RelationalSystem(car, BinaryRelation.full(car),
                                ElementMap(car, car, (1, 0)))
        assert canonical_form(flipped) != canonical_form(full)

    def test_type_guard(self):
        with pytest.raises(TypeError):
            canonical_form("nope")
