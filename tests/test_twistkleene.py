"""Twist-products over a base system and the distinguished pair subsystems."""

import itertools

import pytest

from conftest import is_transitive_raw
from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    Groupoid,
    PairIndexing,
    RelationalSystem,
    Verdict,
    embed_base,
    induce_system,
    is_assigned,
    is_kleene,
    is_sheffer,
    kleene_subsystem,
    lower_cone,
    p_a_subset,
    twist_product,
    twist_sheffer,
    upper_cone,
    validate_drsi,
)

CHAIN2_TWIST = (
    (1, 0, 1, 0),
    (1, 1, 1, 1),
    (0, 0, 1, 0),
    (0, 0, 1, 1),
)


class TestPairIndexing:
    def test_flat(self, c2):
        idx = PairIndexing(c2)
        assert idx.flat(1, 0) == 2
        assert [idx.flat(x, y) for x in range(2) for y in range(2)] == [0, 1, 2, 3]

    def test_names(self, c2):
        idx = PairIndexing(c2)
        assert idx.name(0, 1) == "(0,1)"
        assert idx.pair_carrier().names == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")

    def test_colliding_pair_names_are_named(self):
        # (a, "b,c") and ("a,b", c) both print as (a,b,c)
        idx = PairIndexing(Carrier(("a", "c", "a,b", "b,c")))
        with pytest.raises(ValueError, match=r"^pair name \(a,b,c\) names two pairs$"):
            idx.pair_carrier()
        sys = RelationalSystem(idx.base, BinaryRelation.full(idx.base))
        with pytest.raises(ValueError, match="names two pairs"):
            twist_product(sys)

    def test_names_with_commas_that_stay_apart(self):
        idx = PairIndexing(Carrier(("a,b", "c")))
        assert idx.pair_carrier().names == ("(a,b,a,b)", "(a,b,c)", "(c,a,b)", "(c,c)")


class TestTwistProduct:
    def test_chain_matrix(self, chain2):
        tw = twist_product(chain2)
        assert tw.relation.matrix() == CHAIN2_TWIST
        assert tw.involution.image == (0, 2, 1, 3)
        assert tw.bottom is None and tw.top is None

    def test_membership_rule(self, chain2):
        tw = twist_product(chain2)
        idx = PairIndexing(chain2.carrier)
        r = chain2.relation
        for x, y, z, v in itertools.product(range(2), repeat=4):
            expect = r.has(x, z) and r.has(v, y)
            assert tw.relation.has(idx.flat(x, y), idx.flat(z, v)) == expect

    def test_example_twist_is_drsi(self, ex1_system):
        assert validate_drsi(twist_product(ex1_system)).passed

    def test_cone_factorization(self, chain2, ex1_system):
        for sys in (chain2, ex1_system):
            tw = twist_product(sys)
            idx = PairIndexing(sys.carrier)
            n = sys.carrier.size
            for a, b, c, d in itertools.product(range(n), repeat=4):
                cone = upper_cone(tw, idx.flat(a, b), idx.flat(c, d))
                expect = {idx.flat(p, q)
                          for p in upper_cone(sys, a, c)
                          for q in lower_cone(sys, b, d)}
                assert cone == expect

    def test_reflexive_iff_base_reflexive(self, c2):
        rel = BinaryRelation.from_pairs(c2, [(0, 0), (0, 1)])
        sys = RelationalSystem(c2, rel)
        tw = twist_product(sys)
        assert not tw.relation.has(3, 3)  # (1,1) misses a loop


class TestTwistSheffer:
    def test_entry_formula(self, ex1):
        g = twist_sheffer(ex1)
        idx = PairIndexing(ex1.carrier)
        t, n = ex1.table, ex1.size
        u = tuple(t[x][x] for x in range(n))
        for x, y, z, v in itertools.product(range(n), repeat=4):
            got = g.table[idx.flat(x, y)][idx.flat(z, v)]
            first = t[u[y]][u[v]]
            second = u[t[x][z]]
            assert got == idx.flat(first, second)

    def test_is_sheffer_and_assigned(self, ex1, ex1_system):
        g = twist_sheffer(ex1)
        assert is_sheffer(g).holds
        assert is_assigned(twist_product(ex1_system), g).holds

    def test_chain_case(self, nand, chain2):
        g = twist_sheffer(nand)
        assert is_sheffer(g).holds
        assert induce_system(g) == twist_product(induce_system(nand))

    def test_double_twist_beyond_machine_words(self):
        # 81 elements: relation rows wider than 64 bits
        g = Groupoid(Carrier.of_size(3), ((0, 0, 1), (0, 2, 1), (1, 1, 1)))
        twice = twist_sheffer(twist_sheffer(g))
        assert twice.size == 81
        assert is_sheffer(twice).holds
        assert validate_drsi(induce_system(twice)).passed
        assert induce_system(twice).relation == \
            twist_product(induce_system(twist_sheffer(g))).relation

    def test_rejects_non_sheffer(self, c2):
        with pytest.raises(ValueError):
            twist_sheffer(Groupoid(c2, ((0, 0), (1, 1))))

    def test_axioms_checked_once(self, ex1, monkeypatch):
        import shefferkit.sheffer as sheffer
        checked = []
        real = sheffer.check_law
        monkeypatch.setattr(sheffer, "check_law",
                            lambda g, law: checked.append(law) or real(g, law))
        twist_sheffer(ex1)
        assert len(checked) == 2


class TestEmbedBase:
    def test_chain_base_bottom(self, chain2):
        f, verdict = embed_base(chain2, 0)
        assert f.image == (0, 2)
        assert verdict.holds

    def test_example_base(self, ex1_system):
        # every element of the example system carries a loop
        for a in range(4):
            f, verdict = embed_base(ex1_system, a)
            assert verdict.holds
            assert f.is_injective()

    def test_image_order_matches_base(self, chain2):
        f, _ = embed_base(chain2, 1)
        tw = twist_product(chain2)
        for x, y in itertools.product(range(2), repeat=2):
            assert tw.relation.has(f(x), f(y)) == chain2.relation.has(x, y)

    def test_needs_loop(self, c2):
        rel = BinaryRelation.from_pairs(c2, [(0, 0), (0, 1), (1, 0)])
        sys = RelationalSystem(c2, rel)
        with pytest.raises(ValueError, match="related to itself"):
            embed_base(sys, 1)


class TestIsKleene:
    def test_small_systems(self, chain2, chain4, bool4):
        for sys in (chain2, chain4, bool4):
            assert is_kleene(sys).holds

    def test_diagonal_with_identity_fails(self, c2):
        sys = RelationalSystem(c2, BinaryRelation.diagonal(c2),
                               ElementMap.identity(c2))
        v = is_kleene(sys)
        assert not v.holds
        assert v.witness == (0, 1, 0, 1)

    def test_witness_revalidates(self, c2):
        sys = RelationalSystem(c2, BinaryRelation.diagonal(c2),
                               ElementMap.identity(c2))
        x, y, z, w = is_kleene(sys).witness
        u = sys.involution
        assert z in lower_cone(sys, x, u(x))
        assert w in upper_cone(sys, y, u(y))
        assert not sys.relation.has(z, w)

    def test_requires_involution(self, chain3_plain):
        with pytest.raises(ValueError):
            is_kleene(chain3_plain)

    def test_verdicts_match_raw_scan(self, drsi_by_size):
        # the condition is independent of the system axioms (symmetric
        # relations break it), so compare against a plain nested-loop scan
        for systems in drsi_by_size.values():
            for sys in systems:
                u = sys.involution
                n = sys.carrier.size
                expect = all(
                    sys.relation.has(z, w)
                    for x in range(n) for y in range(n)
                    for z in lower_cone(sys, x, u(x))
                    for w in upper_cone(sys, y, u(y)))
                v = is_kleene(sys)
                assert v.holds == expect
                if not v.holds:
                    x, y, z, w = v.witness
                    assert z in lower_cone(sys, x, u(x))
                    assert w in upper_cone(sys, y, u(y))
                    assert not sys.relation.has(z, w)


class TestPaSubset:
    def test_chain_members(self, chain2):
        assert sorted(p_a_subset(chain2, 0)) == [0, 1, 2]
        assert sorted(p_a_subset(chain2, 1)) == [1, 2, 3]

    def test_three_chain(self, chain3_plain):
        assert sorted(p_a_subset(chain3_plain, 0)) == [0, 1, 2, 3, 6]
        assert sorted(p_a_subset(chain3_plain, 1)) == [1, 2, 3, 4, 5, 6, 7]

    def test_diagonal_pair_always_present(self, drsi_by_size):
        for n, systems in drsi_by_size.items():
            for sys in systems:
                for a in range(n):
                    assert a * n + a in p_a_subset(sys, a)


class TestKleeneSubsystem:
    def test_chain_base_bottom(self, chain2):
        sub, report = kleene_subsystem(chain2, 0)
        assert report.members == (0, 1, 2)
        assert report.passed
        assert report.kleene_ambient.holds
        assert sub.relation.matrix() == ((1, 0, 1), (1, 1, 1), (0, 0, 1))
        assert sub.involution.image == (0, 2, 1)
        assert sub.carrier.names == ("(0,0)", "(0,1)", "(1,0)")

    def test_three_chain_both_bases(self, chain3_plain):
        sub0, rep0 = kleene_subsystem(chain3_plain, 0)
        assert rep0.members == (0, 1, 2, 3, 6)
        assert rep0.passed and rep0.kleene_ambient.holds
        subm, repm = kleene_subsystem(chain3_plain, 1)
        assert repm.members == (1, 2, 3, 4, 5, 6, 7)
        assert repm.passed and repm.kleene_ambient.holds
        for sub in (sub0, subm):
            assert validate_drsi(sub).passed
            assert is_kleene(sub).holds

    def test_failing_embedding_and_ambient_witnesses(self):
        # directed but neither reflexive nor transitive: 0 -> {1, 2},
        # 1 -> {0, 2}, 2 -> {0, 1}
        car = Carrier.of_size(3)
        base = RelationalSystem(car, BinaryRelation(car, (6, 5, 3)))
        _sub, report = kleene_subsystem(base, 0)
        assert report.embedding == Verdict(False, (0, 1), "related pair with unrelated images")
        assert report.kleene_ambient == Verdict(False, (0, 0, 4, 4),
                                                "ambient cones violate the condition")

    def test_all_reflexive_transitive_bases(self, reflexive_directed_by_size):
        for n, systems in reflexive_directed_by_size.items():
            for sys in systems:
                if not is_transitive_raw(sys.relation):
                    continue
                for a in range(n):
                    _, report = kleene_subsystem(sys, a)
                    assert report.passed

    def test_missing_loop_breaks_reflexivity(self):
        # directed and transitive, but one loop is missing: the subsystem
        # report must surface the reflexivity failure rather than hide it
        car = Carrier.of_size(3)
        rel = BinaryRelation.from_pairs(
            car, [(0, 0), (1, 1), (0, 1), (0, 2), (2, 1)])
        sys = RelationalSystem(car, rel)
        assert is_transitive_raw(rel)
        _, report = kleene_subsystem(sys, 0)
        assert not report.drsi.reflexive.holds
        assert not report.passed

    def test_requires_directed(self, c2):
        sys = RelationalSystem(c2, BinaryRelation.diagonal(c2))
        with pytest.raises(ValueError, match="directed"):
            kleene_subsystem(sys, 0)
