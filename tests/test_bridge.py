"""Induced systems, assignment spaces, choice policies, and the round trip."""

import dataclasses
import itertools
import random

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ChoicePolicy,
    ElementMap,
    Groupoid,
    RelationalSystem,
    all_assignments,
    assign,
    assignment_space,
    coincidence_pairs,
    get_law,
    induce_system,
    is_assigned,
    is_sheffer,
    lattice_sheffer,
    verify_roundtrip,
)

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
MASK64 = (1 << 64) - 1

EX1_RELATION = (
    (1, 0, 1, 1),
    (0, 1, 1, 1),
    (1, 1, 1, 1),
    (1, 1, 1, 1),
)


class TestInduce:
    def test_example_matrix(self, ex1, ex1_system):
        assert ex1_system.relation.matrix() == EX1_RELATION
        assert ex1_system.involution.image == (0, 1, 3, 2)
        assert ex1_system.bottom is None and ex1_system.top is None

    def test_two_element_tables(self, nand, nor, rproj, c2):
        # both genuine Sheffer tables induce the 2-chain shape or its flip;
        # projections induce the full relation
        assert induce_system(nand).relation.matrix() == ((1, 1), (0, 1))
        assert induce_system(nor).relation.matrix() == ((1, 0), (1, 1))
        assert induce_system(rproj).relation == BinaryRelation.full(c2)

    def test_bounds_carried(self, nand):
        import dataclasses
        bounded = dataclasses.replace(nand, bottom=0, top=1)
        sys = induce_system(bounded)
        assert (sys.bottom, sys.top) == (0, 1)

    def test_rejects_non_sheffer(self, c2):
        with pytest.raises(ValueError, match="AX2"):
            induce_system(Groupoid(c2, ((0, 0), (1, 1))))

    def test_axioms_checked_once(self, ex1, monkeypatch):
        import shefferkit.sheffer as sheffer
        checked = []
        real = sheffer.check_law
        monkeypatch.setattr(sheffer, "check_law",
                            lambda g, law: checked.append(law) or real(g, law))
        induce_system(ex1)
        assert checked == [get_law("AX1"), get_law("AX2")]

    def test_induced_always_validates(self, sheffer_by_size):
        from shefferkit import validate_drsi
        for gs in sheffer_by_size.values():
            for g in gs:
                assert validate_drsi(induce_system(g)).passed


class TestAssignmentSpace:
    def test_example_free_cells(self, ex1_system):
        space = assignment_space(ex1_system)
        assert space.free_pairs == ((0, 1), (1, 0))
        assert space.cells[0][1] == (2, 3)
        assert space.cells[1][0] == (2, 3)
        assert space.count == 4

    def test_related_cells_forced(self, ex1_system):
        space = assignment_space(ex1_system)
        u = ex1_system.involution
        for x, y in ex1_system.relation.pairs():
            assert space.cells[u(x)][u(y)] == (y,)

    def test_chain_has_no_freedom(self, chain2):
        space = assignment_space(chain2)
        assert space.free_pairs == ()
        assert space.count == 1

    def test_rejects_bad_involution(self, c2):
        rel = BinaryRelation.from_matrix(c2, ((1, 1), (0, 1)))
        sys = RelationalSystem(c2, rel, ElementMap.identity(c2))
        with pytest.raises(ValueError, match="involution"):
            assignment_space(sys)


class TestAssign:
    def test_min_recovers_example(self, ex1, ex1_system):
        assert assign(ex1_system).table == ex1.table
        assert assign(ex1_system, ChoicePolicy.least()).table == ex1.table

    def test_max_differs_at_free_cells(self, ex1, ex1_system):
        table = assign(ex1_system, ChoicePolicy.greatest()).table
        assert table[0][1] == 3 and table[1][0] == 3
        diffs = [(x, y) for x in range(4) for y in range(4)
                 if table[x][y] != ex1.table[x][y]]
        assert diffs == [(0, 1), (1, 0)]

    def test_explicit_choice(self, ex1, ex1_system):
        g = assign(ex1_system, ChoicePolicy.explicit({(0, 1): 3}))
        assert g.table[0][1] == 3
        assert g.table[1][0] == 2  # unmentioned free cell falls to least

    def test_explicit_outside_cone(self, ex1_system):
        with pytest.raises(ValueError, match="cone"):
            assign(ex1_system, ChoicePolicy.explicit({(0, 1): 0}))
        with pytest.raises(ValueError, match="outside the carrier"):
            assign(ex1_system, ChoicePolicy.explicit({(9, 0): 0}))

    def test_seeded_matches_recipe(self, ex1_system):
        # replay the documented generator by hand for the two free cells
        seed = 42
        state = seed & MASK64
        picks = []
        for _ in range(2):
            state = (state * LCG_MULT + LCG_INC) & MASK64
            picks.append((state >> 32) % 2)
        g = assign(ex1_system, ChoicePolicy.seeded(seed))
        assert g.table[0][1] == (2, 3)[picks[0]]
        assert g.table[1][0] == (2, 3)[picks[1]]

    def test_seeded_is_reproducible(self, ex1_system):
        a = assign(ex1_system, ChoicePolicy.seeded(7))
        b = assign(ex1_system, ChoicePolicy.seeded(7))
        assert a == b

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ChoicePolicy("median")

    def test_bounds_carried(self, chain2):
        g = assign(chain2)
        assert (g.bottom, g.top) == (0, 1)

    @pytest.mark.parametrize("policy", [
        ChoicePolicy.least(), ChoicePolicy.greatest(), ChoicePolicy.seeded(42),
        ChoicePolicy.explicit({(0, 1): 3, (1, 0): 2}),
    ], ids=["min", "max", "rand:42", "explicit"])
    def test_space_or_system_gives_the_same_operation(self, ex1_system, policy):
        assert assign(assignment_space(ex1_system), policy) == assign(ex1_system, policy)


class TestAllAssignments:
    def test_example_enumeration(self, ex1, ex1_system):
        gs = list(all_assignments(ex1_system))
        assert len(gs) == 4
        tables = [g.table for g in gs]
        assert tables == sorted(tables)
        assert len(set(tables)) == 4
        assert tables[0] == assign(ex1_system).table
        assert tables[-1] == assign(ex1_system, ChoicePolicy.greatest()).table
        for g in gs:
            assert is_sheffer(g).holds
            assert is_assigned(ex1_system, g).holds

    def test_space_argument(self, ex1_system):
        space = assignment_space(ex1_system)
        assert list(all_assignments(space)) == list(all_assignments(ex1_system))


class TestIsAssigned:
    def test_example(self, ex1, ex1_system):
        assert is_assigned(ex1_system, ex1).holds

    def test_projection_on_chain(self, chain2, rproj):
        v = is_assigned(chain2, rproj)
        assert not v.holds
        assert v.witness == (0, 0)
        assert "relatedness" in v.reason

    def test_carrier_mismatch(self, ex1, chain2):
        with pytest.raises(ValueError, match="carrier"):
            is_assigned(chain2, ex1)

    def test_entry_outside_cone(self, ex1, ex1_system):
        # hand-build a table whose free cell ignores its candidate set
        bad = list(map(list, ex1.table))
        bad[0][1] = 0
        v = is_assigned(ex1_system, Groupoid(ex1.carrier, tuple(map(tuple, bad))))
        assert not v.holds


class TestRoundtrip:
    def test_example_policies(self, ex1_system):
        assert verify_roundtrip(ex1_system)
        assert verify_roundtrip(ex1_system, ChoicePolicy.greatest())
        assert verify_roundtrip(ex1_system, ChoicePolicy.seeded(0))

    def test_every_small_system_and_seed(self, drsi_by_size):
        rng = random.Random(99)
        for systems in drsi_by_size.values():
            for sys in systems:
                assert verify_roundtrip(sys)
                assert verify_roundtrip(sys, ChoicePolicy.seeded(rng.randrange(2 ** 32)))

    def test_induce_then_assign_differs_in_general(self, ex1, ex1_system):
        # the other direction of the round trip only holds cellwise on the
        # coincidence pairs, so max-assignment need not recover the table
        g = assign(ex1_system, ChoicePolicy.greatest())
        assert g.table != ex1.table
        assert induce_system(g) == ex1_system


class TestCoincidence:
    def test_example(self, ex1):
        pairs = coincidence_pairs(ex1)
        everything = {(x, y) for x in range(4) for y in range(4)}
        assert everything - pairs == {(0, 1), (1, 0)}

    def test_all_assignments_agree_there(self, ex1, ex1_system):
        pairs = coincidence_pairs(ex1)
        for g in all_assignments(ex1_system):
            for x, y in pairs:
                assert g.table[x][y] == ex1.table[x][y]

    def test_commutative_tables_have_no_freedom(self, nand, nor):
        # singleton cones can force a cell without it being a coincidence
        # pair, so the space collapses even though one pair is missing
        assert coincidence_pairs(nand) == {(0, 0), (1, 0), (1, 1)}
        assert coincidence_pairs(nor) == {(0, 0), (0, 1), (1, 1)}
        for g in (nand, nor):
            assert assignment_space(induce_system(g)).count == 1


class TestLatticeSheffer:
    def test_chain_join_is_nand(self, chain2, nand, nor):
        assert lattice_sheffer(chain2, "join").table == nand.table
        assert lattice_sheffer(chain2, "meet").table == nor.table

    def test_square_lattice(self, bool4):
        for mode in ("join", "meet"):
            g = lattice_sheffer(bool4, mode)
            assert is_sheffer(g).holds
            assert (g.bottom, g.top) == (0, 3)

    def test_five_element_lattices(self, m3, n5):
        for order in (m3, n5):
            for mode in ("join", "meet"):
                assert is_sheffer(lattice_sheffer(order, mode)).holds

    def test_rejects_non_order(self, ex1_system):
        with pytest.raises(ValueError, match="partial order"):
            lattice_sheffer(ex1_system, "join")

    def test_rejects_non_lattice(self):
        # two incomparable points: no join or meet exists
        car = Carrier.of_size(2)
        order = RelationalSystem(car, BinaryRelation.diagonal(car),
                                 ElementMap.identity(car))
        with pytest.raises(ValueError, match="least upper bound"):
            lattice_sheffer(order, "join")
        with pytest.raises(ValueError, match=r"no unique greatest lower bound for pair \(e0, e1\)"):
            lattice_sheffer(order, "meet")

    def test_rejects_involution_that_is_not_antitone(self, chain2):
        order = dataclasses.replace(chain2, involution=ElementMap.identity(chain2.carrier))
        with pytest.raises(ValueError,
                           match=r"^involution check fails: not antitone at \(0, 1\)$"):
            lattice_sheffer(order, "join")

    def test_rejects_order_without_involution(self, chain3_plain):
        with pytest.raises(ValueError, match=r"^system has no involution$"):
            lattice_sheffer(chain3_plain, "join")

    def test_mode_validation(self, chain2):
        with pytest.raises(ValueError, match="mode"):
            lattice_sheffer(chain2, "top")
