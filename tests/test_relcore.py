"""Carriers, bit-mask relations, cones, and the structural property checks."""

import dataclasses
import itertools

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    RelationalSystem,
    check_bounded,
    check_complemented,
    check_involution,
    is_directed,
    lower_cone,
    relation_properties,
    set_related,
    upper_cone,
    validate_drsi,
)


def names(car, elems):
    return {car.names[e] for e in elems}


class TestCarrier:
    def test_of_size(self):
        car = Carrier.of_size(3)
        assert car.names == ("e0", "e1", "e2")
        assert car.size == 3

    def test_index(self):
        car = Carrier(("a", "b"))
        assert car.index("b") == 1
        with pytest.raises(KeyError):
            car.index("z")

    @pytest.mark.parametrize("bad", [(), ("a", "a"), ("a", "b c")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Carrier(bad)

    def test_list_names_become_a_tuple(self):
        car = Carrier(["a", "b"])
        assert car == Carrier(("a", "b")) and hash(car) == hash(Carrier(("a", "b")))

    def test_no_upper_size_cap(self):
        # bit rows are Python ints, so no carrier is too wide for them
        assert Carrier.of_size(65).size == 65
        with pytest.raises(ValueError, match="at least 1"):
            Carrier.of_size(0)


class TestBinaryRelation:
    def test_pairs_roundtrip(self):
        car = Carrier.of_size(3)
        pairs = {(0, 1), (2, 0), (1, 1)}
        rel = BinaryRelation.from_pairs(car, pairs)
        assert set(rel.pairs()) == pairs
        assert BinaryRelation.from_matrix(car, rel.matrix()) == rel

    def test_has_column(self):
        car = Carrier.of_size(2)
        rel = BinaryRelation.from_pairs(car, [(0, 1)])
        assert rel.has(0, 1) and not rel.has(1, 0)
        assert rel.column(1) == 0b01
        assert rel.column(0) == 0

    def test_full_diagonal_transpose(self):
        car = Carrier.of_size(3)
        full = BinaryRelation.full(car)
        assert len(list(full.pairs())) == 9
        diag = BinaryRelation.diagonal(car)
        assert set(diag.pairs()) == {(i, i) for i in range(3)}
        assert diag.transpose() == diag
        rel = BinaryRelation.from_pairs(car, [(0, 2)])
        assert set(rel.transpose().pairs()) == {(2, 0)}

    def test_out_of_range(self):
        car = Carrier.of_size(2)
        with pytest.raises(IndexError):
            BinaryRelation.from_pairs(car, [(0, 2)])

    def test_list_rows_become_a_tuple(self):
        car = Carrier.of_size(2)
        rel = BinaryRelation(car, [0b11, 0b10])
        assert rel.rows == (0b11, 0b10)
        assert rel == BinaryRelation(car, (0b11, 0b10))
        assert hash(rel) == hash(BinaryRelation(car, (0b11, 0b10)))


class TestElementMap:
    def test_list_image_becomes_a_tuple(self):
        car = Carrier.of_size(3)
        f = ElementMap(car, car, [2, 1, 0])
        assert f.image == (2, 1, 0)
        assert f == ElementMap(car, car, (2, 1, 0))
        assert hash(f) == hash(ElementMap(car, car, (2, 1, 0)))


class TestCones:
    def test_example_cones(self, ex1_system):
        assert names(ex1_system.carrier, upper_cone(ex1_system, 0, 1)) == {"c", "d"}
        assert names(ex1_system.carrier, lower_cone(ex1_system, 0, 1)) == {"c", "d"}

    def test_chain(self, chain2):
        assert upper_cone(chain2, 0, 1) == {1}
        assert lower_cone(chain2, 0, 1) == {0}
        assert upper_cone(chain2, 0, 0) == {0, 1}

    def test_upper_is_lower_of_transpose(self):
        # exhaustive over every relation on up to three points
        for n in (1, 2, 3):
            car = Carrier.of_size(n)
            for rows in itertools.product(range(1 << n), repeat=n):
                rel = BinaryRelation(car, rows)
                sys = RelationalSystem(car, rel)
                opp = RelationalSystem(car, rel.transpose())
                for x, y in itertools.product(range(n), repeat=2):
                    assert upper_cone(sys, x, y) == lower_cone(opp, x, y)

    def test_reflexive_membership(self, reflexive_directed_by_size):
        for sys in reflexive_directed_by_size[3]:
            n = sys.carrier.size
            for x, y in itertools.product(range(n), repeat=2):
                if sys.relation.has(x, y):
                    assert y in upper_cone(sys, x, y)
                    assert x in lower_cone(sys, x, y)


class TestProperties:
    def test_example_relation(self, ex1_system):
        rep = relation_properties(ex1_system.relation)
        assert rep.reflexive and rep.symmetric
        assert not rep.antisymmetric and not rep.transitive
        assert rep.witnesses["antisymmetric"] == (0, 2)
        assert rep.witnesses["transitive"] == (0, 2, 1)

    def test_witnesses_revalidate(self, reflexive_directed_by_size):
        for sys in reflexive_directed_by_size[3]:
            r = sys.relation
            rep = relation_properties(r)
            if not rep.reflexive:
                (x,) = rep.witnesses["reflexive"]
                assert not r.has(x, x)
            if not rep.symmetric:
                x, y = rep.witnesses["symmetric"]
                assert r.has(x, y) and not r.has(y, x)
            if not rep.antisymmetric:
                x, y = rep.witnesses["antisymmetric"]
                assert x != y and r.has(x, y) and r.has(y, x)
            if not rep.transitive:
                x, y, z = rep.witnesses["transitive"]
                assert r.has(x, y) and r.has(y, z) and not r.has(x, z)

    def test_chain_is_order(self, chain2):
        rep = relation_properties(chain2.relation)
        assert rep.reflexive and rep.antisymmetric and rep.transitive
        assert not rep.symmetric
        assert tuple(rep) == (True, False, True, True)


class TestDirected:
    def test_example(self, ex1_system):
        assert is_directed(ex1_system).holds

    def test_diagonal_fails(self):
        car = Carrier.of_size(2)
        sys = RelationalSystem(car, BinaryRelation.diagonal(car))
        v = is_directed(sys)
        assert not v.holds
        assert v.witness == (0, 1)
        assert "upper" in v.reason

    def test_missing_lower(self):
        # two points below a common top but with no common lower bound
        car = Carrier.of_size(3)
        rel = BinaryRelation.from_pairs(
            car, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)])
        v = is_directed(RelationalSystem(car, rel))
        assert not v.holds and "lower" in v.reason


class TestInvolution:
    def test_example(self, ex1_system):
        assert check_involution(ex1_system, ex1_system.involution).holds

    def test_identity_on_symmetric(self):
        car = Carrier.of_size(2)
        sys = RelationalSystem(car, BinaryRelation.full(car))
        assert check_involution(sys, ElementMap.identity(car)).holds

    def test_identity_on_chain_not_antitone(self, chain2):
        v = check_involution(chain2, ElementMap.identity(chain2.carrier))
        assert not v.holds
        assert v.witness == (0, 1)
        assert "antitone" in v.reason

    def test_period_two_failure(self):
        car = Carrier.of_size(3)
        u = ElementMap(car, car, (1, 2, 0))  # a 3-cycle
        v = check_involution(RelationalSystem(car, BinaryRelation.full(car)), u)
        assert not v.holds and v.witness == (0,)

    def test_foreign_carrier(self, chain2):
        other = ElementMap.identity(Carrier.of_size(3))
        with pytest.raises(ValueError):
            check_involution(chain2, other)


class TestValidateDrsi:
    def test_example(self, ex1_system):
        rep = validate_drsi(ex1_system)
        assert rep.passed
        assert rep.reflexive.holds and rep.directed.holds
        assert rep.involution.holds and rep.cone_duality.holds

    def test_cone_duality_everywhere(self, drsi_by_size):
        # L(x,y) must equal the involution image of U(x',y')
        for n, systems in drsi_by_size.items():
            for sys in systems:
                u = sys.involution
                for x, y in itertools.product(range(n), repeat=2):
                    dual = {u(z) for z in upper_cone(sys, u(x), u(y))}
                    assert lower_cone(sys, x, y) == dual

    def test_not_reflexive(self, c2):
        rel = BinaryRelation.from_pairs(c2, [(0, 0), (0, 1), (1, 0)])
        sys = RelationalSystem(c2, rel, ElementMap(c2, c2, (1, 0)))
        rep = validate_drsi(sys)
        assert not rep.passed
        assert rep.reflexive.witness == (1,)

    def test_requires_involution(self, chain3_plain):
        with pytest.raises(ValueError):
            validate_drsi(chain3_plain)


class TestBoundsChecks:
    def test_chain_bounded(self, chain2):
        assert check_bounded(chain2).holds

    def test_square_bounded_complemented(self, bool4):
        assert check_bounded(bool4).holds
        assert check_complemented(bool4).holds

    def test_wrong_bounds(self, ex1_system):
        bad = dataclasses.replace(ex1_system, bottom=0, top=1)
        v = check_bounded(bad)
        assert not v.holds and v.witness == (0, 1)

    def test_chain4_not_complemented(self, chain4):
        assert check_bounded(chain4).holds
        v = check_complemented(chain4)
        assert not v.holds
        assert v.witness == (1,)

    def test_missing_bounds(self, ex1_system):
        with pytest.raises(ValueError):
            check_bounded(ex1_system)

    def test_chain_complemented(self, chain2):
        assert check_complemented(chain2).holds


class TestSetRelated:
    def test_vacuous(self, chain2):
        assert set_related(chain2.relation, (), (0, 1))
        assert set_related(chain2.relation, (0,), ())

    def test_chain(self, chain2):
        assert set_related(chain2.relation, (0,), (0, 1))
        assert not set_related(chain2.relation, (1,), (0,))
