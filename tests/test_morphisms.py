"""Homomorphisms, congruences, quotients, and transfer between the two views."""

import dataclasses
import itertools

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    EquivalenceRelation,
    Groupoid,
    HypothesisError,
    RelationalSystem,
    bounded_top_assignment,
    find_homomorphisms,
    induce_system,
    induced_image_operation,
    is_congruence,
    is_groupoid_homomorphism,
    is_rel_homomorphism,
    is_sheffer,
    kernel,
    verify_bounded_hom,
    verify_hom_transfer,
)

ONE = Groupoid(Carrier(("e",)), ((0,),))

# collapsing the swapped pair of the 4-element example is compatible with
# its operation; the image lives on three elements
EX1_COLLAPSE = (0, 1, 2, 2)
QUOTIENT_TABLE = ((0, 2, 2), (2, 1, 2), (0, 1, 2))


@pytest.fixture(scope="module")
def quotient_target():
    car = Carrier(("a", "b", "cd"))
    rel = BinaryRelation.from_matrix(car, ((1, 0, 1), (0, 1, 1), (1, 1, 1)))
    return RelationalSystem(car, rel, ElementMap.identity(car))


class TestEquivalence:
    def test_from_blocks(self):
        car = Carrier.of_size(4)
        eq = EquivalenceRelation.from_blocks(car, [(0, 1), (2,), (3,)])
        assert eq.block_ids == (0, 0, 1, 2)
        assert eq.blocks() == ((0, 1), (2,), (3,))
        assert eq.related(0, 1) and not eq.related(1, 2)

    def test_from_blocks_rejects(self):
        car = Carrier.of_size(3)
        with pytest.raises(ValueError, match="two blocks"):
            EquivalenceRelation.from_blocks(car, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="cover"):
            EquivalenceRelation.from_blocks(car, [(0, 1)])

    def test_list_ids_become_a_tuple(self):
        car = Carrier.of_size(3)
        eq = EquivalenceRelation(car, [0, 0, 1])
        assert eq == EquivalenceRelation(car, (0, 0, 1))
        assert hash(eq) == hash(EquivalenceRelation(car, (0, 0, 1)))

    def test_dense_id_order(self):
        car = Carrier.of_size(2)
        with pytest.raises(ValueError, match="first-occurrence"):
            EquivalenceRelation(car, (1, 0))

    @pytest.mark.parametrize("ids", [(0, -1, 1), (0, -1, -1), (-1, 0, 0)])
    def test_negative_ids_are_refused(self, ids):
        # (0, -1, 1) would list blocks (0,) and (1, 2) while 1 and 2 are unrelated
        with pytest.raises(ValueError, match="at least 0"):
            EquivalenceRelation(Carrier.of_size(3), ids)

    @pytest.mark.parametrize("ids, valid", [((0, -1, 1), False), ((0, 2), False), ((1, 0), False),
                                            ((0, 0, 1), True), ((0, 1, 0), True)])
    def test_ids_must_number_blocks_in_first_occurrence_order(self, ids, valid):
        car = Carrier.of_size(len(ids))
        if valid:
            assert EquivalenceRelation(car, ids).block_ids == ids
        else:
            with pytest.raises(ValueError) as info:
                EquivalenceRelation(car, ids)
            assert str(info.value) == "block ids must be at least 0, in first-occurrence order"

    def test_kernel(self):
        car = Carrier.of_size(3)
        f = ElementMap(car, Carrier.of_size(2), (1, 1, 0))
        assert kernel(f).block_ids == (0, 0, 1)


class TestRelHomomorphism:
    def test_identity(self, chain2):
        f = ElementMap.identity(chain2.carrier)
        assert is_rel_homomorphism(chain2, chain2, f, strong=True).holds

    def test_collapse_is_plain_but_not_strong(self, chain2):
        loop = Carrier(("e",))
        dst = RelationalSystem(loop, BinaryRelation.full(loop))
        f = ElementMap(chain2.carrier, loop, (0, 0))
        assert is_rel_homomorphism(chain2, dst, f).holds
        v = is_rel_homomorphism(chain2, dst, f, strong=True)
        assert not v.holds
        assert v.witness == (1, 0)
        assert "unrelated pair" in v.reason

    def test_involution_compatibility(self, chain2, bool4):
        # 0 -> 0, 1 -> top is monotone and commutes with both pairings
        f = ElementMap(chain2.carrier, bool4.carrier, (0, 3))
        assert is_rel_homomorphism(chain2, bool4, f).holds
        # sending 1 to a midpoint breaks commutation with the involution
        g = ElementMap(chain2.carrier, bool4.carrier, (0, 1))
        v = is_rel_homomorphism(chain2, bool4, g)
        assert not v.holds

    def test_carrier_guard(self, chain2, bool4):
        f = ElementMap.identity(chain2.carrier)
        with pytest.raises(ValueError):
            is_rel_homomorphism(chain2, bool4, f)


class TestGroupoidHomomorphism:
    def test_identity(self, ex1):
        f = ElementMap.identity(ex1.carrier)
        assert is_groupoid_homomorphism(ex1, ex1, f).holds

    def test_swap_between_duals(self, nand, nor):
        # negation carries one table onto the other but is no endomorphism
        f = ElementMap(nand.carrier, nor.carrier, (1, 0))
        assert is_groupoid_homomorphism(nand, nor, f).holds
        v = is_groupoid_homomorphism(nand, nand, ElementMap(nand.carrier, nand.carrier, (1, 0)))
        assert not v.holds
        assert v.witness == (0, 1)

    def test_constant_to_idempotent(self, ex1):
        f = ElementMap(ex1.carrier, ONE.carrier, (0, 0, 0, 0))
        assert is_groupoid_homomorphism(ex1, ONE, f).holds


class TestTransfer:
    def test_identity_example(self, ex1):
        assert verify_hom_transfer(ex1, ex1, ElementMap.identity(ex1.carrier))

    def test_every_small_hom_transfers(self, sheffer_by_size):
        small = sheffer_by_size[1] + sheffer_by_size[2]
        for ga, gb in itertools.product(small, repeat=2):
            for f in find_homomorphisms(ga, gb):
                assert verify_hom_transfer(ga, gb, f)

    def test_requires_homomorphism(self, nand):
        f = ElementMap(nand.carrier, nand.carrier, (1, 0))
        with pytest.raises(ValueError, match="homomorphism"):
            verify_hom_transfer(nand, nand, f)

    def test_requires_sheffer(self, c2, nand):
        lproj = Groupoid(c2, ((0, 0), (1, 1)))
        with pytest.raises(ValueError, match="AX2"):
            verify_hom_transfer(lproj, nand, ElementMap.identity(c2))


class TestFindHomomorphisms:
    def test_point_into_example(self, ex1):
        found = [f.image for f in find_homomorphisms(ONE, ex1)]
        assert found == [(0,), (1,)]

    def test_example_endomorphisms(self, ex1):
        found = [f.image for f in find_homomorphisms(ex1, ex1)]
        assert found == [(0, 0, 0, 0), (0, 1, 2, 3), (1, 0, 2, 3), (1, 1, 1, 1)]

    def test_filters(self, ex1):
        bij = [f.image for f in find_homomorphisms(ex1, ex1, surjective=True)]
        assert bij == [(0, 1, 2, 3), (1, 0, 2, 3)]
        inj = [f.image for f in find_homomorphisms(ex1, ex1, injective=True)]
        assert inj == bij

    def test_strong_system_endomorphisms(self, chain2):
        found = [f.image for f in find_homomorphisms(chain2, chain2, strong=True)]
        assert found == [(0, 1)]

    def test_groupoid_strong_rejected(self, nand):
        with pytest.raises(ValueError, match="strong"):
            list(find_homomorphisms(nand, nand, strong=True))

    def test_mixed_kinds_rejected(self, nand, chain2):
        with pytest.raises(TypeError):
            list(find_homomorphisms(nand, chain2))

    def test_groupoid_homs_are_rel_homs(self, ex1):
        # operation preservation must imply relation preservation
        sys = induce_system(ex1)
        for f in find_homomorphisms(ex1, ex1):
            assert is_rel_homomorphism(sys, sys, f).holds

    def test_involution_read_without_period_two(self):
        # f(b) = u'(f(a)) and f(a) = u'(f(b)) need f(a) = u'(u'(f(a))); u' is a 3-cycle
        src_car, dst_car = Carrier(("a", "b")), Carrier(("p", "q", "r"))
        src = RelationalSystem(src_car, BinaryRelation.full(src_car),
                               ElementMap(src_car, src_car, (1, 0)))
        dst = RelationalSystem(dst_car, BinaryRelation.full(dst_car),
                               ElementMap(dst_car, dst_car, (1, 2, 0)))
        assert list(find_homomorphisms(src, dst)) == []

    def test_search_equals_a_scan_of_every_map(self):
        # every self-map serves as the involution, period two or not; the
        # full relations leave the involutions alone to decide
        c2, c3 = Carrier.of_size(2), Carrier.of_size(3)
        chain2 = BinaryRelation.from_matrix(c2, ((1, 1), (0, 1)))
        systems = [RelationalSystem(car, rel, ElementMap(car, car, image))
                   for car, rel in ((c2, chain2), (c2, BinaryRelation.full(c2)),
                                    (c3, BinaryRelation.full(c3)))
                   for image in itertools.product(range(car.size), repeat=car.size)]
        for src, dst in itertools.product(systems, repeat=2):
            for strong in (False, True):
                want = [image for image in itertools.product(range(dst.carrier.size),
                                                             repeat=src.carrier.size)
                        if is_rel_homomorphism(src, dst, ElementMap(src.carrier, dst.carrier,
                                                                    image), strong)]
                got = [f.image for f in find_homomorphisms(src, dst, strong=strong)]
                assert got == want, (src, dst, strong)


class TestCongruence:
    def test_collapse_blocks_work(self, ex1):
        eq = EquivalenceRelation.from_blocks(ex1.carrier, [(0,), (1,), (2, 3)])
        assert is_congruence(ex1, eq).holds

    def test_pair_of_atoms_fails(self, ex1):
        eq = EquivalenceRelation.from_blocks(ex1.carrier, [(0, 1), (2,), (3,)])
        v = is_congruence(ex1, eq)
        assert not v.holds
        x, xx, y, yy = v.witness
        assert eq.related(x, xx) and eq.related(y, yy)
        assert not eq.related(ex1.table[x][y], ex1.table[xx][yy])

    def test_trivial_partitions(self, ex1):
        diag = EquivalenceRelation(ex1.carrier, (0, 1, 2, 3))
        whole = EquivalenceRelation(ex1.carrier, (0, 0, 0, 0))
        assert is_congruence(ex1, diag).holds
        assert is_congruence(ex1, whole).holds

    def test_partition_of_another_carrier(self, ex1):
        eq = EquivalenceRelation(Carrier.of_size(3), (0, 0, 1))
        with pytest.raises(ValueError, match="^partition carrier differs from groupoid carrier$"):
            is_congruence(ex1, eq)


class TestInducedImage:
    def test_example_quotient(self, ex1, quotient_target):
        f = ElementMap(ex1.carrier, quotient_target.carrier, EX1_COLLAPSE)
        q = induced_image_operation(ex1, f, quotient_target)
        assert q.table == QUOTIENT_TABLE
        assert is_sheffer(q).holds
        assert induce_system(q).relation == quotient_target.relation
        assert is_groupoid_homomorphism(ex1, q, f).holds

    def test_identity_quotient(self, ex1, ex1_system):
        f = ElementMap.identity(ex1.carrier)
        q = induced_image_operation(ex1, f, ex1_system)
        assert q.table == ex1.table

    def test_not_surjective(self, ex1, quotient_target):
        f = ElementMap(ex1.carrier, quotient_target.carrier, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="surjective"):
            induced_image_operation(ex1, f, quotient_target)

    def test_not_strong(self, ex1, quotient_target):
        import dataclasses
        full = dataclasses.replace(
            quotient_target,
            relation=BinaryRelation.full(quotient_target.carrier))
        f = ElementMap(ex1.carrier, quotient_target.carrier, EX1_COLLAPSE)
        with pytest.raises(ValueError, match="strong"):
            induced_image_operation(ex1, f, full)

    def test_kernel_not_congruence_with_strong_map(self):
        # collapsing 0 and 3 is a strong homomorphism of the induced systems,
        # but 0|1 = 0 and 3|1 = 1 fall in different blocks
        g = Groupoid(Carrier.of_size(4), ((0, 0, 1, 3), (0, 2, 1, 3), (1, 1, 1, 1), (0, 1, 1, 3)))
        car = Carrier.of_size(3)
        rel = BinaryRelation.from_matrix(car, ((1, 1, 0), (0, 1, 0), (1, 1, 1)))
        dst = RelationalSystem(car, rel, ElementMap(car, car, (0, 2, 1)))
        f = ElementMap(g.carrier, car, (0, 1, 2, 0))
        assert is_rel_homomorphism(induce_system(g), dst, f, strong=True).holds
        with pytest.raises(HypothesisError,
                           match=r"kernel is not a congruence: witness \(0, 3, 1, 1\)"):
            induced_image_operation(g, f, dst)

    def test_strong_check_is_reported_before_the_kernel(self, ex1):
        # the kernel {a, b} is no congruence either, but the unrelated pair
        # (a, b) with related images is found first
        car = Carrier.of_size(3)
        dst = RelationalSystem(car, BinaryRelation.full(car),
                               ElementMap.identity(car))
        f = ElementMap(ex1.carrier, car, (0, 0, 1, 2))
        with pytest.raises(ValueError, match="strong"):
            induced_image_operation(ex1, f, dst)


class TestBoundedAssignments:
    def test_chain_top_assignment(self, chain2, nand):
        assert bounded_top_assignment(chain2).table == nand.table

    def test_square_matches_definition(self, bool4):
        g = bounded_top_assignment(bool4)
        u = bool4.involution
        for x, y in itertools.product(range(4), repeat=2):
            if bool4.relation.has(u(x), u(y)):
                assert g.table[x][y] == u(y)
            else:
                assert g.table[x][y] == bool4.top
        assert is_sheffer(g).holds

    def test_requires_bounds(self, ex1_system):
        with pytest.raises(ValueError):
            bounded_top_assignment(ex1_system)

    def test_swapped_bounds_are_refused(self, chain2):
        swapped = dataclasses.replace(chain2, bottom=1, top=0)
        with pytest.raises(ValueError, match=r"^system is not bounded: bottom not below "
                                             r"element at \(1, 0\)$"):
            bounded_top_assignment(swapped)

    def test_verify_identity(self, chain2, bool4):
        for sys in (chain2, bool4):
            assert verify_bounded_hom(sys, sys, ElementMap.identity(sys.carrier))

    def test_verify_square_automorphism(self, bool4):
        f = ElementMap(bool4.carrier, bool4.carrier, (0, 2, 1, 3))
        assert verify_bounded_hom(bool4, bool4, f)

    def test_all_strong_top_preserving_endomaps(self, chain2, bool4):
        for sys in (chain2, bool4):
            n = sys.carrier.size
            for image in itertools.product(range(n), repeat=n):
                f = ElementMap(sys.carrier, sys.carrier, image)
                if not is_rel_homomorphism(sys, sys, f, strong=True).holds:
                    continue
                if f(sys.top) != sys.top:
                    continue
                assert verify_bounded_hom(sys, sys, f)

    def test_rejects_top_moving_map(self, c2):
        sys = RelationalSystem(c2, BinaryRelation.full(c2),
                               ElementMap.identity(c2), 0, 1)
        swap = ElementMap(c2, c2, (1, 0))
        with pytest.raises(ValueError, match="top"):
            verify_bounded_hom(sys, sys, swap)

    def test_rejects_non_strong_map(self, chain2):
        const = ElementMap(chain2.carrier, chain2.carrier, (1, 1))
        with pytest.raises(ValueError, match="strong"):
            verify_bounded_hom(chain2, chain2, const)
