"""Acceptance suite: one test per numbered criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with -s; the -v
status line carries the same verdict), and any failure is a hard assert.
"""

import dataclasses
import itertools

from conftest import (
    check_cli_corpus,
    groupoids_naive,
    is_transitive_raw,
    reflexive_directed_relations,
)
from shefferkit import (
    Carrier,
    ChoicePolicy,
    ElementMap,
    EnumerationSpec,
    EquivalenceRelation,
    Groupoid,
    all_assignments,
    assign,
    assignment_space,
    check_law,
    check_named,
    check_bounded,
    check_complemented,
    count_models,
    embed_base,
    enumerate_drsi,
    find_homomorphisms,
    find_model,
    get_law,
    induce_system,
    induced_image_operation,
    is_assigned,
    is_congruence,
    is_kleene,
    is_rel_homomorphism,
    is_sheffer,
    kleene_subsystem,
    lower_cone,
    majority_check,
    relation_properties,
    run_enumeration,
    twist_product,
    twist_sheffer,
    upper_cone,
    validate_drsi,
    verify_hom_transfer,
)

SPACE_CAP = 10 ** 4
SEEDS = (0, 1, 2, 3, 4)

PARTITIONS = {
    1: [[(0,)]],
    2: [[(0,), (1,)], [(0, 1)]],
    3: [
        [(0,), (1,), (2,)],
        [(0, 1), (2,)],
        [(0, 2), (1,)],
        [(0,), (1, 2)],
        [(0, 1, 2)],
    ],
}


def small_drsi():
    for n in (1, 2, 3):
        yield from enumerate_drsi(n)


def small_sheffer():
    for n in (1, 2, 3):
        spec = EnumerationSpec(n, require=("AX1", "AX2"))
        yield from run_enumeration(spec).groupoids


def sampled_operations(sys):
    """Every assigned operation when feasible, otherwise the pinned policies."""
    space = assignment_space(sys)
    if space.count <= SPACE_CAP:
        return list(all_assignments(space))
    policies = [ChoicePolicy.least(), ChoicePolicy.greatest()]
    policies += [ChoicePolicy.seeded(s) for s in SEEDS]
    return [assign(sys, p) for p in policies]


def test_criterion_01_worked_example(ex1, ex1_system):
    assert is_sheffer(ex1).holds
    full = {(x, y) for x in range(4) for y in range(4)}
    assert set(ex1_system.relation.pairs()) == full - {(0, 1), (1, 0)}
    assert ex1_system.involution.image == (0, 1, 3, 2)
    assert upper_cone(ex1_system, 0, 1) == {2, 3}
    space = assignment_space(ex1_system)
    assert space.free_pairs == ((0, 1), (1, 0))
    assert space.cells[0][1] == (2, 3) and space.cells[1][0] == (2, 3)
    assert space.count == 4
    recovered = assign(ex1_system, ChoicePolicy.least())
    assert recovered.table == ex1.table
    assert recovered.table[0][1] == 2 and recovered.table[1][0] == 2
    print("ACCEPTANCE 01 worked-example: PASS")


def test_criterion_02_axiom_independence():
    first_only = find_model(require=("AX1",), forbid=("AX2",), max_size=2)
    assert first_only is not None
    assert check_law(first_only, get_law("AX1")).holds
    assert not check_law(first_only, get_law("AX2")).holds

    second_only = find_model(require=("AX2",), forbid=("AX1",), max_size=3)
    assert second_only is not None and second_only.size == 3
    assert check_law(second_only, get_law("AX2")).holds
    assert not check_law(second_only, get_law("AX1")).holds

    # the two fixed witness tables
    lproj = Groupoid(Carrier.of_size(2), ((0, 0), (1, 1)))
    assert check_law(lproj, get_law("AX1")).holds
    assert not check_law(lproj, get_law("AX2")).holds
    witness3 = Groupoid(Carrier.of_size(3), ((0, 1, 2), (2, 1, 2), (0, 0, 2)))
    assert check_law(witness3, get_law("AX2")).holds
    assert not check_law(witness3, get_law("AX1")).holds
    print("ACCEPTANCE 02 axiom-independence: PASS")


def test_criterion_03_roundtrip():
    systems = 0
    operations = 0
    for sys in small_drsi():
        systems += 1
        for g in sampled_operations(sys):
            operations += 1
            assert induce_system(g) == sys
    assert systems == 1 + 4 + 34
    assert operations >= systems
    print(f"ACCEPTANCE 03 roundtrip ({operations} operations): PASS")


def test_criterion_04_property_characterization():
    for sys in small_drsi():
        props = relation_properties(sys.relation)
        for g in sampled_operations(sys):
            assert check_named(g, "SYM7").holds == props.symmetric
            assert check_named(g, "TRANS8").holds == props.transitive
            assert check_named(g, "ANTISYM").holds == props.antisymmetric
            if check_named(g, "COMM").holds:
                assert props.antisymmetric
    print("ACCEPTANCE 04 property-characterization: PASS")


def test_criterion_05_bounded_complemented():
    for sys in small_drsi():
        n = sys.carrier.size
        for bottom, top in itertools.product(range(n), repeat=2):
            cand = dataclasses.replace(sys, bottom=bottom, top=top)
            bounded = check_bounded(cand).holds
            ops = sampled_operations(cand)
            laws_hold = all(
                check_named(g, "BOUND0").holds and check_named(g, "BOUND1").holds
                for g in ops)
            assert bounded == laws_hold
            for g in ops:
                if (bounded and g.table[bottom][bottom] == top
                        and check_named(g, "COMPL").holds):
                    assert check_complemented(cand).holds
    print("ACCEPTANCE 05 bounded-complemented: PASS")


def test_criterion_06_majority():
    witnessed = 0
    for g in small_sheffer():
        if check_named(g, "CD3").holds and check_named(g, "CD9").holds:
            witnessed += 1
            assert majority_check(g).holds
    assert witnessed > 0
    print(f"ACCEPTANCE 06 majority ({witnessed} qualifying models): PASS")


def test_criterion_07_transfer_and_quotients():
    models = list(small_sheffer())
    homs = 0
    for ga, gb in itertools.product(models, repeat=2):
        for f in find_homomorphisms(ga, gb):
            homs += 1
            assert verify_hom_transfer(ga, gb, f)
    assert homs > 0

    quotients = 0
    for g in models:
        for blocks in PARTITIONS[g.size]:
            eq = EquivalenceRelation.from_blocks(g.carrier, blocks)
            if not is_congruence(g, eq).holds:
                continue
            k = len(blocks)
            image_car = Carrier.of_size(k)
            f = ElementMap(g.carrier, image_car, eq.block_ids)
            reps = [block[0] for block in eq.blocks()]
            q_table = tuple(
                tuple(eq.block_ids[g.table[reps[i]][reps[j]]] for j in range(k))
                for i in range(k))
            q = Groupoid(image_car, q_table)
            assert is_sheffer(q).holds  # quotients of models keep the axioms
            q_sys = induce_system(q)
            # the construction is only defined for strong block maps
            if not is_rel_homomorphism(induce_system(g), q_sys, f, strong=True):
                continue
            built = induced_image_operation(g, f, q_sys)
            assert is_sheffer(built).holds
            assert built.table == q_table
            assert is_assigned(q_sys, built).holds
            quotients += 1
    assert quotients > 0
    print(f"ACCEPTANCE 07 transfer-and-quotients ({homs} maps, "
          f"{quotients} quotients): PASS")


def test_criterion_08_twist_product():
    bases = 0
    for n in (1, 2, 3):
        for sys in reflexive_directed_relations(n):
            bases += 1
            tw = twist_product(sys)
            assert validate_drsi(tw).passed
            flat = lambda x, y: x * n + y
            for a, b, c, d in itertools.product(range(n), repeat=4):
                expect = {flat(p, q)
                          for p in upper_cone(sys, a, c)
                          for q in lower_cone(sys, b, d)}
                assert upper_cone(tw, flat(a, b), flat(c, d)) == expect
            for a in range(n):
                f, verdict = embed_base(sys, a)
                assert f.is_injective() and verdict.holds

    for sys in small_drsi():
        g = assign(sys, ChoicePolicy.least())
        tg = twist_sheffer(g)
        assert is_sheffer(tg).holds
        assert is_assigned(twist_product(sys), tg).holds
    print(f"ACCEPTANCE 08 twist-product ({bases} base systems): PASS")


def test_criterion_09_kleene_subsystems():
    checked = 0
    for n in (1, 2, 3):
        for sys in reflexive_directed_relations(n):
            if not is_transitive_raw(sys.relation):
                continue
            for a in range(n):
                sub, report = kleene_subsystem(sys, a)
                assert validate_drsi(sub).passed
                assert is_kleene(sub).holds
                assert report.kleene_ambient.holds
                assert report.embedding.holds
                assert report.passed
                checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 09 kleene-subsystems ({checked} subsystems): PASS")


def test_criterion_10_enumeration_oracle():
    def sheffer_pred(g):
        return (check_law(g, get_law("AX1")).holds
                and check_law(g, get_law("AX2")).holds)

    naive2 = groupoids_naive(2, sheffer_pred)
    assert len(naive2) == 4
    assert count_models(EnumerationSpec(2, require=("AX1", "AX2"))) == 4

    naive2c = [g for g in naive2 if check_law(g, get_law("COMM")).holds]
    assert len(naive2c) == 2
    assert count_models(
        EnumerationSpec(2, require=("AX1", "AX2", "COMM"))) == 2

    naive3 = groupoids_naive(3, sheffer_pred)
    pruned3 = run_enumeration(EnumerationSpec(3, require=("AX1", "AX2"))).groupoids
    assert [g.table for g in pruned3] == [g.table for g in naive3]
    assert len(naive3) == 52  # pinned regression constant
    print("ACCEPTANCE 10 enumeration-oracle (4/2/52): PASS")


def test_criterion_11_parser_and_cli():
    import random
    from conftest import GOLDEN
    from test_terms import random_term
    from shefferkit import format_term, parse_term

    rng = random.Random(715)
    for _ in range(10_000):
        t = random_term(rng, 6)
        assert parse_term(format_term(t)) == t

    assert len(list(GOLDEN.glob("*.txt"))) == 27
    check_cli_corpus()
    print("ACCEPTANCE 11 parser-and-cli: PASS")
