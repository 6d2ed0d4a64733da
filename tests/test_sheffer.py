"""Operation tables, the named law catalog, and derived structure."""

import dataclasses

import pytest

from shefferkit import (
    CATALOG,
    Carrier,
    Groupoid,
    antisymmetry_quasi_check,
    check_law,
    check_named,
    derived_involution,
    eval_term,
    get_law,
    is_sheffer,
    majority_check,
    majority_term_value,
    parse_law,
)

LPROJ2 = ((0, 0), (1, 1))
# smallest table satisfying only the second axiom; found by ascending search
AX2_ONLY3 = ((0, 1, 2), (2, 1, 2), (0, 0, 2))


class TestGroupoid:
    def test_op_and_size(self, ex1):
        assert ex1.size == 4
        assert ex1.op(0, 1) == 2
        assert ex1.op(2, 2) == 3

    def test_table_validation(self):
        car = Carrier.of_size(2)
        with pytest.raises(ValueError):
            Groupoid(car, ((0,), (1, 0)))
        with pytest.raises(IndexError):
            Groupoid(car, ((0, 2), (1, 0)))
        with pytest.raises(ValueError, match=r"^expected 2 table rows, got 1$"):
            Groupoid(car, ((0, 1),))

    def test_list_table_becomes_tuples(self, c2, nand):
        g = Groupoid(c2, [[1, 1], [1, 0]])
        assert g.table == ((1, 1), (1, 0))
        assert g == nand and hash(g) == hash(nand)
        assert check_law(g, get_law("COMM")) == check_law(nand, get_law("COMM"))

    def test_bounds_validation(self):
        car = Carrier.of_size(2)
        with pytest.raises(IndexError):
            Groupoid(car, ((0, 0), (1, 1)), bottom=5)


class TestCatalog:
    def test_keys(self):
        assert set(CATALOG) == {
            "AX1", "AX2", "COMM", "SYM7", "TRANS8", "CD3", "CD9",
            "ANTISYM", "BOUND0", "BOUND1", "COMPL",
        }

    def test_every_entry_parses(self):
        for key, text in CATALOG.items():
            assert get_law(key) == parse_law(text)

    def test_unknown_key(self, ex1):
        with pytest.raises(KeyError):
            check_named(ex1, "NOPE")


class TestIsSheffer:
    def test_example(self, ex1):
        v = is_sheffer(ex1)
        assert v.holds
        assert v.name == "sheffer"
        assert v.checked == 2 * 4 ** 2

    def test_two_element_tables(self, nand, nor, rproj):
        assert is_sheffer(nand).holds
        assert is_sheffer(nor).holds
        assert is_sheffer(rproj).holds

    def test_left_projection_fails_second_axiom(self):
        g = Groupoid(Carrier.of_size(2), LPROJ2)
        v = is_sheffer(g)
        assert not v.holds
        assert v.name == "AX2"
        assert v.counterexample == {"x": 0, "y": 1}

    def test_ax2_only_table_fails_first_axiom(self):
        g = Groupoid(Carrier.of_size(3), AX2_ONLY3)
        v = is_sheffer(g)
        assert not v.holds and v.name == "AX1"
        assert v.counterexample == {"x": 0, "y": 1}
        assert check_law(g, get_law("AX2")).holds


class TestDerivedInvolution:
    def test_example(self, ex1):
        assert derived_involution(ex1).image == (0, 1, 3, 2)

    def test_two_element(self, nand, nor, rproj):
        assert derived_involution(nand).image == (1, 0)
        assert derived_involution(nor).image == (1, 0)
        assert derived_involution(rproj).image == (0, 1)

    def test_period_two_everywhere(self, sheffer_by_size):
        for gs in sheffer_by_size.values():
            for g in gs:
                u = derived_involution(g).image
                assert all(u[u[x]] == x for x in range(g.size))

    def test_rejects_non_sheffer(self):
        g = Groupoid(Carrier.of_size(2), LPROJ2)
        with pytest.raises(ValueError, match="AX2"):
            derived_involution(g)


class TestReformulatedAxioms:
    def test_prime_forms(self, sheffer_by_size):
        # with the sugar the axioms collapse to (x|y)|x' = x and (x|y)|y' = y
        a = parse_law("(x|y)|x' = x")
        b = parse_law("(x|y)|y' = y")
        for gs in sheffer_by_size.values():
            for g in gs:
                assert check_law(g, a).holds
                assert check_law(g, b).holds


class TestCheckNamed:
    def test_symmetry_law(self, ex1):
        assert check_named(ex1, "SYM7").holds

    def test_transitivity_law_fails_on_example(self, ex1):
        v = check_named(ex1, "TRANS8")
        assert not v.holds
        assert v.name == "TRANS8"
        assert v.counterexample == {"x": 0, "y": 1, "z": 1}
        assert (v.lhs_value, v.rhs_value) == (2, 1)

    def test_transitivity_law_other_violation(self, ex1):
        # the triple x=a, y=c, z=b also violates it
        law = get_law("TRANS8")
        env = {"x": 0, "y": 2, "z": 1}
        assert eval_term(ex1, law.conclusion[0], env) == 2
        assert eval_term(ex1, law.conclusion[1], env) == 1

    def test_lowercase_key(self, ex1):
        # get_law is strict; callers normalize case before reaching it
        with pytest.raises(KeyError):
            check_named(ex1, "sym7")

    def test_bounds_guard(self, nand):
        with pytest.raises(ValueError, match="bounds"):
            check_named(nand, "BOUND0")
        bounded = dataclasses.replace(nand, bottom=0, top=1)
        assert check_named(bounded, "BOUND0").holds
        assert check_named(bounded, "BOUND1").holds
        assert check_named(bounded, "COMPL").holds

    def test_commutativity(self, nand, rproj):
        assert check_named(nand, "COMM").holds
        v = check_named(rproj, "COMM")
        assert not v.holds and v.counterexample == {"x": 0, "y": 1}


class TestMajority:
    def test_term_value(self, nand):
        # m(0,1,1) on the two-element table must pick the majority
        assert majority_term_value(nand, 0, 1, 1) == 1
        assert majority_term_value(nand, 0, 1, 0) == 0

    def test_commutative_duals_pass(self, nand, nor):
        assert majority_check(nand).holds
        assert majority_check(nor).holds

    def test_projection_fails(self, rproj):
        v = majority_check(rproj)
        assert not v.holds
        assert v.witness == ("m(x,x,z)=x", (0, 0, 1), 1)

    def test_constant_table_fails_first_identity(self, c2):
        v = majority_check(Groupoid(c2, ((0, 0), (0, 0))))
        assert v.witness == ("m(x,z,z)=z", (0, 1, 1), 0)

    def test_cd_laws_imply_majority(self, sheffer_by_size):
        for gs in sheffer_by_size.values():
            for g in gs:
                if check_named(g, "CD3").holds and check_named(g, "CD9").holds:
                    assert majority_check(g).holds

    def test_example_lacks_cd_laws(self, ex1):
        # the 4-element example is not commutative enough for a majority term
        assert check_named(ex1, "CD3").counterexample == {"x": 0, "y": 1}
        assert check_named(ex1, "CD9").counterexample == {"x": 0, "y": 1}
        v = majority_check(ex1)
        assert not v.holds
        assert v.witness == ("m(x,y,x)=x", (0, 1, 0), 3)


class TestAntisymmetry:
    def test_example_fails(self, ex1):
        v = antisymmetry_quasi_check(ex1)
        assert not v.holds
        assert v.counterexample == {"x": 0, "y": 2}

    def test_chain_table_holds(self, nand):
        assert antisymmetry_quasi_check(nand).holds

    def test_commutative_implies_antisymmetric(self, sheffer_by_size):
        for gs in sheffer_by_size.values():
            for g in gs:
                if check_named(g, "COMM").holds:
                    assert antisymmetry_quasi_check(g).holds
