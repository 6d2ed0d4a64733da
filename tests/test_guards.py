"""One guard per input condition.

The Sheffer condition is checked by ``sheffer.derived_involution`` and the
DRSI condition by ``relcore._require_drsi``.  Every entry point that needs
a condition reports its failure with that guard's message, and no entry
point checks the Sheffer axioms of one groupoid, or the DRSI conditions of
one system, twice.
"""

import sys

import pytest

from conftest import run_cli
from shefferkit import (
    BinaryRelation,
    ElementMap,
    Groupoid,
    RelationalSystem,
    all_assignments,
    assign,
    assignment_space,
    bounded_top_assignment,
    coincidence_pairs,
    derived_involution,
    induce_system,
    induced_image_operation,
    twist_sheffer,
    verify_bounded_hom,
    verify_hom_transfer,
    verify_roundtrip,
)
import shefferkit.bridge as bridge
import shefferkit.relcore as relcore
import shefferkit.sheffer as sheffer

# the left projection x|y = x satisfies AX1 and fails AX2 at x=0, y=1
LPROJ_MESSAGE = "not a Sheffer groupoid: AX2 fails at {'x': 0, 'y': 1}"
NOT_REFLEXIVE_MESSAGE = "system is not a valid input: reflexive check fails (missing loop)"


@pytest.fixture
def lproj(c2):
    return Groupoid(c2, ((0, 0), (1, 1)))


@pytest.fixture
def not_reflexive(c2):
    """0 relates only to 1; swap involution and both bounds."""
    rel = BinaryRelation.from_matrix(c2, ((0, 1), (0, 1)))
    return RelationalSystem(c2, rel, ElementMap(c2, c2, (1, 0)), 0, 1)


def message_of(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestShefferGuard:
    def test_every_entry_point_reports_the_guard_message(self, lproj, nand, chain2):
        # identity is no homomorphism from lproj to nand, so verify_hom_transfer
        # shows the Sheffer check comes first
        ident = ElementMap.identity(chain2.carrier)
        calls = {
            "derived_involution": lambda: derived_involution(lproj),
            "induce_system": lambda: induce_system(lproj),
            "coincidence_pairs": lambda: coincidence_pairs(lproj),
            "twist_sheffer": lambda: twist_sheffer(lproj),
            "verify_hom_transfer source": lambda: verify_hom_transfer(lproj, nand, ident),
            "verify_hom_transfer target": lambda: verify_hom_transfer(nand, lproj, ident),
            "induced_image_operation": lambda: induced_image_operation(lproj, ident, chain2),
        }
        messages = {name: message_of(call) for name, call in calls.items()}
        assert messages == {name: LPROJ_MESSAGE for name in calls}

    @pytest.mark.parametrize("argv", [
        ["induce", "tests/data/lproj.grp"],
        ["twist-op", "tests/data/lproj.grp"],
        ["quotient", "tests/data/lproj.grp", "tests/data/identity2.map", "tests/data/chain2.sys"],
    ], ids=["induce", "twist-op", "quotient"])
    def test_cli_reports_the_guard_message(self, argv):
        assert run_cli(argv) == (2, "", f"error: {LPROJ_MESSAGE}\n")


class TestDrsiGuard:
    def test_every_entry_point_reports_the_guard_message(self, not_reflexive, chain2):
        ident = ElementMap.identity(chain2.carrier)
        calls = {
            "assignment_space": lambda: assignment_space(not_reflexive),
            "assign": lambda: assign(not_reflexive),
            "all_assignments": lambda: list(all_assignments(not_reflexive)),
            "verify_roundtrip": lambda: verify_roundtrip(not_reflexive),
            "bounded_top_assignment": lambda: bounded_top_assignment(not_reflexive),
            "verify_bounded_hom source": lambda: verify_bounded_hom(not_reflexive, chain2, ident),
            "verify_bounded_hom target": lambda: verify_bounded_hom(chain2, not_reflexive, ident),
        }
        messages = {name: message_of(call) for name, call in calls.items()}
        assert messages == {name: NOT_REFLEXIVE_MESSAGE for name in calls}

    def test_guard_skips_the_cone_duality_audit(self, ex1_system, monkeypatch):
        def audit(*args):
            raise AssertionError("the guard computed the cone-duality audit")

        monkeypatch.setattr(relcore, "_cone_duality", audit)
        assert assignment_space(ex1_system).count >= 1


def recorded_calls(monkeypatch, home, attr):
    """First arguments passed to ``home.attr`` under any name a package
    module holds it by."""
    calls = []
    real = getattr(home, attr)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shefferkit" and hasattr(module, attr):
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def sheffer_checks(monkeypatch):
    """Groupoids passed to ``is_sheffer``."""
    return recorded_calls(monkeypatch, sheffer, "is_sheffer")


class TestOneCheckPerGroupoid:
    def test_induce_system(self, ex1, sheffer_checks):
        induce_system(ex1)
        assert sheffer_checks == [ex1]

    def test_twist_sheffer(self, ex1, sheffer_checks):
        twist_sheffer(ex1)
        assert sheffer_checks == [ex1]

    def test_coincidence_pairs(self, ex1, sheffer_checks):
        coincidence_pairs(ex1)
        assert sheffer_checks == [ex1]

    def test_induced_image_operation(self, ex1, ex1_system, sheffer_checks):
        ident = ElementMap.identity(ex1.carrier)
        induced_image_operation(ex1, ident, ex1_system)
        assert sheffer_checks == [ex1]

    def test_verify_hom_transfer_checks_each_groupoid_once(self, ex1, nand, sheffer_checks):
        verify_hom_transfer(ex1, ex1, ElementMap.identity(ex1.carrier))
        assert sheffer_checks == [ex1, ex1]
        sheffer_checks.clear()
        const = ElementMap(ex1.carrier, nand.carrier, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="homomorphism"):
            verify_hom_transfer(ex1, nand, const)
        assert sheffer_checks == [ex1, nand]


class TestOneCheckPerSystem:
    @pytest.fixture
    def drsi_checks(self, monkeypatch):
        """Systems passed to the DRSI guard ``relcore._require_drsi``."""
        return recorded_calls(monkeypatch, relcore, "_require_drsi")

    @pytest.fixture
    def space_builds(self, monkeypatch):
        """Systems passed to ``assignment_space``."""
        return recorded_calls(monkeypatch, bridge, "assignment_space")

    def test_bounded_top_assignment(self, bool4, drsi_checks, space_builds):
        bounded_top_assignment(bool4)
        assert drsi_checks == [bool4]
        assert space_builds == [bool4]

    def test_verify_bounded_hom(self, bool4, drsi_checks, space_builds):
        assert verify_bounded_hom(bool4, bool4, ElementMap.identity(bool4.carrier))
        assert drsi_checks == [bool4, bool4]
        assert space_builds == [bool4, bool4]
