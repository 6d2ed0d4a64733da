"""The directedness and involution checks against the scans they replaced.

``ref_is_directed`` and ``ref_check_involution`` are copies of the earlier
pair scans: the cone test at every pair, and the antitone test over
``pairs()`` and ``has()``.  The mask-based checks must return the same
``Verdict`` (holds, witness and reason) for every relation and every
self-map on carriers of at most three elements.
"""

import itertools

import pytest

from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    RelationalSystem,
    Verdict,
    check_involution,
    is_directed,
)


def ref_is_directed(sys):
    rel = sys.relation
    n = sys.carrier.size
    for a in range(n):
        for b in range(n):
            if not rel.upper_mask(a, b):
                return Verdict(False, (a, b), "upper cone empty")
            if not rel.lower_mask(a, b):
                return Verdict(False, (a, b), "lower cone empty")
    return Verdict(True)


def ref_check_involution(sys, u):
    for x in range(sys.carrier.size):
        if u(u(x)) != x:
            return Verdict(False, (x,), "not of period two")
    rel = sys.relation
    for x, y in rel.pairs():
        if not rel.has(u(y), u(x)):
            return Verdict(False, (x, y), "not antitone")
    return Verdict(True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_relation_and_self_map(n):
    car = Carrier.of_size(n)
    maps = [ElementMap(car, car, image) for image in itertools.product(range(n), repeat=n)]
    antitone = 0
    for mask in range(1 << n * n):
        rows = tuple(mask >> (i * n) & ((1 << n) - 1) for i in range(n))
        sys = RelationalSystem(car, BinaryRelation(car, rows))
        assert is_directed(sys) == ref_is_directed(sys), rows
        for u in maps:
            verdict = check_involution(sys, u)
            assert verdict == ref_check_involution(sys, u), (rows, u.image)
            antitone += verdict.holds
    # from two elements on, the comparison reaches both outcomes
    assert n == 1 or 0 < antitone < (1 << n * n) * len(maps)
