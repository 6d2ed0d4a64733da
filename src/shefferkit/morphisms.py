"""Homomorphisms between systems and groupoids, congruences, and quotients."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .relcore import Carrier, ElementMap, RelationalSystem, Verdict, _require_drsi, check_bounded
from .sheffer import Groupoid, derived_involution
from .bridge import induce_system, is_assigned

__all__ = [
    "HypothesisError",
    "EquivalenceRelation",
    "is_rel_homomorphism",
    "is_groupoid_homomorphism",
    "verify_hom_transfer",
    "find_homomorphisms",
    "kernel",
    "is_congruence",
    "induced_image_operation",
    "bounded_top_assignment",
    "verify_bounded_hom",
]


class HypothesisError(ValueError):
    """The quotient map is not surjective, not strong, or has a non-congruence kernel."""


def _first_occurrence_ids(labels) -> tuple[int, ...]:
    """One block id per distinct label, numbered in order of first occurrence."""
    order: dict = {}
    return tuple(order.setdefault(label, len(order)) for label in labels)


@dataclass(frozen=True)
class EquivalenceRelation:
    """Partition of a carrier into blocks, stored as dense block ids.

    Ids are required to appear in first-occurrence order, so equal
    partitions compare equal.
    """

    carrier: Carrier
    block_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_ids", tuple(self.block_ids))
        if len(self.block_ids) != self.carrier.size:
            raise ValueError("block ids do not cover the carrier")
        top = 0
        for b in self.block_ids:
            if b > top:
                raise ValueError("block ids must appear in first-occurrence order")
            if b == top:
                top += 1
        if top == 0:
            raise ValueError("partition must have at least one block")

    @classmethod
    def from_blocks(cls, carrier: Carrier, blocks) -> "EquivalenceRelation":
        ids = [-1] * carrier.size
        for k, block in enumerate(blocks):
            for x in tuple(block):
                if ids[x] != -1:
                    raise ValueError(f"element {x} appears in two blocks")
                ids[x] = k
        if -1 in ids:
            raise ValueError("blocks do not cover the carrier")
        return cls(carrier, _first_occurrence_ids(ids))

    def related(self, i: int, j: int) -> bool:
        return self.block_ids[i] == self.block_ids[j]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        count = max(self.block_ids) + 1
        out: list[list[int]] = [[] for _ in range(count)]
        for x, b in enumerate(self.block_ids):
            out[b].append(x)
        return tuple(tuple(block) for block in out)


def _carriers_match(f: ElementMap, src, dst) -> None:
    if f.domain != src.carrier or f.codomain != dst.carrier:
        raise ValueError("map carriers do not match source and target")


def is_rel_homomorphism(src: RelationalSystem, dst: RelationalSystem, f: ElementMap,
                        strong: bool = False) -> Verdict:
    """Relation-preserving map; ``strong`` also demands the converse.

    When both systems carry involutions the map must commute with them.
    """
    _carriers_match(f, src, dst)
    n = src.carrier.size
    for x in range(n):
        for y in range(n):
            forward = src.relation.has(x, y)
            back = dst.relation.has(f(x), f(y))
            if forward and not back:
                return Verdict(False, (x, y), "related pair with unrelated images")
            if strong and back and not forward:
                return Verdict(False, (x, y), "unrelated pair with related images")
    if src.involution is not None and dst.involution is not None:
        for x in range(n):
            if f(src.involution(x)) != dst.involution(f(x)):
                return Verdict(False, (x,), "does not commute with the involutions")
    return Verdict(True)


def is_groupoid_homomorphism(ga: Groupoid, gb: Groupoid, f: ElementMap) -> Verdict:
    _carriers_match(f, ga, gb)
    n = ga.size
    for x in range(n):
        for y in range(n):
            if f(ga.table[x][y]) != gb.table[f(x)][f(y)]:
                return Verdict(False, (x, y), "f(x|y) differs from f(x)|f(y)")
    return Verdict(True)


def verify_hom_transfer(ga: Groupoid, gb: Groupoid, f: ElementMap) -> bool:
    """A groupoid homomorphism must also map induced system to induced system."""
    sys_a, sys_b = induce_system(ga), induce_system(gb)
    if not is_groupoid_homomorphism(ga, gb, f):
        raise ValueError("map is not a groupoid homomorphism")
    return is_rel_homomorphism(sys_a, sys_b, f).holds


def find_homomorphisms(src, dst, *, strong: bool = False, surjective: bool = False,
                       injective: bool = False) -> Iterator[ElementMap]:
    """Backtracking search for homomorphisms, emitted in lexicographic image order.

    Both arguments must be relational systems or both groupoids; the
    groupoid mode constrains the operation instead of the relation, and
    system pairs that both carry involutions get the compatibility
    constraint as well.
    """
    groupoid_mode = isinstance(src, Groupoid)
    if groupoid_mode != isinstance(dst, Groupoid):
        raise TypeError("source and target must both be systems or both groupoids")
    if groupoid_mode and strong:
        raise ValueError("strong mode applies to relational systems only")
    n = src.carrier.size
    m = dst.carrier.size
    check_inv = (not groupoid_mode and src.involution is not None
                 and dst.involution is not None)

    image = [0] * n
    used = [0] * m

    def consistent(i: int) -> bool:
        if groupoid_mode:
            for x in range(i + 1):
                for y in range(i + 1):
                    z = src.table[x][y]
                    if z <= i and (x == i or y == i or z == i):
                        if image[z] != dst.table[image[x]][image[y]]:
                            return False
            return True
        for x in range(i + 1):
            for a, b in ((x, i), (i, x)):
                forward = src.relation.has(a, b)
                back = dst.relation.has(image[a], image[b])
                if forward and not back:
                    return False
                if strong and back and not forward:
                    return False
        if check_inv:
            j = src.involution(i)
            if j <= i and image[j] != dst.involution(image[i]):
                return False
        return True

    def extend(i: int) -> Iterator[ElementMap]:
        if i == n:
            yield ElementMap(src.carrier, dst.carrier, tuple(image))
            return
        for v in range(m):
            if injective and used[v]:
                continue
            image[i] = v
            used[v] += 1
            missing = sum(1 for c in used if c == 0)
            if not (surjective and missing > n - i - 1) and consistent(i):
                yield from extend(i + 1)
            used[v] -= 1

    yield from extend(0)


def kernel(f: ElementMap) -> EquivalenceRelation:
    """Partition of the domain by image value."""
    return EquivalenceRelation(f.domain, _first_occurrence_ids(f.image))


def is_congruence(g: Groupoid, eq: EquivalenceRelation) -> Verdict:
    """Compatibility of a partition with the operation."""
    if eq.carrier != g.carrier:
        raise ValueError("partition carrier differs from groupoid carrier")
    n = g.size
    for x, xx in itertools.product(range(n), repeat=2):
        if not eq.related(x, xx):
            continue
        for y, yy in itertools.product(range(n), repeat=2):
            if not eq.related(y, yy):
                continue
            if not eq.related(g.table[x][y], g.table[xx][yy]):
                return Verdict(False, (x, xx, y, yy),
                               "blocks are not compatible with the operation")
    return Verdict(True)


def induced_image_operation(ga: Groupoid, f: ElementMap, dst_sys: RelationalSystem,
                            src_sys: Optional[RelationalSystem] = None) -> Groupoid:
    """Push the operation along a strong surjective map with congruence kernel.

    ``src_sys`` defaults to the induced system of ``ga``.  The result is
    defined on representatives and audited over every preimage pair, so a
    kernel that is not a congruence cannot slip through.
    """
    if src_sys is None:
        src_sys = induce_system(ga)
    else:
        derived_involution(ga)  # the Sheffer guard, which induce_system runs on the other path
        assigned = is_assigned(src_sys, ga)
        if not assigned:
            raise ValueError(f"groupoid is not assigned to the source system: {assigned.reason}")
    _carriers_match(f, src_sys, dst_sys)
    if not f.is_surjective():
        raise HypothesisError("map is not surjective onto the target carrier")
    hom = is_rel_homomorphism(src_sys, dst_sys, f, strong=True)
    if not hom:
        raise HypothesisError(f"map is not a strong homomorphism: {hom.reason} at {hom.witness}")
    cong = is_congruence(ga, kernel(f))
    if not cong:
        raise HypothesisError(f"kernel is not a congruence: witness {cong.witness}")

    m = dst_sys.carrier.size
    preimages: list[list[int]] = [[] for _ in range(m)]
    for x, v in enumerate(f.image):
        preimages[v].append(x)
    table = []
    for u in range(m):
        row = []
        for v in range(m):
            values = {f(ga.table[x][y]) for x in preimages[u] for y in preimages[v]}
            if len(values) != 1:
                raise RuntimeError("image operation is not well defined despite congruence kernel")
            row.append(values.pop())
        table.append(tuple(row))
    return Groupoid(dst_sys.carrier, tuple(table), dst_sys.bottom, dst_sys.top)


def _require_bounded_drsi(sys: RelationalSystem) -> None:
    _require_drsi(sys)
    bounded = check_bounded(sys)
    if not bounded:
        raise ValueError(f"system is not bounded: {bounded.reason} at {bounded.witness}")


def bounded_top_assignment(sys: RelationalSystem) -> Groupoid:
    """The assignment that sends every free cell to the top element."""
    _require_bounded_drsi(sys)
    u = sys.involution
    rel = sys.relation
    n = sys.carrier.size
    table = tuple(
        tuple(u(y) if rel.has(u(x), u(y)) else sys.top for y in range(n))
        for x in range(n))
    return Groupoid(sys.carrier, table, sys.bottom, sys.top)


def verify_bounded_hom(sys_a: RelationalSystem, sys_b: RelationalSystem,
                       f: ElementMap) -> bool:
    """A strong top-preserving map must carry top-assignments homomorphically."""
    _require_bounded_drsi(sys_a)
    _require_bounded_drsi(sys_b)
    hom = is_rel_homomorphism(sys_a, sys_b, f, strong=True)
    if not hom:
        raise ValueError(f"map is not a strong homomorphism: {hom.reason} at {hom.witness}")
    if f(sys_a.top) != sys_b.top:
        raise ValueError("map does not preserve the top element")
    ga = bounded_top_assignment(sys_a)
    gb = bounded_top_assignment(sys_b)
    return is_groupoid_homomorphism(ga, gb, f).holds
