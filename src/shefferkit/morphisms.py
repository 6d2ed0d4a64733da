"""Homomorphisms between systems and groupoids, congruences, and quotients."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .relcore import Carrier, ElementMap, RelationalSystem, Verdict, check_bounded
from .sheffer import Groupoid
from .bridge import ChoicePolicy, assign, assignment_space, induce_system

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

    Ids are required to count up from 0 in first-occurrence order, so
    equal partitions compare equal.
    """

    carrier: Carrier
    block_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_ids", tuple(self.block_ids))
        if len(self.block_ids) != self.carrier.size:
            raise ValueError("block ids do not cover the carrier")
        if self.block_ids != _first_occurrence_ids(self.block_ids):
            raise ValueError("block ids must be at least 0, in first-occurrence order")

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


def _conditions(src, dst, strong: bool):
    """The conditions of a homomorphism src -> dst, in the order a map check reports them.

    Each (x, y, z, table, witness, reason) holds for f when table[f(x)][f(y)] == f(z):
    one per cell (x, y, x|y) of a groupoid; for systems, one per related pair (every
    pair when ``strong``) against a table that returns its column exactly on the
    related (or unrelated) cells, then one per (x, u(x)) against rows that hold u(a).
    """
    groupoid_mode = isinstance(src, Groupoid)
    if groupoid_mode != isinstance(dst, Groupoid):
        raise TypeError("source and target must both be systems or both groupoids")
    if groupoid_mode and strong:
        raise ValueError("strong mode applies to relational systems only")
    n, m = src.carrier.size, dst.carrier.size
    if groupoid_mode:
        for x in range(n):
            for y in range(n):
                yield x, y, src.table[x][y], dst.table, (x, y), "f(x|y) differs from f(x)|f(y)"
        return
    related = [[b if row >> b & 1 else -1 for b in range(m)] for row in dst.relation.rows]
    unrelated = [[-1 if row >> b & 1 else b for b in range(m)] for row in dst.relation.rows]
    for x, row in enumerate(src.relation.rows):
        for y in range(n):
            if row >> y & 1:
                yield x, y, y, related, (x, y), "related pair with unrelated images"
            elif strong:
                yield x, y, y, unrelated, (x, y), "unrelated pair with related images"
    if src.involution is not None and dst.involution is not None:
        # every x, as an involution read from a file need not have period two
        flip = [[dst.involution(a)] * m for a in range(m)]
        for x in range(n):
            yield x, x, src.involution(x), flip, (x,), "does not commute with the involutions"


def _first_failure(src, dst, f: ElementMap, strong: bool = False, *,
                   injective: bool = False, surjective: bool = False) -> Verdict:
    """The first failing condition, then the modes of ``find_homomorphisms`` in turn."""
    _carriers_match(f, src, dst)
    image = f.image
    for x, y, z, table, witness, reason in _conditions(src, dst, strong):
        if table[image[x]][image[y]] != image[z]:
            return Verdict(False, witness, reason)
    if injective and not f.is_injective():
        return Verdict(False, None, "not injective")
    if surjective and not f.is_surjective():
        return Verdict(False, None, "not surjective")
    return Verdict(True)


def is_rel_homomorphism(src: RelationalSystem, dst: RelationalSystem, f: ElementMap,
                        strong: bool = False) -> Verdict:
    """Relation-preserving map that commutes with the involutions when both
    systems carry one; ``strong`` also demands the converse."""
    return _first_failure(src, dst, f, strong)


def is_groupoid_homomorphism(ga: Groupoid, gb: Groupoid, f: ElementMap) -> Verdict:
    return _first_failure(ga, gb, f)


def verify_hom_transfer(ga: Groupoid, gb: Groupoid, f: ElementMap) -> bool:
    """A groupoid homomorphism must also map induced system to induced system."""
    sys_a, sys_b = induce_system(ga), induce_system(gb)
    if not is_groupoid_homomorphism(ga, gb, f):
        raise ValueError("map is not a groupoid homomorphism")
    return is_rel_homomorphism(sys_a, sys_b, f).holds


def _maps(src, dst, conditions, *, surjective: bool = False,
          injective: bool = False) -> Iterator[ElementMap]:
    """Backtracking search for the maps that meet every condition, in lexicographic
    image order: each condition is checked once the last element it reads has its image."""
    n, m = src.carrier.size, dst.carrier.size
    # the conditions whose last element read is i
    due: list[list[tuple]] = [[] for _ in range(n)]
    for x, y, z, table, _witness, _reason in conditions:
        due[max(x, y, z)].append((x, y, z, table))

    image = [0] * n
    used = [0] * m
    unused = m

    def extend(i: int) -> Iterator[ElementMap]:
        nonlocal unused
        if i == n:
            yield ElementMap(src.carrier, dst.carrier, tuple(image))
            return
        for v in range(m):
            if injective and used[v]:
                continue
            image[i] = v
            unused -= not used[v]
            used[v] += 1
            if not (surjective and unused > n - i - 1):
                for x, y, z, table in due[i]:
                    if table[image[x]][image[y]] != image[z]:
                        break
                else:
                    yield from extend(i + 1)
            used[v] -= 1
            unused += not used[v]

    return extend(0)


def find_homomorphisms(src, dst, *, strong: bool = False, surjective: bool = False,
                       injective: bool = False) -> Iterator[ElementMap]:
    """Backtracking search for homomorphisms, emitted in lexicographic image order.

    Both arguments must be systems or both groupoids.  The conditions are those of
    the map checks, and the modes are checked at the call: ``strong`` with
    groupoids raises ValueError.
    """
    return _maps(src, dst, _conditions(src, dst, strong), surjective=surjective, injective=injective)


def _isomorphism(a, b) -> Optional[ElementMap]:
    """A bijective homomorphism a -> b, strong for systems, that sends bottom to
    bottom and top to top, or None.  The two must have one size and the same
    bounds and involution present, as equal ``canonical_form`` keys say.  Each
    bound is one more condition against a constant table, so it prunes inside
    the search."""
    n = a.carrier.size
    conditions = list(_conditions(a, b, isinstance(a, RelationalSystem)))
    for x, y in ((a.bottom, b.bottom), (a.top, b.top)):
        if x is not None:
            conditions.append((x, x, x, [[y] * n] * n, (x,), "does not keep the bounds"))
    return next(_maps(a, b, conditions, injective=True), None)


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


def induced_image_operation(ga: Groupoid, f: ElementMap, dst_sys: RelationalSystem) -> Groupoid:
    """Push the operation along a strong surjective map with congruence kernel.

    The source system is the induced system of ``ga``: an operation
    assigned to a DRSI induces that same DRSI, so no other source system
    can be meant.  The kernel is a congruence, so the result is read from
    one preimage of each target element.
    """
    src_sys = induce_system(ga)
    _carriers_match(f, src_sys, dst_sys)
    if not f.is_surjective():
        raise HypothesisError("map is not surjective onto the target carrier")
    hom = is_rel_homomorphism(src_sys, dst_sys, f, strong=True)
    if not hom:
        raise HypothesisError(f"map is not a strong homomorphism: {hom.reason} at {hom.witness}")
    cong = is_congruence(ga, kernel(f))
    if not cong:
        raise HypothesisError(f"kernel is not a congruence: witness {cong.witness}")

    rep = {v: x for x, v in enumerate(f.image)}
    m = dst_sys.carrier.size
    table = tuple(tuple(f(ga.table[rep[u]][rep[v]]) for v in range(m)) for u in range(m))
    return Groupoid(dst_sys.carrier, table, dst_sys.bottom, dst_sys.top)


def bounded_top_assignment(sys: RelationalSystem) -> Groupoid:
    """The assignment that sends every free cell to the top element."""
    space = assignment_space(sys)
    bounded = check_bounded(sys)
    if not bounded:
        raise ValueError(f"system is not bounded: {bounded.reason} at {bounded.witness}")
    return assign(space, ChoicePolicy.explicit({cell: sys.top for cell in space.free_pairs}))


def verify_bounded_hom(sys_a: RelationalSystem, sys_b: RelationalSystem,
                       f: ElementMap) -> bool:
    """A strong top-preserving map must carry top-assignments homomorphically."""
    ga = bounded_top_assignment(sys_a)
    gb = bounded_top_assignment(sys_b)
    hom = is_rel_homomorphism(sys_a, sys_b, f, strong=True)
    if not hom:
        raise ValueError(f"map is not a strong homomorphism: {hom.reason} at {hom.witness}")
    if f(sys_a.top) != sys_b.top:
        raise ValueError("map does not preserve the top element")
    return is_groupoid_homomorphism(ga, gb, f).holds
