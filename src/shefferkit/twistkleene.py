"""Twist-products on squared carriers and Kleene-style subsystems.

The twist-product of a system (A, R) lives on A x A, relates (x, y) to
(z, v) exactly when (x, z) and (v, y) are related, and swaps coordinates
as its involution.  For a distinguished base point a, the pairs whose
lower cone sits below a and whose upper cone sits above a form a
subsystem that inherits a Kleene-style cone condition whenever R is
reflexive, directed, and transitive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .relcore import (
    BinaryRelation,
    Carrier,
    DrsiReport,
    ElementMap,
    RelationalSystem,
    Verdict,
    _check_index,
    _cone_pairs,
    _first_witness,
    _involution_of,
    bits_of,
    is_directed,
    validate_drsi,
)
from .morphisms import _first_failure
from .sheffer import Groupoid, derived_involution

__all__ = [
    "PairIndexing",
    "KleeneReport",
    "twist_product",
    "twist_sheffer",
    "embed_base",
    "is_kleene",
    "p_a_subset",
    "kleene_subsystem",
]


@dataclass(frozen=True)
class PairIndexing:
    """Row-major flattening of ordered pairs over a base carrier."""

    base: Carrier

    def flat(self, x: int, y: int) -> int:
        _check_index(self.base, x, y)
        return x * self.base.size + y

    def name(self, x: int, y: int) -> str:
        return f"({self.base.names[x]},{self.base.names[y]})"

    def pair_carrier(self) -> Carrier:
        n = self.base.size
        first: dict[str, int] = {}
        for k, name in enumerate(self.name(x, y) for x in range(n) for y in range(n)):
            if first.setdefault(name, k) != k:
                raise ValueError(f"pair name {name} names two pairs")
        return Carrier(tuple(first))


def twist_product(sys: RelationalSystem) -> RelationalSystem:
    """The coordinate-swap system on A x A built from the base relation only."""
    n = sys.carrier.size
    idx = PairIndexing(sys.carrier)
    carrier = idx.pair_carrier()
    rel = sys.relation
    cols = [rel.column(j) for j in range(n)]
    rows = []
    for x in range(n):
        for y in range(n):
            mask = 0
            for z in bits_of(rel.rows[x]):
                mask |= cols[y] << (z * n)
            rows.append(mask)
    swap = tuple(y * n + x for x in range(n) for y in range(n))
    return RelationalSystem(carrier, BinaryRelation(carrier, tuple(rows)),
                            ElementMap(carrier, carrier, swap))


def twist_sheffer(g: Groupoid) -> Groupoid:
    """Sheffer operation on pairs: (x,y)|(z,v) = (y'|v', (x|z)')."""
    u = derived_involution(g)
    n = g.size
    idx = PairIndexing(g.carrier)
    t = g.table
    table = []
    for x in range(n):
        for y in range(n):
            row = []
            for z in range(n):
                for v in range(n):
                    left = t[u(y)][u(v)]
                    right = u(t[x][z])
                    row.append(left * n + right)
            table.append(tuple(row))
    return Groupoid(idx.pair_carrier(), tuple(table))


def _strong_embedding(src: RelationalSystem, dst: RelationalSystem,
                      f: ElementMap) -> Verdict:
    """Injective strong homomorphism of the relations alone."""
    return _first_failure(replace(src, involution=None), replace(dst, involution=None), f,
                          strong=True, injective=True)


def embed_base(sys: RelationalSystem, a: int) -> tuple[ElementMap, Verdict]:
    """x -> (x, a) into the twist-product; base point must carry a loop.

    Only the relation is compared, so the verdict is about a strong
    embedding of plain systems.
    """
    _check_index(sys.carrier, a)
    if not sys.relation.has(a, a):
        raise ValueError("base point must be related to itself")
    twist = twist_product(sys)
    n = sys.carrier.size
    image = tuple(x * n + a for x in range(n))
    f = ElementMap(sys.carrier, twist.carrier, image)
    return f, _strong_embedding(sys, twist, f)


def _cone_check(sys: RelationalSystem, members, reason: str) -> Verdict:
    """Fails at the first (x, y, z, w) over members x, y with z in
    L(x, x'), w in U(y, y') and (z, w) unrelated."""
    rows = sys.relation.rows
    u = sys.involution
    uppers = [sys.relation.upper_mask(y, u(y)) for y in members]
    for x in members:
        lower = sys.relation.lower_mask(x, u(x))
        # the elements above every z in L(x, x'): each U(y, y') must lie inside
        common = (1 << sys.carrier.size) - 1
        for z in bits_of(lower):
            common &= rows[z]
        for y, upper in zip(members, uppers):
            if upper & ~common:
                zs = tuple(bits_of(lower))
                i, w = _first_witness(upper & ~rows[z] for z in zs)
                return Verdict(False, (x, y, zs[i], w), reason)
    return Verdict(True)


def is_kleene(sys: RelationalSystem) -> Verdict:
    """Every L(x, x') must relate wholesale to every U(y, y').

    Witness layout on failure: (x, y, z, w) with z in L(x,x'), w in
    U(y,y') and (z, w) unrelated.
    """
    _involution_of(sys)
    return _cone_check(sys, range(sys.carrier.size), "L(x, x') not wholly below U(y, y')")


def p_a_subset(sys: RelationalSystem, a: int) -> frozenset[int]:
    """Flat indices of pairs whose lower cone lies below a and upper cone above a."""
    _check_index(sys.carrier, a)
    rel = sys.relation
    n = sys.carrier.size
    below_a = rel.column(a)
    above_a = rel.rows[a]
    members = set()
    for x, y, upper, lower in _cone_pairs(rel):
        if lower & ~below_a == 0 and upper & ~above_a == 0:
            members.update((x * n + y, y * n + x))
    return frozenset(members)


@dataclass(frozen=True)
class KleeneReport:
    """Subsystem verdicts; the cone condition is evaluated intrinsically and,
    separately, with cones taken in the ambient twist-product."""

    members: tuple[int, ...]
    drsi: DrsiReport
    kleene: Verdict
    kleene_ambient: Verdict
    embedding: Verdict

    @property
    def passed(self) -> bool:
        return self.drsi.passed and self.kleene.holds and self.embedding.holds


def kleene_subsystem(sys: RelationalSystem, a: int) -> tuple[RelationalSystem, KleeneReport]:
    """Restrict the twist-product to the admissible pairs for base point a.

    The system must be directed; the full guarantees additionally need a
    reflexive transitive relation, and the report records what actually
    holds.
    """
    directed = is_directed(sys)
    if not directed:
        raise ValueError(f"system is not directed: {directed.reason} at {directed.witness}")
    twist = twist_product(sys)
    members = tuple(sorted(p_a_subset(sys, a)))
    # the cones p_a_subset tests are symmetric in x and y, so the swap keeps the members
    position = {p: i for i, p in enumerate(members)}
    star = twist.involution

    carrier = Carrier(tuple(twist.carrier.names[p] for p in members))
    rows = []
    for p in members:
        mask = 0
        for i, q in enumerate(members):
            if twist.relation.has(p, q):
                mask |= 1 << i
        rows.append(mask)
    involution = ElementMap(carrier, carrier, tuple(position[star(p)] for p in members))
    sub = RelationalSystem(carrier, BinaryRelation(carrier, tuple(rows)), involution)

    n = sys.carrier.size
    embed_image = tuple(position[x * n + a] for x in range(n))
    report = KleeneReport(
        members=members,
        drsi=validate_drsi(sub),
        kleene=is_kleene(sub),
        kleene_ambient=_cone_check(twist, members, "ambient cones violate the condition"),
        embedding=_strong_embedding(sys, sub, ElementMap(sys.carrier, carrier, embed_image)),
    )
    return sub, report
