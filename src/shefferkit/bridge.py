"""Passage between Sheffer groupoids and directed relational systems.

A Sheffer table induces a system via x' = x|x and relating (x, y) exactly
when x'|y' = y.  Conversely a system determines each table entry x|y as y'
whenever (x', y') is related, and otherwise leaves a choice inside the
upper cone U(x', y'); a choice policy resolves the free cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .relcore import (
    BinaryRelation,
    RelationalSystem,
    Verdict,
    _cone_pairs,
    _involution_of,
    _require_drsi,
    bits_of,
    check_involution,
    relation_properties,
)
from .sheffer import Groupoid, derived_involution

__all__ = [
    "ChoicePolicy",
    "AssignmentSpace",
    "induce_system",
    "assignment_space",
    "assign",
    "all_assignments",
    "is_assigned",
    "verify_roundtrip",
    "coincidence_pairs",
    "lattice_sheffer",
]

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ChoicePolicy:
    """How to resolve free cells: least, greatest, seeded random, or explicit.

    The seeded policy advances ``state <- state * 6364136223846793005 +
    1442695040888963407 (mod 2**64)`` once per free cell in row-major order
    and picks candidate ``(state >> 32) % len(candidates)``, so runs are
    bit-reproducible.  Explicit policies fall back to the least candidate
    for cells they do not mention.
    """

    kind: str
    seed: Optional[int] = None
    choices: tuple[tuple[tuple[int, int], int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("min", "max", "rand", "explicit"):
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def least(cls) -> "ChoicePolicy":
        return cls("min")

    @classmethod
    def greatest(cls) -> "ChoicePolicy":
        return cls("max")

    @classmethod
    def seeded(cls, seed: int) -> "ChoicePolicy":
        return cls("rand", seed=seed)

    @classmethod
    def explicit(cls, choices: dict) -> "ChoicePolicy":
        return cls("explicit", choices=tuple(sorted(choices.items())))


@dataclass(frozen=True)
class AssignmentSpace:
    """Per-cell candidate sets for operations assigned to a system.

    ``cells[x][y]`` lists the admissible values for entry x|y in ascending
    order.  Free pairs are the cells with a genuine choice (two or more
    candidates); ``count`` multiplies all candidate sizes.
    """

    system: RelationalSystem
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def free_pairs(self) -> tuple[tuple[int, int], ...]:
        n = self.system.carrier.size
        return tuple((x, y) for x in range(n) for y in range(n) if len(self.cells[x][y]) > 1)

    @property
    def count(self) -> int:
        return math.prod(len(c) for row in self.cells for c in row)


def induce_system(g: Groupoid) -> RelationalSystem:
    """The relational system of a Sheffer groupoid: relate (x,y) iff x'|y' = y."""
    u = derived_involution(g)
    n = g.size
    rows = []
    for x in range(n):
        mask = 0
        for y in range(n):
            if g.table[u(x)][u(y)] == y:
                mask |= 1 << y
        rows.append(mask)
    relation = BinaryRelation(g.carrier, tuple(rows))
    return RelationalSystem(g.carrier, relation, u, g.bottom, g.top)


def assignment_space(sys: RelationalSystem) -> AssignmentSpace:
    """Candidate sets for every table cell of an operation assigned to ``sys``."""
    _require_drsi(sys)
    u = sys.involution
    rel = sys.relation
    n = sys.carrier.size
    cells = []
    for x in range(n):
        row = []
        for y in range(n):
            if rel.has(u(x), u(y)):
                row.append((u(y),))
            else:
                row.append(tuple(bits_of(rel.upper_mask(u(x), u(y)))))
        cells.append(tuple(row))
    return AssignmentSpace(sys, tuple(cells))


def assign(source: Union[RelationalSystem, AssignmentSpace],
           policy: Optional[ChoicePolicy] = None) -> Groupoid:
    """Build one operation assigned to a system under the given choice policy."""
    if policy is None:
        policy = ChoicePolicy.least()
    space = source if isinstance(source, AssignmentSpace) else assignment_space(source)
    sys = space.system
    explicit = dict(policy.choices)
    for (x, y), v in explicit.items():
        if not (0 <= x < sys.carrier.size and 0 <= y < sys.carrier.size):
            raise ValueError(f"explicit choice refers to cell ({x},{y}) outside the carrier")
        if v not in space.cells[x][y]:
            raise ValueError(f"explicit choice {v} for cell ({x},{y}) is outside the candidate cone")
    state = (policy.seed or 0) & _MASK64
    n = sys.carrier.size
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            cands = space.cells[x][y]
            if len(cands) == 1 or policy.kind == "min":
                row.append(cands[0])
            elif policy.kind == "max":
                row.append(cands[-1])
            elif policy.kind == "rand":
                state = (state * _LCG_MULT + _LCG_INC) & _MASK64
                row.append(cands[(state >> 32) % len(cands)])
            else:
                row.append(explicit.get((x, y), cands[0]))
        table.append(tuple(row))
    return Groupoid(sys.carrier, tuple(table), sys.bottom, sys.top)


def all_assignments(source: Union[RelationalSystem, AssignmentSpace]) -> Iterator[Groupoid]:
    """Every assigned operation, in lexicographic table order."""
    space = source if isinstance(source, AssignmentSpace) else assignment_space(source)
    sys = space.system
    n = sys.carrier.size
    flat = [space.cells[x][y] for x in range(n) for y in range(n)]
    for combo in itertools.product(*flat):
        table = tuple(tuple(combo[x * n + y] for y in range(n)) for x in range(n))
        yield Groupoid(sys.carrier, table, sys.bottom, sys.top)


def is_assigned(sys: RelationalSystem, g: Groupoid) -> Verdict:
    """Does ``g`` arise from ``sys`` by assignment?

    Checks that relatedness of (x,y) coincides with x'|y' = y, that every
    entry lies in its upper cone U(x', y'), and cross-checks the primed
    entry against the lower cone L(x, y).
    """
    if sys.carrier != g.carrier:
        raise ValueError("carrier mismatch between system and groupoid")
    u = _involution_of(sys)
    rel = sys.relation
    n = sys.carrier.size
    t = g.table
    for x in range(n):
        for y in range(n):
            if rel.has(x, y) != (t[u(x)][u(y)] == y):
                return Verdict(False, (x, y), "relatedness disagrees with x'|y' = y")
    for x in range(n):
        for y in range(n):
            v = t[x][y]
            if not (rel.has(u(x), v) and rel.has(u(y), v)):
                return Verdict(False, (x, y), "entry outside U(x', y')")
    for x in range(n):
        for y in range(n):
            w = t[t[x][y]][t[x][y]]
            if not (rel.has(w, x) and rel.has(w, y)):
                return Verdict(False, (x, y), "primed entry outside L(x, y)")
    return Verdict(True)


def verify_roundtrip(sys: RelationalSystem, policy: Optional[ChoicePolicy] = None) -> bool:
    """Assign an operation, induce its system back, compare literally."""
    return induce_system(assign(sys, policy)) == sys


def coincidence_pairs(g: Groupoid) -> frozenset[tuple[int, int]]:
    """Pairs (x, y) with x|y = y|y; there every operation assigned to the
    induced system agrees with g."""
    u = derived_involution(g)
    n = g.size
    return frozenset((x, y) for x in range(n) for y in range(n) if g.table[x][y] == u(y))


def _least_upper_bounds(rel: BinaryRelation, names: tuple[str, ...], bound: str) -> list[list[int]]:
    """The least upper bound of every pair; on the transposed order these
    are the greatest lower bounds, and ``bound`` names which in the error."""
    out = [[0] * len(names) for _ in names]
    for a, b, mask, _ in _cone_pairs(rel):
        found = [u for u in bits_of(mask) if rel.rows[u] & mask == mask]
        if len(found) != 1:
            raise ValueError(f"no unique {bound} for pair ({names[a]}, {names[b]})")
        out[a][b] = out[b][a] = found[0]
    return out


def lattice_sheffer(order: RelationalSystem, mode: str) -> Groupoid:
    """x|y = x' join y' (mode "join") or x' meet y' (mode "meet") in a lattice
    order carrying an antitone involution."""
    if mode not in ("join", "meet"):
        raise ValueError(f"mode must be 'join' or 'meet', got {mode!r}")
    u = _involution_of(order)
    props = relation_properties(order.relation)
    for label in ("reflexive", "antisymmetric", "transitive"):
        if not getattr(props, label):
            raise ValueError(f"relation is not a partial order: {label} fails "
                             f"at {props.witnesses[label]}")
    inv_check = check_involution(order, u)
    if not inv_check:
        raise ValueError(f"involution check fails: {inv_check.reason} at {inv_check.witness}")
    rel, bound = order.relation, "least upper bound"
    if mode == "meet":
        rel, bound = rel.transpose(), "greatest lower bound"
    bounds = _least_upper_bounds(rel, order.carrier.names, bound)
    n = order.carrier.size
    table = tuple(tuple(bounds[u(x)][u(y)] for y in range(n)) for x in range(n))
    return Groupoid(order.carrier, table, order.bottom, order.top)
