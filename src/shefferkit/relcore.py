"""Finite carriers, binary relations, cones, and relational-system checks.

Relations are stored as bit rows, one Python int per row, so a cone is a
single AND of two rows, whatever the carrier size.
All values are frozen; every operation returns a new object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

__all__ = [
    "bits_of",
    "Carrier",
    "BinaryRelation",
    "ElementMap",
    "RelationalSystem",
    "Verdict",
    "PropertyReport",
    "DrsiReport",
    "upper_cone",
    "lower_cone",
    "relation_properties",
    "is_directed",
    "check_involution",
    "validate_drsi",
    "check_bounded",
    "check_complemented",
    "set_related",
]


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Carrier:
    """A finite set of distinctly named elements addressed by index 0..n-1."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        n = len(self.names)
        if n < 1:
            raise ValueError(f"carrier size must be at least 1, got {n}")
        for name in self.names:
            if not name or any(ch.isspace() for ch in name) or name.startswith("#"):
                raise ValueError(f"bad element name {name!r}")
        if len(set(self.names)) != n:
            raise ValueError("element names must be pairwise distinct")

    @classmethod
    def of_size(cls, n: int) -> "Carrier":
        return cls(tuple(f"e{i}" for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown element name {name!r}") from None


def _check_index(carrier: Carrier, i: int) -> None:
    if not 0 <= i < carrier.size:
        raise IndexError(f"element index {i} out of range for carrier of size {carrier.size}")


@dataclass(frozen=True)
class BinaryRelation:
    """Relation on a carrier; bit j of rows[i] is set iff (i, j) is related."""

    carrier: Carrier
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.carrier.size
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside the carrier")

    @classmethod
    def from_pairs(cls, carrier: Carrier, pairs: Iterable[tuple[int, int]]) -> "BinaryRelation":
        rows = [0] * carrier.size
        for i, j in pairs:
            _check_index(carrier, i)
            _check_index(carrier, j)
            rows[i] |= 1 << j
        return cls(carrier, tuple(rows))

    @classmethod
    def from_matrix(cls, carrier: Carrier, matrix: Iterable[Iterable[int]]) -> "BinaryRelation":
        rows = []
        for row in matrix:
            mask = 0
            for j, cell in enumerate(row):
                if cell not in (0, 1):
                    raise ValueError(f"matrix cells must be 0 or 1, got {cell!r}")
                mask |= cell << j
            rows.append(mask)
        return cls(carrier, tuple(rows))

    @classmethod
    def full(cls, carrier: Carrier) -> "BinaryRelation":
        mask = (1 << carrier.size) - 1
        return cls(carrier, (mask,) * carrier.size)

    @classmethod
    def diagonal(cls, carrier: Carrier) -> "BinaryRelation":
        return cls(carrier, tuple(1 << i for i in range(carrier.size)))

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        n = self.carrier.size
        cols = [0] * n
        for i, row in enumerate(self.rows):
            for j in bits_of(row):
                cols[j] |= 1 << i
        return tuple(cols)

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def column(self, j: int) -> int:
        return self._columns[j]

    def transpose(self) -> "BinaryRelation":
        return BinaryRelation(self.carrier, self._columns)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in bits_of(row):
                yield (i, j)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.carrier.size
        return tuple(tuple(row >> j & 1 for j in range(n)) for row in self.rows)

    def upper_mask(self, a: int, b: int) -> int:
        return self.rows[a] & self.rows[b]

    def lower_mask(self, a: int, b: int) -> int:
        return self._columns[a] & self._columns[b]


@dataclass(frozen=True)
class ElementMap:
    """A total map between carriers, stored as the tuple of images."""

    domain: Carrier
    codomain: Carrier
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) != self.domain.size:
            raise ValueError("image tuple does not cover the domain")
        for v in self.image:
            _check_index(self.codomain, v)

    @classmethod
    def identity(cls, carrier: Carrier) -> "ElementMap":
        return cls(carrier, carrier, tuple(range(carrier.size)))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.codomain.size

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.domain.size


@dataclass(frozen=True)
class RelationalSystem:
    """A carrier with one binary relation, optionally an involution and bounds."""

    carrier: Carrier
    relation: BinaryRelation
    involution: Optional[ElementMap] = None
    bottom: Optional[int] = None
    top: Optional[int] = None

    def __post_init__(self) -> None:
        if self.relation.carrier != self.carrier:
            raise ValueError("relation carrier differs from system carrier")
        if self.involution is not None:
            if self.involution.domain != self.carrier or self.involution.codomain != self.carrier:
                raise ValueError("involution must be a self-map of the system carrier")
        for bound in (self.bottom, self.top):
            if bound is not None:
                _check_index(self.carrier, bound)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single check; ``witness`` is index-based, lexicographically least."""

    holds: bool
    witness: Optional[tuple] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class PropertyReport:
    """Reflexivity/symmetry/antisymmetry/transitivity flags with counterexamples."""

    reflexive: bool
    symmetric: bool
    antisymmetric: bool
    transitive: bool
    witnesses: dict

    def __iter__(self):
        yield from (self.reflexive, self.symmetric, self.antisymmetric, self.transitive)


@dataclass(frozen=True)
class DrsiReport:
    """Verdicts for the three defining conditions plus the cone-duality cross-check."""

    reflexive: Verdict
    directed: Verdict
    involution: Verdict
    cone_duality: Verdict

    @property
    def passed(self) -> bool:
        return self.reflexive.holds and self.directed.holds and self.involution.holds

    def __bool__(self) -> bool:
        return self.passed


def upper_cone(sys: RelationalSystem, a: int, b: int) -> frozenset[int]:
    """Elements above both a and b: every x with (a,x) and (b,x) related."""
    _check_index(sys.carrier, a)
    _check_index(sys.carrier, b)
    return frozenset(bits_of(sys.relation.upper_mask(a, b)))


def lower_cone(sys: RelationalSystem, a: int, b: int) -> frozenset[int]:
    """Elements below both a and b: every x with (x,a) and (x,b) related."""
    _check_index(sys.carrier, a)
    _check_index(sys.carrier, b)
    return frozenset(bits_of(sys.relation.lower_mask(a, b)))


def relation_properties(rel: BinaryRelation) -> PropertyReport:
    """Scan all tuples for the four order-flavoured properties.

    Each false flag carries the lexicographically least violating tuple.
    """
    n = rel.carrier.size
    witnesses: dict = {}

    reflexive = True
    for x in range(n):
        if not rel.has(x, x):
            reflexive = False
            witnesses["reflexive"] = (x,)
            break

    symmetric = True
    for x in range(n):
        if not symmetric:
            break
        for y in bits_of(rel.rows[x]):
            if not rel.has(y, x):
                symmetric = False
                witnesses["symmetric"] = (x, y)
                break

    antisymmetric = True
    for x in range(n):
        if not antisymmetric:
            break
        for y in bits_of(rel.rows[x]):
            if x != y and rel.has(y, x):
                antisymmetric = False
                witnesses["antisymmetric"] = (x, y)
                break

    transitive = True
    for x in range(n):
        if not transitive:
            break
        for y in bits_of(rel.rows[x]):
            gap = rel.rows[y] & ~rel.rows[x]
            if gap:
                z = (gap & -gap).bit_length() - 1
                transitive = False
                witnesses["transitive"] = (x, y, z)
                break

    return PropertyReport(reflexive, symmetric, antisymmetric, transitive, witnesses)


def is_directed(sys: RelationalSystem) -> Verdict:
    """Every pair needs a common upper and a common lower bound.

    For systems with an antitone involution one cone condition implies the
    other; both are still scanned here rather than optimized away.  Cones
    are symmetric in their arguments, so the first failing pair in
    row-major order has a <= b and only those pairs are scanned.
    """
    rows, cols = sys.relation.rows, sys.relation._columns
    n = sys.carrier.size
    for a in range(n):
        for b in range(a, n):
            if not rows[a] & rows[b]:
                return Verdict(False, (a, b), "upper cone empty")
            if not cols[a] & cols[b]:
                return Verdict(False, (a, b), "lower cone empty")
    return Verdict(True)


def check_involution(sys: RelationalSystem, u: ElementMap) -> Verdict:
    """u must have period two and reverse the relation."""
    if u.domain != sys.carrier or u.codomain != sys.carrier:
        raise ValueError("map is not a self-map of the system carrier")
    image = u.image
    for x, y in enumerate(image):
        if image[y] != x:
            return Verdict(False, (x,), "not of period two")
    # x R y needs u(y) R u(x): y must lie in the u-image of column u(x)
    rows, cols = sys.relation.rows, sys.relation._columns
    for x, ux in enumerate(image):
        bad = rows[x] & ~_image_mask(image, cols[ux])
        if bad:
            return Verdict(False, (x, (bad & -bad).bit_length() - 1), "not antitone")
    return Verdict(True)


def _image_mask(image: tuple[int, ...], mask: int) -> int:
    out = 0
    for x in bits_of(mask):
        out |= 1 << image[x]
    return out


def _defining_verdicts(sys: RelationalSystem) -> tuple[Verdict, Verdict, Verdict]:
    """The reflexive, directed and involution verdicts of a DRSI."""
    if sys.involution is None:
        raise ValueError("system has no involution")
    reflexive = Verdict(True)
    for x in range(sys.carrier.size):
        if not sys.relation.has(x, x):
            reflexive = Verdict(False, (x,), "missing loop")
            break
    return reflexive, is_directed(sys), check_involution(sys, sys.involution)


def _cone_duality(sys: RelationalSystem) -> Verdict:
    """Every lower cone L(a, b) is the involution image of U(a', b')."""
    rel = sys.relation
    image = sys.involution.image
    for a in range(sys.carrier.size):
        for b in range(sys.carrier.size):
            if rel.lower_mask(a, b) != _image_mask(image, rel.upper_mask(image[a], image[b])):
                return Verdict(False, (a, b), "lower cone is not the primed upper cone")
    return Verdict(True)


def validate_drsi(sys: RelationalSystem) -> DrsiReport:
    """Check reflexivity, directedness, and the involution conditions.

    Also cross-checks that every lower cone is the involution image of the
    matching upper cone of primed arguments; that fact follows from the
    three conditions and is recorded as an audit verdict.
    """
    reflexive, directed, involution = _defining_verdicts(sys)
    return DrsiReport(reflexive, directed, involution, _cone_duality(sys))


def _require_drsi(sys: RelationalSystem) -> None:
    """The DRSI guard of every construction that needs a DRSI: raises
    ValueError naming the first failing defining condition."""
    for label, verdict in zip(("reflexive", "directed", "involution"), _defining_verdicts(sys)):
        if not verdict.holds:
            raise ValueError(f"system is not a valid input: {label} check fails ({verdict.reason})")


def check_bounded(sys: RelationalSystem) -> Verdict:
    """Designated bottom below everything, designated top above everything."""
    if sys.bottom is None or sys.top is None:
        raise ValueError("system has no designated bounds")
    rel = sys.relation
    for x in range(sys.carrier.size):
        if not rel.has(sys.bottom, x):
            return Verdict(False, (sys.bottom, x), "bottom not below element")
    for x in range(sys.carrier.size):
        if not rel.has(x, sys.top):
            return Verdict(False, (x, sys.top), "element not below top")
    return Verdict(True)


def check_complemented(sys: RelationalSystem) -> Verdict:
    """Bounded, bottom' = top, and U(x, x') = {top} for every x.

    The consequence L(x, x') = {bottom} is recomputed as a cross-check.
    """
    if sys.involution is None:
        raise ValueError("system has no involution")
    bounded = check_bounded(sys)
    if not bounded:
        return Verdict(False, bounded.witness, "not bounded: " + bounded.reason)
    u = sys.involution
    if u(sys.bottom) != sys.top:
        return Verdict(False, (sys.bottom,), "bottom' is not top")
    rel = sys.relation
    top_mask = 1 << sys.top
    bottom_mask = 1 << sys.bottom
    for x in range(sys.carrier.size):
        if rel.upper_mask(x, u(x)) != top_mask:
            return Verdict(False, (x,), "U(x, x') differs from {top}")
    for x in range(sys.carrier.size):
        if rel.lower_mask(x, u(x)) != bottom_mask:
            return Verdict(False, (x,), "L(x, x') differs from {bottom}")
    return Verdict(True)


def set_related(rel: BinaryRelation, left: Iterable[int], right: Iterable[int]) -> bool:
    """Whole-set relatedness: every element of left relates to every element of right.

    Vacuously true when either side is empty.
    """
    right_mask = 0
    for c in right:
        _check_index(rel.carrier, c)
        right_mask |= 1 << c
    for b in left:
        _check_index(rel.carrier, b)
        if rel.rows[b] & right_mask != right_mask:
            return False
    return True
