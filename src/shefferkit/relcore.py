"""Finite carriers, binary relations, cones, and relational-system checks.

Relations are stored as bit rows, one Python int per row, so a cone is a
single AND of two rows, whatever the carrier size.
All values are frozen; every operation returns a new object.
"""

from __future__ import annotations

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
            if not name or any(ch.isspace() for ch in name) or "#" in name:
                raise ValueError(f"bad element name {name!r}")
        if len(set(self.names)) != n:
            raise ValueError("element names must be pairwise distinct")

    @classmethod
    def of_size(cls, n: int) -> "Carrier":
        return cls(tuple(f"e{i}" for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown element name {name!r}") from None


def _check_index(carrier: Carrier, *indices: int) -> None:
    """Raise IndexError naming the first of ``indices`` outside the carrier."""
    n = len(carrier.names)
    for i in indices:
        if not 0 <= i < n:
            raise IndexError(f"element index {i} out of range for carrier of size {n}")


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
            _check_index(carrier, i, j)
            rows[i] |= 1 << j
        return cls(carrier, tuple(rows))

    @classmethod
    def from_matrix(cls, carrier: Carrier, matrix: Iterable[Iterable[int]]) -> "BinaryRelation":
        n = carrier.size
        rows = []
        for i, row in enumerate(map(tuple, matrix)):
            if len(row) != n:
                raise ValueError(f"matrix row {i} has {len(row)} cells, expected {n}")
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
        _check_index(self.codomain, *self.image)

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
    _check_index(sys.carrier, a, b)
    return frozenset(bits_of(sys.relation.upper_mask(a, b)))


def lower_cone(sys: RelationalSystem, a: int, b: int) -> frozenset[int]:
    """Elements below both a and b: every x with (x,a) and (x,b) related."""
    _check_index(sys.carrier, a, b)
    return frozenset(bits_of(sys.relation.lower_mask(a, b)))


def _first_witness(masks: Iterable[int]) -> Optional[tuple[int, int]]:
    """The first row with a nonzero mask (one mask per row), and that mask's lowest set bit."""
    for row, mask in enumerate(masks):
        if mask:
            return row, (mask & -mask).bit_length() - 1
    return None


def relation_properties(rel: BinaryRelation) -> PropertyReport:
    """Scan all tuples for the four order-flavoured properties.

    Each false flag carries the lexicographically least violating tuple.
    """
    rows, cols = rel.rows, rel._columns
    loop = _first_witness(~row & 1 << x for x, row in enumerate(rows))
    # x R y without y R x: y in row x, outside column x
    unmatched = _first_witness(row & ~col for row, col in zip(rows, cols))
    mutual = _first_witness(row & col & ~(1 << x) for x, (row, col) in enumerate(zip(rows, cols)))
    # transitivity stays a plain loop over pairs: a generator per row measured slower
    detour = None
    for x, row in enumerate(rows):
        for y in bits_of(row):
            gap = rows[y] & ~row
            if gap:
                detour = (x, y, _first_witness((gap,))[1])
                break
        if detour:
            break
    found = {"reflexive": loop and loop[:1], "symmetric": unmatched,
             "antisymmetric": mutual, "transitive": detour}
    witnesses = {label: witness for label, witness in found.items() if witness}
    return PropertyReport(not loop, not unmatched, not mutual, not detour, witnesses)


def _cone_pairs(rel: BinaryRelation) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, U(a, b), L(a, b)) as masks for each a <= b, in row-major order.
    Both cones are symmetric in a and b, so a cone condition that first fails
    in row-major order over all pairs first fails at some a <= b."""
    rows, cols = rel.rows, rel._columns
    for a, (row, col) in enumerate(zip(rows, cols)):
        for b in range(a, len(rows)):
            yield a, b, row & rows[b], col & cols[b]


def is_directed(sys: RelationalSystem) -> Verdict:
    """Every pair needs a common upper and a common lower bound.

    For systems with an antitone involution one cone condition implies the
    other; both are still scanned here rather than optimized away.
    """
    for a, b, upper, lower in _cone_pairs(sys.relation):
        if not upper or not lower:
            return Verdict(False, (a, b), "lower cone empty" if upper else "upper cone empty")
    return Verdict(True)


def _antitone_gap(rel: BinaryRelation, image: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first related (x, y) with u(y), u(x) unrelated, for a period-two u; or None."""
    rows, cols = rel.rows, rel._columns
    # y must lie in the u-image of column u(x); a plain loop, as a generator measured slower
    for x, ux in enumerate(image):
        bad = rows[x] & ~_image_mask(image, cols[ux])
        if bad:
            return x, (bad & -bad).bit_length() - 1
    return None


def check_involution(sys: RelationalSystem, u: ElementMap) -> Verdict:
    """u must have period two and reverse the relation."""
    if u.domain != sys.carrier or u.codomain != sys.carrier:
        raise ValueError("map is not a self-map of the system carrier")
    image = u.image
    for x, y in enumerate(image):
        if image[y] != x:
            return Verdict(False, (x,), "not of period two")
    gap = _antitone_gap(sys.relation, image)
    return Verdict(False, gap, "not antitone") if gap else Verdict(True)


def _image_mask(image: tuple[int, ...], mask: int) -> int:
    out = 0
    for x in bits_of(mask):
        out |= 1 << image[x]
    return out


def _involution_of(sys: RelationalSystem) -> ElementMap:
    """The involution guard: the system's involution, or ValueError."""
    if sys.involution is None:
        raise ValueError("system has no involution")
    return sys.involution


def _defining_verdicts(sys: RelationalSystem) -> tuple[Verdict, Verdict, Verdict]:
    """The reflexive, directed and involution verdicts of a DRSI."""
    u = _involution_of(sys)
    loop = _first_witness(~row & 1 << x for x, row in enumerate(sys.relation.rows))
    reflexive = Verdict(False, loop[:1], "missing loop") if loop else Verdict(True)
    return reflexive, is_directed(sys), check_involution(sys, u)


def _cone_duality(sys: RelationalSystem) -> Verdict:
    """Every lower cone L(a, b) is the involution image of U(a', b')."""
    rel = sys.relation
    image = sys.involution.image
    for a, b, _, lower in _cone_pairs(rel):
        if lower != _image_mask(image, rel.upper_mask(image[a], image[b])):
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
    rows = sys.relation.rows
    above = _first_witness(((1 << sys.carrier.size) - 1 & ~rows[sys.bottom],))
    if above:
        return Verdict(False, (sys.bottom, above[1]), "bottom not below element")
    below = _first_witness(~row & 1 << sys.top for row in rows)
    if below:
        return Verdict(False, below, "element not below top")
    return Verdict(True)


def check_complemented(sys: RelationalSystem) -> Verdict:
    """Bounded, bottom' = top, and U(x, x') = {top} for every x.

    The consequence L(x, x') = {bottom} is recomputed as a cross-check.
    """
    u = _involution_of(sys)
    bounded = check_bounded(sys)
    if not bounded:
        return Verdict(False, bounded.witness, "not bounded: " + bounded.reason)
    if u(sys.bottom) != sys.top:
        return Verdict(False, (sys.bottom,), "bottom' is not top")
    rel, elements = sys.relation, range(sys.carrier.size)
    # a nonzero mask marks a cone that differs from the bound
    upper = _first_witness(rel.upper_mask(x, u(x)) ^ 1 << sys.top for x in elements)
    if upper:
        return Verdict(False, upper[:1], "U(x, x') differs from {top}")
    lower = _first_witness(rel.lower_mask(x, u(x)) ^ 1 << sys.bottom for x in elements)
    if lower:
        return Verdict(False, lower[:1], "L(x, x') differs from {bottom}")
    return Verdict(True)


def set_related(rel: BinaryRelation, left: Iterable[int], right: Iterable[int]) -> bool:
    """Whole-set relatedness: every element of left relates to every element of right.

    Vacuously true when either side is empty. Every index of right, then
    of left, is checked before any row is read.
    """
    left, right = tuple(left), tuple(right)
    _check_index(rel.carrier, *right, *left)
    right_mask = 0
    for c in right:
        right_mask |= 1 << c
    return all(rel.rows[b] & right_mask == right_mask for b in left)
