"""Sheffer groupoids: operation tables, the named law catalog, axiom checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .relcore import Carrier, ElementMap, Verdict, _check_index
from .terms import Law, LawVerdict, check_law, parse_law

__all__ = [
    "Groupoid",
    "CATALOG",
    "get_law",
    "is_sheffer",
    "derived_involution",
    "check_named",
    "majority_term_value",
    "majority_check",
    "antisymmetry_quasi_check",
]


@dataclass(frozen=True)
class Groupoid:
    """One binary operation on a finite carrier, as a full table of indices."""

    carrier: Carrier
    table: tuple[tuple[int, ...], ...]
    bottom: Optional[int] = None
    top: Optional[int] = None

    def __post_init__(self) -> None:
        # rows are tuples, so equal tables compare and hash equal and the
        # law checker can compare its vectors with rows
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))
        n = self.carrier.size
        if len(self.table) != n:
            raise ValueError(f"expected {n} table rows, got {len(self.table)}")
        for row in self.table:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                _check_index(self.carrier, v)
        for bound in (self.bottom, self.top):
            if bound is not None:
                _check_index(self.carrier, bound)

    @classmethod
    def _unchecked(cls, carrier: Carrier, table: tuple[tuple[int, ...], ...],
                   bottom: Optional[int] = None, top: Optional[int] = None) -> "Groupoid":
        """A groupoid built without the checks of ``__post_init__``, for
        callers whose table and bounds lie in the carrier by construction."""
        g = object.__new__(cls)
        fields = (("carrier", carrier), ("table", table), ("bottom", bottom), ("top", top))
        for name, value in fields:
            object.__setattr__(g, name, value)
        return g

    @property
    def size(self) -> int:
        return self.carrier.size

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]


# Catalog of named laws.  AX1/AX2 are the two defining axioms; the rest
# characterize relation properties of the induced system or congruence
# distributivity, and the BOUND/COMPL entries need designated bounds.
CATALOG: dict[str, str] = {
    "AX1": "(x|y)|(x|x) = x",
    "AX2": "(x|y)|(y|y) = y",
    "COMM": "x|y = y|x",
    "SYM7": "((x|y)|(x|y))|x = x|x",
    "TRANS8": "x|((x|y)'|z)' = (x|y)'|z",
    "CD3": "(x|y)|(x|x) = (x|x)|(x|y)",
    "CD9": "(x|y)|(y|y) = (y|y)|(x|y)",
    "ANTISYM": "x|y = y|y & y|x = x|x => x = y",
    "BOUND0": "(0|0)|x = x|x",
    "BOUND1": "x|(1|1) = 1",
    "COMPL": "x|(y|y) = y & (x|x)|(y|y) = y => y = 1",
}

@lru_cache(maxsize=None)
def get_law(key: str) -> Law:
    try:
        text = CATALOG[key]
    except KeyError:
        raise KeyError(f"unknown law key {key!r}") from None
    return parse_law(text)


def is_sheffer(g: Groupoid) -> LawVerdict:
    """Check both defining axioms; a failing verdict names the violated one."""
    checked = 0
    for key in ("AX1", "AX2"):
        verdict = check_law(g, get_law(key))
        checked += verdict.checked
        if not verdict.holds:
            return LawVerdict(False, verdict.counterexample, verdict.lhs_value,
                              verdict.rhs_value, checked, key)
    return LawVerdict(True, None, None, None, checked, "sheffer")


def derived_involution(g: Groupoid) -> ElementMap:
    """The map x -> x|x; the first axiom makes it have period two.

    This is the Sheffer guard of every construction that needs the axioms:
    a table failing one raises ValueError naming the axiom and its
    counterexample.
    """
    verdict = is_sheffer(g)
    if not verdict:
        raise ValueError(f"not a Sheffer groupoid: {verdict.name} fails at {verdict.counterexample}")
    return ElementMap(g.carrier, g.carrier, tuple(g.table[x][x] for x in range(g.size)))


def check_named(g: Groupoid, key: str) -> LawVerdict:
    """Check a catalog law by key."""
    law = get_law(key)
    if law.constants and (g.bottom is None or g.top is None):
        raise ValueError(f"law {key} needs a groupoid with designated bounds")
    verdict = check_law(g, law)
    return LawVerdict(verdict.holds, verdict.counterexample, verdict.lhs_value,
                      verdict.rhs_value, verdict.checked, key)


def majority_term_value(g: Groupoid, x: int, y: int, z: int) -> int:
    """m(x,y,z) = ((x|y)|(x|z))' | (y|z)."""
    t = g.table
    head = t[t[x][y]][t[x][z]]
    return t[t[head][head]][t[y][z]]


def majority_check(g: Groupoid) -> Verdict:
    """Verify the three majority identities of m over every triple.

    Witness layout on failure: (identity label, offending triple, value).
    """
    pairs = list(itertools.product(range(g.size), repeat=2))
    for label, cases in (("m(x,z,z)=z", (((x, z, z), z) for x, z in pairs)),
                         ("m(x,y,x)=x", (((x, y, x), x) for x, y in pairs)),
                         ("m(x,x,z)=x", (((x, x, z), x) for x, z in pairs))):
        for triple, want in cases:
            got = majority_term_value(g, *triple)
            if got != want:
                return Verdict(False, (label, triple, got))
    return Verdict(True)


def antisymmetry_quasi_check(g: Groupoid) -> LawVerdict:
    return check_named(g, "ANTISYM")
