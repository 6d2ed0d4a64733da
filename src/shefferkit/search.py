"""Exhaustive model search over small operation tables and relational systems.

The table search follows SEM (Zhang & Zhang 1995) and Mace4 (McCune 2003).
Every required law is ground once over all variable assignments into flat
instances with literal variable values.  Each undecided instance sits on
the watch list of one unknown cell that blocks its evaluation, so assigning
a cell re-examines only the instances on that cell's list: each is decided
(a violation prunes the subtree), moves to the list of its next blocking
cell, or forces a value, when one side of an identity (or of the conclusion
of a quasi-identity whose premises hold) is known and the other side lacks
only its outermost cell.  Forced cells join the same propagation queue;
a trail undoes assignments and list moves on backtrack.
The search branches only on the next unknown cell in diagonal-first order
(the defining axioms pin x|x down fastest), then row-major.  Results are
buffered and emitted in lexicographic table order.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .relcore import (
    BinaryRelation,
    Carrier,
    ElementMap,
    RelationalSystem,
    check_involution,
    is_directed,
)
from .sheffer import Groupoid, get_law
from .terms import Law, check_law, _compile

MAX_ENUM_SIZE = 5
MAX_DRSI_SIZE = 4

__all__ = [
    "MAX_ENUM_SIZE",
    "MAX_DRSI_SIZE",
    "EnumerationSpec",
    "EnumerationResult",
    "CanonicalForm",
    "run_enumeration",
    "count_models",
    "find_model",
    "enumerate_drsi",
    "canonical_form",
]


def _as_law(value: Union[str, Law]) -> Law:
    return get_law(value) if isinstance(value, str) else value


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: carrier size, laws to satisfy, laws to violate.

    ``require``/``forbid`` accept catalog keys or Law values.  Laws that
    mention '0'/'1' need ``with_bounds``, which multiplies each passing
    table by all designations of bottom and top.
    """

    size: int
    require: tuple = ()
    forbid: tuple = ()
    commutative: bool = False
    with_bounds: bool = False
    up_to_isomorphism: bool = False
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.size <= MAX_ENUM_SIZE:
            raise ValueError(f"enumeration size must be in 1..{MAX_ENUM_SIZE}")
        object.__setattr__(self, "require", tuple(_as_law(l) for l in self.require))
        object.__setattr__(self, "forbid", tuple(_as_law(l) for l in self.forbid))
        if not self.with_bounds:
            for law in self.require + self.forbid:
                if law.constants:
                    raise ValueError("laws with constants need with_bounds")


@dataclass
class EnumerationResult:
    """Models found, branching nodes tried, wall time, and cells that
    propagation set (a commutative mirror is not counted again)."""

    groupoids: list[Groupoid]
    nodes: int
    seconds: float
    forced: int


# A ground instance is (premises, conclusion); every equation is a pair of
# sides.  A side is a literal value (a bare variable) or a tuple of
# instructions (a, b): an operand >= 0 is a literal value, an operand k < 0
# is the result of instruction ~k of the same side, and the side's value is
# that of its last instruction.


def _ground(laws: Sequence[Law], n: int) -> list[tuple]:
    """Every constant-free law at every assignment of its variables, as
    flat instances."""
    out = []
    for law in laws:
        # each side compiles on its own, so its instructions keep the side's
        # own post-order, which decides the cell an instance watches first
        sides = []
        for t in law.sides:
            prog = _compile([t])
            sides.append(([law.variables.index(name) for name in prog.names], prog.apps,
                          prog.roots[0], [~i for i in range(len(prog.apps))]))
        for combo in itertools.product(range(n), repeat=len(law.variables)):
            ground = []
            for pos, apps, root, results in sides:
                refs = [combo[p] for p in pos] + results
                ground.append(refs[root] if root < len(pos) else
                              tuple((refs[a], refs[b]) for a, b in apps))
            eqs = list(zip(ground[0::2], ground[1::2]))
            out.append((tuple(eqs[:-1]), eqs[-1]))
    return out


def _cell_order(n: int) -> list[tuple[int, int]]:
    cells = [(i, i) for i in range(n)]
    cells.extend((i, j) for i in range(n) for j in range(n) if i != j)
    return cells


def _search_tables(spec: EnumerationSpec) -> tuple[list[bytes], int, int]:
    """Complete tables satisfying the constant-free required laws, with the
    number of branching nodes and of cells forced by propagation.

    Cells are flat indices ``i * n + j``; ``table`` holds -1 where unknown.
    Each undecided instance sits on the watch list of one unknown cell that
    blocks it.  Assigning a cell re-examines only that cell's list: an
    instance is decided, moves to the list of its next blocking cell, or
    forces its one missing cell.  ``trail`` records each assignment as the
    cell and each watch-list append as ``~cell``, so backtracking pops it.
    """
    n = spec.size
    size = n * n
    order = [i * n + j for i, j in _cell_order(n)]
    mirror = [(c % n) * n + c // n if spec.commutative else c for c in range(size)]
    table = [-1] * size
    watch: list[list[tuple]] = [[] for _ in range(size)]
    trail: list[int] = []
    results: list[bytes] = []
    nodes = forced = 0

    def side(code) -> int:
        """Value of a side; else ~cell when only its outermost cell is
        unknown, else ~cell - size for the first unknown inner cell."""
        if code.__class__ is int:
            return code
        vals: list[int] = []
        for a, b in code:
            if a < 0:
                a = vals[~a]
            if b < 0:
                b = vals[~b]
            cell = a * n + b
            v = table[cell]
            if v < 0:
                return ~cell if len(vals) == len(code) - 1 else ~cell - size
            vals.append(v)
        return vals[-1]

    def blocker(value: int) -> int:
        return ~value if value >= -size else ~(value + size)

    def assign(cell: int, value: int, queue: list[int]) -> None:
        table[cell] = value
        trail.append(cell)
        queue.append(cell)
        other = mirror[cell]
        if other != cell:
            table[other] = value
            trail.append(other)
            queue.append(other)

    def examine(inst, queue: list[int]) -> bool:
        """Settle or re-file one instance; False on a violation."""
        nonlocal forced
        for l, r in inst[0]:
            lv, rv = side(l), side(r)
            if lv >= 0 and rv >= 0:
                if lv != rv:
                    return True
                continue
            cell = blocker(lv if lv < 0 else rv)
            watch[cell].append(inst)
            trail.append(~cell)
            return True
        lv, rv = side(inst[1][0]), side(inst[1][1])
        if lv >= 0 and rv >= 0:
            return lv == rv
        if lv >= 0 and rv >= -size:
            assign(~rv, lv, queue)
            forced += 1
        elif rv >= 0 and lv >= -size:
            assign(~lv, rv, queue)
            forced += 1
        else:
            # watch an inner blocking cell in preference to an outermost one,
            # so the instance is looked at again as soon as it can force
            cell = blocker(lv if lv < -size or (lv < 0 and rv >= -size) else rv)
            watch[cell].append(inst)
            trail.append(~cell)
        return True

    def propagate(queue: list[int]) -> bool:
        while queue:
            for inst in watch[queue.pop()]:
                if not examine(inst, queue):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            entry = trail.pop()
            if entry >= 0:
                table[entry] = -1
            else:
                watch[~entry].pop()

    def rec(pos: int) -> None:
        nonlocal nodes
        while pos < size and table[order[pos]] >= 0:
            pos += 1
        if pos == size:
            results.append(bytes(table))
            return
        cell = order[pos]
        for v in range(n):
            nodes += 1
            mark = len(trail)
            queue: list[int] = []
            assign(cell, v, queue)
            if propagate(queue):
                rec(pos + 1)
            undo(mark)

    prunable = [law for law in spec.require if not law.constants]
    queue: list[int] = []
    if all(examine(inst, queue) for inst in _ground(prunable, n)) and propagate(queue):
        rec(0)
    return results, nodes, forced


def _finish_tables(spec: EnumerationSpec, tables: list[bytes]) -> list[Groupoid]:
    """Models from the complete tables in lexicographic order: forbidden
    laws filter them, and with bounds each table is crossed with every
    admissible bottom and top.  Equal rows share one tuple."""
    n = spec.size
    carrier = Carrier.of_size(n)
    plain_forbid = [law for law in spec.forbid if not law.constants]
    const_require = [law for law in spec.require if law.constants]
    const_forbid = [law for law in spec.forbid if law.constants]
    rows_of: dict[bytes, tuple[int, ...]] = {}
    out: list[Groupoid] = []
    tables.sort()
    for flat in tables:
        rows = []
        for i in range(0, n * n, n):
            chunk = flat[i:i + n]
            row = rows_of.get(chunk)
            if row is None:
                row = rows_of[chunk] = tuple(chunk)
            rows.append(row)
        base = Groupoid(carrier, tuple(rows))
        if any(check_law(base, law).holds for law in plain_forbid):
            continue
        if not spec.with_bounds:
            out.append(base)
            continue
        for bottom, top in itertools.product(range(n), repeat=2):
            g = Groupoid(carrier, base.table, bottom, top)
            if all(check_law(g, law).holds for law in const_require) and \
                    not any(check_law(g, law).holds for law in const_forbid):
                out.append(g)
    return out


def run_enumeration(spec: EnumerationSpec) -> EnumerationResult:
    """Collect every model of the spec."""
    start = time.perf_counter()
    tables, nodes, forced = _search_tables(spec)
    groupoids = _finish_tables(spec, tables)
    if spec.up_to_isomorphism:
        seen = set()
        kept = []
        for g in groupoids:
            form = canonical_form(g)
            if form.data not in seen:
                seen.add(form.data)
                kept.append(g)
        groupoids = kept
    if spec.limit is not None:
        groupoids = groupoids[:spec.limit]
    return EnumerationResult(groupoids, nodes, time.perf_counter() - start, forced)


def count_models(spec: EnumerationSpec) -> int:
    return len(run_enumeration(spec).groupoids)


def find_model(require: Sequence, forbid: Sequence, max_size: int) -> Optional[Groupoid]:
    """Lexicographically least model on the smallest carrier up to ``max_size``."""
    for n in range(1, max_size + 1):
        spec = EnumerationSpec(n, tuple(require), tuple(forbid))
        result = run_enumeration(spec)
        if result.groupoids:
            return result.groupoids[0]
    return None


def _involutions(n: int) -> Iterator[tuple[int, ...]]:
    """Period-two self-maps of range(n), lexicographic by image tuple."""
    image: list[Optional[int]] = [None] * n

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        i = next((k for k in range(start, n) if image[k] is None), None)
        if i is None:
            yield tuple(image)  # type: ignore[arg-type]
            return
        image[i] = i
        yield from rec(i + 1)
        image[i] = None
        for j in range(i + 1, n):
            if image[j] is None:
                image[i] = j
                image[j] = i
                yield from rec(i + 1)
                image[i] = None
                image[j] = None

    yield from rec(0)


def enumerate_drsi(n: int) -> Iterator[RelationalSystem]:
    """All reflexive directed systems with antitone period-two involution.

    Iterates every reflexive relation (off-diagonal bits ascending,
    row-major) that is directed, crossed with every period-two self-map,
    keeping the pairs where the map is antitone.
    """
    if not 1 <= n <= MAX_DRSI_SIZE:
        raise ValueError(f"system enumeration size must be in 1..{MAX_DRSI_SIZE}")
    carrier = Carrier.of_size(n)
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    involutions = list(_involutions(n))
    for mask in range(1 << len(off_diag)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off_diag):
            if mask >> k & 1:
                rows[i] |= 1 << j
        relation = BinaryRelation(carrier, tuple(rows))
        if not is_directed(RelationalSystem(carrier, relation)).holds:
            continue
        for image in involutions:
            u = ElementMap(carrier, carrier, image)
            sys = RelationalSystem(carrier, relation, u)
            if check_involution(sys, u).holds:
                yield sys


@dataclass(frozen=True)
class CanonicalForm:
    """Least relabeling of a structure; equality decides isomorphism."""

    kind: str
    data: tuple


def canonical_form(obj: Union[Groupoid, RelationalSystem]) -> CanonicalForm:
    """Minimum over all carrier permutations of the relabeled structure.

    Relabeling by ``perm`` reads the cells in row-major order through the
    inverse permutation.  A groupoid's cell values are elements and are
    mapped; relation bits are not.  The involution and the bounds are mapped.
    The data is ``(cells, bounds)`` for a groupoid and ``(cells, involution,
    bounds)`` for a system, with ``None`` for what the structure lacks.
    """
    if isinstance(obj, Groupoid):
        kind, rows, involution = "groupoid", obj.table, None
    elif isinstance(obj, RelationalSystem):
        kind, rows, involution = "system", obj.relation.matrix(), obj.involution
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")
    n = obj.carrier.size
    values = kind == "groupoid"
    bounded = obj.bottom is not None or obj.top is not None
    best = None
    # the inverses of all permutations are all permutations, so the loop
    # draws the inverse and derives the relabeling from it
    for inv in itertools.permutations(range(n)):
        perm = [0] * n
        for a, i in enumerate(inv):
            perm[i] = a
        if values:
            data: tuple = (tuple([perm[rows[i][j]] for i in inv for j in inv]),)
        else:
            data = (tuple([rows[i][j] for i in inv for j in inv]),
                    None if involution is None else tuple([perm[involution(i)] for i in inv]))
        bounds = None
        if bounded:
            bounds = (None if obj.bottom is None else perm[obj.bottom],
                      None if obj.top is None else perm[obj.top])
        data += (bounds,)
        if best is None or data < best:
            best = data
    return CanonicalForm(kind, best)
