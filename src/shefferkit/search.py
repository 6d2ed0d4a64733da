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
(the defining axioms pin x|x down fastest), then row-major.  Below each
complete diagonal the tables come in lexicographic order; the runs are
merged into one sorted stream, which ``_models`` filters one table at a time.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

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
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be at least 0")


@dataclass
class EnumerationResult:
    """Models kept (none when only counting), branching nodes tried, wall
    time, cells that propagation set (a commutative mirror is not counted
    again), and the number of models."""

    groupoids: list[Groupoid]
    nodes: int
    seconds: float
    forced: int
    count: int


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


def _search_tables(spec: EnumerationSpec, result: EnumerationResult) -> Iterator[bytes]:
    """Yield each complete table satisfying the constant-free required laws
    in lexicographic order, adding branching nodes and cells forced by
    propagation to ``result``.

    Cells are flat indices ``i * n + j``; ``table`` holds -1 where unknown.
    Each undecided instance sits on the watch list of one unknown cell that
    blocks it.  Assigning a cell re-examines only that cell's list: an
    instance is decided, moves to the list of its next blocking cell, or
    forces its one missing cell.  ``trail`` records each assignment as the
    cell and each watch-list append as ``~cell``, so backtracking pops it.

    Each complete diagonal starts a run on its own copy of ``table`` and
    the watch lists.  A run branches on the later cells in row-major order,
    every earlier cell known, so it yields sorted tables; the runs are merged.
    """
    n = spec.size
    size = n * n
    order = [i * n + j for i, j in _cell_order(n)]
    mirror = [(c % n) * n + c // n if spec.commutative else c for c in range(size)]

    def search(table: list[int], watch: list[list[tuple]], instances, diagonal: bool) -> Iterator:
        """Examine ``instances``, then yield a run per complete diagonal or each complete table."""
        trail: list[int] = []

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
                result.forced += 1
            elif rv >= 0 and lv >= -size:
                assign(~lv, rv, queue)
                result.forced += 1
            else:
                # watch an inner blocking cell in preference to an outermost
                # one, so the instance is looked at again as soon as it can force
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

        def rec(pos: int) -> Iterator:
            while pos < size and table[order[pos]] >= 0:
                pos += 1
            if pos >= (n if diagonal else size):
                yield search(table[:], [w[:] for w in watch], (), False) if diagonal else bytes(table)
                return
            cell = order[pos]
            for v in range(n):
                result.nodes += 1
                mark = len(trail)
                queue: list[int] = []
                assign(cell, v, queue)
                if propagate(queue):
                    yield from rec(pos + 1)
                undo(mark)

        queue: list[int] = []
        if all(examine(inst, queue) for inst in instances) and propagate(queue):
            yield from rec(0)

    prunable = [law for law in spec.require if not law.constants]
    yield from heapq.merge(*search([-1] * size, [[] for _ in range(size)], _ground(prunable, n), True))


def _models(spec: EnumerationSpec, tables: Iterable[bytes]) -> Iterator[Groupoid]:
    """The models among complete tables, one table at a time: with bounds
    each table is crossed with every bottom and top, the forbidden laws and
    the required laws with constants filter, and under ``up_to_isomorphism``
    only the least member of each isomorphism class is kept (Read's orderly
    generation); the model set is closed under relabeling, so that member is
    the first of its class in the sorted listing.  Rows share equal tuples,
    and the cells lie in the carrier by construction, so the groupoids are
    built unvalidated."""
    n = spec.size
    carrier = Carrier.of_size(n)
    const_require = [law for law in spec.require if law.constants]
    bounds = list(itertools.product(range(n), repeat=2)) if spec.with_bounds else [(None, None)]
    others = list(itertools.permutations(range(n)))[1:]
    rows_of: dict[bytes, tuple[int, ...]] = {}
    for flat in tables:
        rows = []
        for i in range(0, n * n, n):
            chunk = flat[i:i + n]
            row = rows_of.get(chunk)
            if row is None:
                row = rows_of[chunk] = tuple(chunk)
            rows.append(row)
        for bottom, top in bounds:
            g = Groupoid._unchecked(carrier, tuple(rows), bottom, top)
            if any(check_law(g, law).holds for law in spec.forbid) or \
                    not all(check_law(g, law).holds for law in const_require):
                continue
            if spec.up_to_isomorphism:
                parts = _parts(g)[1]
                own = _relabeled(parts, range(n))
                if any(_relabeled(parts, inv, own) is not None for inv in others):
                    continue
            yield g


def _listing(spec: EnumerationSpec, result: EnumerationResult) -> Iterator[Groupoid]:
    """The first ``spec.limit`` models of the listing, one at a time; the
    search adds its branching nodes and forced cells to ``result``."""
    return itertools.islice(_models(spec, _search_tables(spec, result)), spec.limit)


def run_enumeration(spec: EnumerationSpec) -> EnumerationResult:
    """The models of the spec in lexicographic order, at most ``spec.limit``."""
    start = time.perf_counter()
    result = EnumerationResult([], 0, 0.0, 0, 0)
    result.groupoids = list(_listing(spec, result))
    result.count = len(result.groupoids)
    result.seconds = time.perf_counter() - start
    return result


def _count_run(spec: EnumerationSpec) -> EnumerationResult:
    """Count the first ``spec.limit`` models of the listing, keeping none."""
    start = time.perf_counter()
    result = EnumerationResult([], 0, 0.0, 0, 0)
    result.count = sum(1 for _ in _listing(spec, result))
    result.seconds = time.perf_counter() - start
    return result


def count_models(spec: EnumerationSpec) -> int:
    return _count_run(spec).count


def find_model(require: Sequence, forbid: Sequence, max_size: int) -> Optional[Groupoid]:
    """Lexicographically least model on the smallest carrier up to ``max_size``."""
    for n in range(1, max_size + 1):
        spec = EnumerationSpec(n, tuple(require), tuple(forbid), limit=1)
        found = run_enumeration(spec).groupoids
        if found:
            return found[0]
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
    involutions = [ElementMap(carrier, carrier, image) for image in _involutions(n)]
    for mask in range(1 << len(off_diag)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off_diag):
            if mask >> k & 1:
                rows[i] |= 1 << j
        relation = BinaryRelation(carrier, tuple(rows))
        bare = RelationalSystem(carrier, relation)
        if not is_directed(bare).holds:
            continue
        for u in involutions:
            if check_involution(bare, u).holds:
                yield RelationalSystem(carrier, relation, u)


@dataclass(frozen=True)
class CanonicalForm:
    """Least relabeling of a structure; equality decides isomorphism."""

    kind: str
    data: tuple


def _parts(obj: Union[Groupoid, RelationalSystem]) -> tuple[str, tuple]:
    """The kind of ``obj`` and what ``_relabeled`` reads of it: the cell rows,
    whether cell values are elements, the involution image and the bounds."""
    if isinstance(obj, Groupoid):
        kind, rows, values, involution = "groupoid", obj.table, True, None
    elif isinstance(obj, RelationalSystem):
        kind, rows, values = "system", obj.relation.matrix(), False
        involution = None if obj.involution is None else obj.involution.image
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")
    bounds = None if obj.bottom is None and obj.top is None else (obj.bottom, obj.top)
    return kind, (rows, values, involution, bounds)


def _relabeled(parts: tuple, inv: Sequence[int], below: Optional[tuple] = None) -> Optional[tuple]:
    """The data of a structure relabeled by the inverse permutation ``inv``
    (new label ``a`` is old element ``inv[a]``); with ``below``, None unless
    that data is lexicographically less than ``below``.

    The cells are read in row-major order through ``inv``.  A groupoid's
    cell values are elements and are mapped; relation bits are not.  The
    involution and the bounds are mapped.  The data is ``(cells, bounds)``
    for a groupoid and ``(cells, involution, bounds)`` for a system, with
    ``None`` for what the structure lacks.  Against ``below`` the rows are
    compared as they are built, so a larger row stops the work.
    """
    rows, values, involution, bounds = parts
    n = len(inv)
    perm = [0] * n
    for a, i in enumerate(inv):
        perm[i] = a
    cells: list[int] = []
    settled = below is None
    for a, i in enumerate(inv):
        row = rows[i]
        got = tuple([perm[row[j]] for j in inv] if values else [row[j] for j in inv])
        if not settled:
            want = below[0][a * n:a * n + n]
            if got > want:
                return None
            settled = got < want
        cells.extend(got)
    data: tuple = (tuple(cells),)
    if not values:
        data += (None if involution is None else tuple([perm[involution[i]] for i in inv]),)
    data += (None if bounds is None else tuple(None if b is None else perm[b] for b in bounds),)
    return data if settled or data < below else None


def canonical_form(obj: Union[Groupoid, RelationalSystem]) -> CanonicalForm:
    """The least relabeling of the structure (see ``_relabeled``), found by
    branch and bound over the inverse permutation.

    New labels are given to old elements one at a time.  Once k elements
    are placed, the first k cells of relabeled row 0 have known sources: a
    relation bit is known, and a groupoid cell is known when its value is
    placed and is at least k otherwise.  A branch stops when that prefix is
    provably above the least data found so far, which starts as the
    structure's own.  A complete permutation is compared row by row.
    Elements whose swap is an automorphism (twins) give equal subtrees, so
    each label tries one element of each twin class.  Candidates likely to
    make row 0 small are tried first, which changes only the speed: for
    label 0 the elements with ``a|a = a``, or those related to the fewest
    elements; for a later label of a groupoid, the elements whose row-0
    cell would be least.
    """
    kind, parts = _parts(obj)
    rows, values = parts[0], parts[1]
    n = len(rows)
    best = _relabeled(parts, range(n))
    # twin[x]: the least element whose swap with x is an automorphism
    twin = list(range(n))
    for x in range(n):
        for y in range(x):
            if twin[y] == y:
                swap = list(range(n))
                swap[x], swap[y] = y, x
                if _relabeled(parts, swap) == best:
                    twin[x] = y
                    break
    if values:
        first = sorted(range(n), key=lambda x: rows[x][x] != x)
    else:
        first = sorted(range(n), key=lambda x: sum(rows[x]))
    inv: list[int] = []
    perm = [-1] * n

    def above(k: int) -> bool:
        """Row 0 of any completion of the k placed labels exceeds ``best``."""
        top, want = rows[inv[0]], best[0]
        for j in range(k):
            v = top[inv[j]]
            if values:
                v = perm[v]
                if v < 0:
                    return k > want[j]
            if v != want[j]:
                return v > want[j]
        return False

    def place(k: int) -> None:
        nonlocal best
        if k == n:
            data = _relabeled(parts, inv, best)
            if data is not None:
                best = data
            return
        order = first if k == 0 else range(n)
        if k and values:
            # the row-0 cell of x placed at label k, or its least value
            top = rows[inv[0]]
            order = sorted(order, key=lambda x: perm[top[x]] if perm[top[x]] >= 0
                           else k + (top[x] != x))
        tried = set()
        for x in order:
            if perm[x] < 0 and twin[x] not in tried:
                tried.add(twin[x])
                perm[x] = k
                inv.append(x)
                if not above(k + 1):
                    place(k + 1)
                inv.pop()
                perm[x] = -1

    place(0)
    return CanonicalForm(kind, best)
