"""Exhaustive model search over small operation tables and relational systems.

The table search follows SEM (Zhang & Zhang 1995) and Mace4 (McCune 2003).
Every required law is ground once over all variable assignments into flat
instances, and each side of an instance is a variable's value or a closure
of straight-line code that reads the side's cells from the table and
returns its value or the cell that blocks it; the code is generated once
per compiled side, and each closure binds its variables' values.  Each
undecided instance sits on the watch list of one unknown cell that blocks
its evaluation, so assigning a cell re-examines only the instances on that
cell's list: each is decided (a violation prunes the subtree), moves to
the list of its next blocking cell, or forces a value, when one side of an
identity (or of the conclusion of a quasi-identity whose premises hold) is
known and the other side lacks only its outermost cell.  Forced cells join
the same propagation queue; a trail undoes assignments and list moves on
backtrack.
With bounds, the bottom and the top are two more cells after the table's,
as constants are 0-ary cells in SEM and Mace4, so a law naming 0 or 1 is
ground, prunes and forces like any other.
The search branches only on the next unknown cell in diagonal-first order
(the defining axioms pin x|x down fastest), then row-major, then bottom and
top.  Below each complete diagonal the tables come in lexicographic order;
the runs are merged into one sorted stream, which ``_classes`` filters one
table at a time.
The search narrows by the relabelings its caller passes and keeps only the
least member of each class (orderly generation: Read 1978, McKay 1998).
Each relabeling (``_relabelings``) is a triple of cells, in the order they
are compared, the source cell of each and an element map, and at every
node it is read against the known cells of the partial table up to the
first difference: a smaller relabeled table cuts the subtree, a larger one
drops the relabeling below the node.  Those left at a complete table are
its automorphisms that fix the bounds.
A listing and a count both pass the n! - 1 relabelings, so a forbidden law
is checked once per class; ``up_to_isomorphism`` only chooses whether a
representative stands for itself or for its orbit (the weight n!/|Stab|,
or the members merged through one heap by ``_orbits``).  The merge needs
each representative to be the least member of its class in byte order, so
a listing compares cells row-major.  A count shows no representative, so
it compares them in the search's own cell order (``_cell_order``), where
a relabeling that differs is settled as soon as the cells it differs on
are known; it walks a smaller class tree than a listing, with the same
classes and orbit sums.
Laws are ground once per law, size and table size (``_ground_law``), the
code of each side generated once (``_side_maker``), and relabelings made
once per size and cell order; all are cached and never changed.
A listing yields each model as its table's bytes: the CLI formats them, and
``run_enumeration`` builds a groupoid from each.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .relcore import (
    BinaryRelation,
    Carrier,
    ElementMap,
    RelationalSystem,
    _antitone_gap,
    is_directed,
)
from .morphisms import _isomorphism
from .sheffer import Groupoid, get_law
from .terms import Law, check_law, _compile, _Program

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
    mention '0'/'1' need ``with_bounds``, under which a model is a table
    with a designated bottom and top, searched as two more cells.  A
    required ``x|y = y|x`` (catalog key COMM, in any spelling) makes the
    search mirror each cell.
    """

    size: int
    require: tuple = ()
    forbid: tuple = ()
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
                    raise ValueError("laws with constants need with_bounds (--with-bounds)")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be at least 0")


@dataclass
class EnumerationResult:
    """Models kept (none when only counting), branching nodes tried (on
    the bottom and top too), wall time, cells that propagation set (a
    commutative mirror is not counted again), and the number of models.  A
    listing and a count report the nodes and forced cells of the class
    tree, which they walk whether or not the spec asks for classes; the
    count's tree, narrowed in the search's cell order, is the smaller one
    (at n = 4, AX1,AX2: 1,604 nodes against a listing's 1,804)."""

    groupoids: list[Groupoid] = field(default_factory=list)
    nodes: int = 0
    seconds: float = 0.0
    forced: int = 0
    count: int = 0


def _table_size(spec: EnumerationSpec) -> int:
    """The cells of a table of the spec: n * n, then the bottom and top."""
    return spec.size * spec.size + (2 if spec.with_bounds else 0)


@lru_cache(maxsize=256)
def _ground_law(law: Law, n: int, size: int) -> tuple:
    """``law`` at every assignment of its variables, as flat instances for
    tables of ``size`` cells, made once per law, size and table size: the
    search reads instances and never changes them.

    An instance is (premises, conclusion), each equation a pair of sides,
    and a side is a bare variable's value or the closure ``side(table)``
    that ``_side_maker`` makes for the side's values."""
    # each side compiles on its own, so its instructions keep the side's
    # own post-order, which decides the cell an instance watches first
    sides = []
    for t in law.sides:
        prog = _compile([t])
        pos = [law.variables.index(name) for name in prog.names]
        sides.append((pos, _side_maker(prog) if prog.apps or prog.consts else None))
    out = []
    for combo in itertools.product(range(n), repeat=len(law.variables)):
        ground = [make(n, size, *[combo[p] for p in pos]) if make else combo[pos[0]]
                  for pos, make in sides]
        eqs = list(zip(ground[0::2], ground[1::2]))
        out.append((tuple(eqs[:-1]), eqs[-1]))
    return tuple(out)


@lru_cache(maxsize=256)
def _side_maker(prog: _Program) -> Callable:
    """The maker of the closures of the side compiled as ``prog``, generated
    once: ``make(n, size, *values)`` binds the values of the side's
    variables and returns ``side(table)``, which reads ``table`` (-1 where
    unknown) and returns the side's value, else ~cell when only its
    outermost cell is unknown, else ~cell - size for the first unknown
    inner cell.  With bounds the bottom is cell n * n and the top n * n + 1.

    The closure reads one cell per constant and application, in order, and
    returns at the first unknown one, with no loop over them; ``make``
    computes a row offset per variable and the cell of each constant and
    of each application of two variables.  For the left side of TRANS8,
    ``x|((x|y)'|z)'``, it is::

        def make(n, size, x0, x1, x2):
            r0 = x0 * n
            c0 = r0 + x1
            def side(table):
                v0 = table[c0]
                if v0 < 0: return ~(c0) - size
                v1 = table[v0 * n + v0]
                if v1 < 0: return ~(v0 * n + v0) - size
                v2 = table[v1 * n + x2]
                if v2 < 0: return ~(v1 * n + x2) - size
                v3 = table[v2 * n + v2]
                if v3 < 0: return ~(v2 * n + v2) - size
                v4 = table[r0 + v3]
                if v4 < 0: return ~(r0 + v3)
                return v4
            return side

    The text grows linearly with the side, and nothing in it nests, so a
    side of any depth compiles without recursion."""
    k = len(prog.names)
    rows = sorted({a for a, _ in prog.apps if a < k})
    head = [f"r{j} = x{j} * n" for j in rows]
    head += [f"c{i} = n * n + {('bottom', 'top').index(which)}"
             for i, which in enumerate(prog.consts)]
    cells = [f"c{i}" for i in range(len(prog.consts))]
    # a slot past the variables is the result of instruction slot - k
    for i, (a, b) in enumerate(prog.apps, len(prog.consts)):
        cell = f"{f'r{a}' if a < k else f'v{a - k} * n'} + {f'x{b}' if b < k else f'v{b - k}'}"
        if a < k and b < k:
            head.append(f"c{i} = {cell}")
            cell = f"c{i}"
        cells.append(cell)
    body = ["def side(table):"]
    for i, cell in enumerate(cells):
        inner = " - size" if i < len(cells) - 1 else ""
        body += [f"    v{i} = table[{cell}]", f"    if v{i} < 0: return ~({cell}){inner}"]
    body.append(f"    return v{len(cells) - 1}")
    params = ", ".join(["n", "size"] + [f"x{j}" for j in range(k)])
    source = f"def make({params}):\n    " + "\n    ".join(head + body + ["return side"]) + "\n"
    namespace: dict = {}
    exec(compile(source, "<ground side>", "exec"), namespace)
    return namespace.pop("make")


def _is_commutativity(law: Law) -> bool:
    """Whether the law is ``x|y = y|x`` up to the names and the sides' order."""
    return not law.premises and len(law.variables) == 2 and \
        sorted(law._program.apps) == [(0, 1), (1, 0)]


def _cell_order(n: int, size: int) -> tuple[int, ...]:
    """The cells of a table of ``size`` cells in the order the search fixes
    them: the diagonal, the other cells row-major, then the bottom and top."""
    return (tuple(range(0, n * n, n + 1)) + tuple(c for c in range(n * n) if c % (n + 1))
            + tuple(range(n * n, size)))


def _search_tables(spec: EnumerationSpec, result: EnumerationResult,
                   relabelings: Sequence[tuple]) -> Iterator[tuple[bytes, list]]:
    """Yield in lexicographic order each complete table satisfying the
    required laws that no relabeling makes smaller, with the relabelings
    that fix it, adding branching nodes and forced cells to ``result``.

    Cells are flat indices ``i * n + j``; with bounds the bottom is cell
    ``n * n`` and the top ``n * n + 1``, so a table's bytes end with them.
    ``table`` holds -1 where unknown.
    Each undecided instance sits on the watch list of one unknown cell that
    blocks it.  Assigning a cell re-examines only that cell's list: each
    side of the instance is a literal or a compiled closure called on
    ``table`` (``_ground_law``), which gives the side's value or its
    blocking cell, and the instance is decided, moves to the list of its
    next blocking cell, or forces its one missing cell.  ``trail`` records
    each assignment as the cell and each watch-list append as ``~cell``, so
    backtracking pops it.

    Each complete diagonal starts a run on its own copy of ``table`` and
    the watch lists.  A run branches on the later cells in row-major order,
    then on the bottom and the top, every earlier cell known, so it yields
    sorted tables; the runs are merged.

    Every node narrows the live relabelings (``_narrow``), starting from
    ``relabelings``: given all n! - 1 of them, over the table's cells in
    some order, the search yields the member of each class that is least
    in that order with its automorphisms that fix the bounds, given none
    every table with an empty list.
    """
    n = spec.size
    size = _table_size(spec)
    bounds = list(range(n * n, size))
    order = _cell_order(n, size)
    # a required commutativity law is kept by mirroring each assigned cell,
    # so it is not ground
    commutative = any(_is_commutativity(law) for law in spec.require)
    mirror = [(c % n) * n + c // n if commutative else c for c in range(n * n)] + bounds

    def search(table: list[int], watch: list[list[tuple]], instances, diagonal: bool,
               live: list) -> Iterator:
        """Examine ``instances``, then yield a run per complete diagonal or
        each complete table, narrowing ``live`` at every node."""
        trail: list[int] = []

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
                lv = l if l.__class__ is int else l(table)
                rv = r if r.__class__ is int else r(table)
                if lv >= 0 and rv >= 0:
                    if lv != rv:
                        return True
                    continue
                cell = blocker(lv if lv < 0 else rv)
                watch[cell].append(inst)
                trail.append(~cell)
                return True
            l, r = inst[1]
            lv = l if l.__class__ is int else l(table)
            rv = r if r.__class__ is int else r(table)
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

        def rec(pos: int, live: list) -> Iterator:
            if live:
                live = _narrow(table, live)
                if live is None:
                    return
            while pos < size and table[order[pos]] >= 0:
                pos += 1
            if pos >= (n if diagonal else size):
                if diagonal:
                    yield search(table[:], [w[:] for w in watch], (), False, live)
                else:
                    yield bytes(table), live
                return
            cell = order[pos]
            for v in range(n):
                result.nodes += 1
                mark = len(trail)
                queue: list[int] = []
                assign(cell, v, queue)
                if propagate(queue):
                    yield from rec(pos + 1, live)
                undo(mark)

        queue: list[int] = []
        if all(examine(inst, queue) for inst in instances) and propagate(queue):
            yield from rec(0, live)

    instances = itertools.chain.from_iterable(
        _ground_law(law, n, size) for law in spec.require if not _is_commutativity(law))
    runs = search([-1] * size, [[] for _ in range(size)], instances, True, relabelings)
    yield from heapq.merge(*runs)


@lru_cache(maxsize=32)
def _relabelings(n: int, order: tuple[int, ...]) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """Each relabeling of range(n) but the identity, in the order of the
    inverse permutations, as ``(cells, sources, perm)``: the cells of
    ``order`` (a table's cells, with the bottom and top as cells ``n * n``
    and ``n * n + 1``), the source cell of each relabeled cell (the bottom
    and top are each their own), and the element map.  Made once per size
    and order; ``_narrow`` and ``_orbits`` only read them."""
    out = []
    for inv in itertools.islice(itertools.permutations(range(n)), 1, None):
        perm = [0] * n
        for a, i in enumerate(inv):
            perm[i] = a
        sources = [inv[c // n] * n + inv[c % n] if c < n * n else c for c in order]
        out.append((order, tuple(sources), tuple(perm)))
    return tuple(out)


def _narrow(table: Sequence[int], live: Sequence[tuple]) -> Optional[list]:
    """The relabelings of ``live`` that still tie with the partial table
    (-1 where unknown), or None when one comes first.

    Each cell's value ``table[cell]`` is read against its relabeled value
    ``perm[table[source]]``, in the relabeling's cell order, while both are
    known; the table has every cell the relabelings name.  A first
    difference that is smaller means every completion has a smaller
    relabeling; a larger one drops the relabeling; a tie up to an unknown
    cell keeps it.  On a complete table the kept relabelings are the
    automorphisms of its cells that fix its bounds."""
    kept = []
    for relabeling in live:
        cells, sources, perm = relabeling
        for cell, source in zip(cells, sources):
            if (v := table[source]) < 0 or (own := table[cell]) < 0:
                kept.append(relabeling)
                break
            v = perm[v]
            if v != own:
                if v < own:
                    return None
                break
        else:
            kept.append(relabeling)
    return kept


def _classes(spec: EnumerationSpec, result: EnumerationResult,
             relabelings: Sequence[tuple]) -> Iterator[tuple[bytes, list]]:
    """The tables of ``_search_tables`` on which no forbidden law holds, with
    their automorphisms, one at a time.  A groupoid is built only to check
    the forbidden laws."""
    build = _builder(spec.size)
    for flat, automorphisms in _search_tables(spec, result, relabelings):
        if spec.forbid:
            g = build(flat)
            if any(check_law(g, law).holds for law in spec.forbid):
                continue
        yield flat, automorphisms


def _builder(n: int) -> Callable[[bytes], Groupoid]:
    """A function from a table's bytes to its unvalidated groupoid (the
    cells lie in the carrier by construction), whose equal rows are one
    tuple.  Only a forbidden law's check and ``run_enumeration`` need one;
    the CLI formats a listed model from its bytes."""
    carrier = Carrier.of_size(n)
    rows_of: dict[bytes, tuple[int, ...]] = {}

    def build(flat: bytes) -> Groupoid:
        rows = []
        for i in range(0, n * n, n):
            chunk = flat[i:i + n]
            row = rows_of.get(chunk)
            if row is None:
                row = rows_of[chunk] = tuple(chunk)
            rows.append(row)
        bottom, top = flat[n * n:] or (None, None)
        return Groupoid._unchecked(carrier, tuple(rows), bottom, top)

    return build


def _orbits(spec: EnumerationSpec, relabelings: Sequence[tuple],
            representatives: Iterable[bytes]) -> Iterator[bytes]:
    """Every member of the orbits of the class representatives under the
    identity and ``relabelings``, the other n! - 1, as table bytes in byte
    order.

    The representatives must come in ascending byte order, each the least
    member of its class, as the search narrowed by ``relabelings`` over the
    table's cells row-major yields them (relabelings over another cell
    order would keep other representatives).  When a representative
    arrives, every member of its class and of each later class comes after
    it, so the heap of unprinted members yields each entry below it, and
    then the representative.  An orbit waits in the heap as its
    representative and a ``bytes`` of the relabelings that give its other
    members, sorted by member; its entry holds only the next member."""
    n = spec.size
    prepared = [(itemgetter(*sources), bytes(perm) + bytes(range(n, 256)))
                for _, sources, perm in relabelings]
    heap: list[tuple[bytes, int, bytes, bytes]] = []
    end = b"\xff"  # above every table, so it flushes the heap
    for flat in itertools.chain(representatives, [end]):
        while heap and heap[0][0] < flat:
            member, k, rep, order = heap[0]
            yield member
            k += 1
            if k < len(order):
                cells, values = prepared[order[k]]
                heapq.heapreplace(heap, (bytes(cells(rep)).translate(values), k, rep, order))
            else:
                heapq.heappop(heap)
        if flat is end:
            return
        yield flat
        members = {bytes(cells(flat)).translate(values): i
                   for i, (cells, values) in enumerate(prepared)}
        members.pop(flat, None)
        if members:
            ranked = sorted(members)
            heapq.heappush(heap, (ranked[0], 0, flat, bytes(members[m] for m in ranked)))


def _listing(spec: EnumerationSpec, result: EnumerationResult) -> Iterator[bytes]:
    """The first ``spec.limit`` models of the listing, one at a time, each
    as its table's bytes (the bottom and top bytes last, with bounds).

    Either listing walks the class tree, as a count does, and checks the
    forbidden laws once per class representative; a plain listing expands
    each representative into its orbit (``_orbits``).  The search adds its
    branching nodes and forced cells to ``result``, each model adds one to
    ``result.count``, and the end of the stream sets ``result.seconds``."""
    start = time.perf_counter()
    relabelings = _relabelings(spec.size, tuple(range(_table_size(spec))))
    listed = map(itemgetter(0), _classes(spec, result, relabelings))
    if not spec.up_to_isomorphism:
        listed = _orbits(spec, relabelings, listed)
    for flat in itertools.islice(listed, spec.limit):
        result.count += 1
        yield flat
    result.seconds = time.perf_counter() - start


def _count(spec: EnumerationSpec) -> EnumerationResult:
    """The number of models of the spec, at most ``spec.limit``, summed over
    the class tree, with no groupoid kept.  The relabelings compare cells
    in the search's own order (``_cell_order``), so the tree is smaller
    than a listing's, whose representatives must be least row-major; the
    classes and their orbits are the same.

    Each class representative that ``_classes`` keeps there weighs 1 under
    ``up_to_isomorphism``.  Otherwise it weighs the size of its orbit under
    the n! relabelings, n!/(1 + |automorphisms|), the automorphisms being
    those the search leaves at the leaf, which fix the bounds (McKay 1998).
    A forbidden law holds on every member of a class alike, so it is
    checked once, on the representative, and a count with no forbidden
    law builds no groupoid.  The sum stops as soon as it reaches the
    limit."""
    start = time.perf_counter()
    result = EnumerationResult()
    n = spec.size
    group_order = math.factorial(n)
    classes = _classes(spec, result, _relabelings(n, _cell_order(n, _table_size(spec))))
    weights = (1 if spec.up_to_isomorphism else group_order // (1 + len(automorphisms))
               for _, automorphisms in classes)
    limit = math.inf if spec.limit is None else spec.limit
    for total in itertools.accumulate(weights, initial=0):
        if total >= limit:
            break
    result.count = min(total, limit)
    result.seconds = time.perf_counter() - start
    return result


def run_enumeration(spec: EnumerationSpec) -> EnumerationResult:
    """The models of the spec in lexicographic order, at most ``spec.limit``."""
    result = EnumerationResult()
    result.groupoids = list(map(_builder(spec.size), _listing(spec, result)))
    return result


def count_models(spec: EnumerationSpec) -> int:
    """The number of models that ``run_enumeration`` would list, at most
    ``spec.limit``: the sum over the isomorphism classes of the size of
    each orbit, or 1 per class under ``up_to_isomorphism`` (see ``_count``)."""
    return _count(spec).count


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
    return (p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n)))


def enumerate_drsi(n: int) -> Iterator[RelationalSystem]:
    """All reflexive directed systems with antitone period-two involution.

    Iterates every reflexive relation (off-diagonal bits ascending,
    row-major) that is directed, crossed with every period-two self-map,
    keeping the pairs where the map is antitone.
    """
    if not 1 <= n <= MAX_DRSI_SIZE:
        raise ValueError(f"system enumeration size must be in 1..{MAX_DRSI_SIZE}")
    carrier = Carrier.of_size(n)
    involutions = [ElementMap(carrier, carrier, image) for image in _involutions(n)]
    # row i always holds bit i, and row 0 varies fastest: the ascending off-diagonal order
    choices = [[row for row in range(1 << n) if row >> i & 1] for i in reversed(range(n))]
    for rows in itertools.product(*choices):
        relation = BinaryRelation(carrier, rows[::-1])
        if is_directed(RelationalSystem(carrier, relation)).holds:
            for u in involutions:
                if _antitone_gap(relation, u.image) is None:
                    yield RelationalSystem(carrier, relation, u)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """A structure with a key that isomorphism cannot change; equality
    decides isomorphism (see ``canonical_form``) and the hash reads the key."""

    kind: str
    key: tuple
    structure: Union[Groupoid, RelationalSystem]

    def __hash__(self) -> int:
        return hash((self.kind, self.key))

    def __eq__(self, other: object):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return (self.kind == other.kind and self.key == other.key
                and _isomorphism(self.structure, other.structure) is not None)


def canonical_form(obj: Union[Groupoid, RelationalSystem]) -> CanonicalForm:
    """The form of a groupoid or system: two structures are isomorphic iff
    their forms are equal.

    The key is the size, which bounds and which involution are present, and
    the sorted element signatures: for a groupoid whether x|x = x and how
    many cells hold x, for a system how many elements x is related to and
    from and whether u fixes x, and for both whether x is the bottom or the
    top.  Forms with equal keys are equal when a bijective homomorphism,
    strong for systems, sends bottom to bottom and top to top.
    """
    if not isinstance(obj, (Groupoid, RelationalSystem)):
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")
    n = obj.carrier.size
    if isinstance(obj, Groupoid):
        kind, involution = "groupoid", None
        counts = Counter(itertools.chain.from_iterable(obj.table))
        own = [(obj.table[x][x] == x, counts[x]) for x in range(n)]
    else:
        kind, relation, involution = "system", obj.relation, obj.involution
        own = [(relation.rows[x].bit_count(), relation.column(x).bit_count(),
                involution is not None and involution(x) == x) for x in range(n)]
    signatures = sorted(own[x] + (x == obj.bottom, x == obj.top) for x in range(n))
    key = (n, obj.bottom is None, obj.top is None, involution is None, tuple(signatures))
    return CanonicalForm(kind, key, obj)
