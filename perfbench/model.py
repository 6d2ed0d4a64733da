"""Reference algebra for the benchmark's output checks.

Everything here is written from the definitions, apart from the program:
terms are plain tuples, laws are evaluated by generated Python expressions
over the raw table, and systems, assignments, twist-products, Kleene
subsystems and homomorphisms are recomputed with direct loops.  The
benchmark uses these functions to build some inputs and to verify every
output of the program; it never compares against stored output.

Terms:  ("v", name) | ("c", "bottom" | "top") | ("a", left, right)
Laws:   (premises, (lhs, rhs)) with premises a tuple of (lhs, rhs) pairs
Tables: tuple of row tuples of element indices (row = left operand)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional


class OracleError(AssertionError):
    """An output of the program disagrees with the reference computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# terms and laws

def V(name: str) -> tuple:
    return ("v", name)


def J(left: tuple, right: tuple) -> tuple:
    return ("a", left, right)


def P(t: tuple) -> tuple:
    return ("a", t, t)


ZERO = ("c", "bottom")
ONE = ("c", "top")
_x, _y, _z = V("x"), V("y"), V("z")

# The catalog, transcribed from the definitions in the paper's terms.
CATALOG_LAWS: dict[str, tuple] = {
    "AX1": ((), (J(J(_x, _y), P(_x)), _x)),
    "AX2": ((), (J(J(_x, _y), P(_y)), _y)),
    "COMM": ((), (J(_x, _y), J(_y, _x))),
    "SYM7": ((), (J(P(J(_x, _y)), _x), P(_x))),
    "TRANS8": ((), (J(_x, P(J(P(J(_x, _y)), _z))), J(P(J(_x, _y)), _z))),
    "CD3": ((), (J(J(_x, _y), P(_x)), J(P(_x), J(_x, _y)))),
    "CD9": ((), (J(J(_x, _y), P(_y)), J(P(_y), J(_x, _y)))),
    "ANTISYM": (((J(_x, _y), P(_y)), (J(_y, _x), P(_x))), (_x, _y)),
    "BOUND0": ((), (J(P(ZERO), _x), P(_x))),
    "BOUND1": ((), (J(_x, P(ONE)), ONE)),
    "COMPL": (((J(_x, P(_y)), _y), (J(P(_x), P(_y)), _y)), (_y, ONE)),
}
DNEG = ((), (P(P(_x)), _x))  # x'' = x, true in every Sheffer groupoid


def fmt_term(t: tuple, factor: bool = False) -> str:
    """Canonical text: t|t is written t', a non-prime product in operand
    position is parenthesized."""
    if t[0] == "v":
        return t[1]
    if t[0] == "c":
        return "0" if t[1] == "bottom" else "1"
    if t[1] == t[2]:
        return fmt_term(t[1], True) + "'"
    body = fmt_term(t[1], True) + "|" + fmt_term(t[2], True)
    return "(" + body + ")" if factor else body


def fmt_law(law: tuple) -> str:
    premises, (lhs, rhs) = law
    concl = f"{fmt_term(lhs)} = {fmt_term(rhs)}"
    if not premises:
        return concl
    return " & ".join(f"{fmt_term(l)} = {fmt_term(r)}" for l, r in premises) + " => " + concl


def term_vars(t: tuple, out: set) -> set:
    if t[0] == "v":
        out.add(t[1])
    elif t[0] == "a":
        term_vars(t[1], out)
        term_vars(t[2], out)
    return out


def law_vars(law: tuple) -> tuple[str, ...]:
    out: set = set()
    premises, concl = law
    for l, r in premises + (concl,):
        term_vars(l, out)
        term_vars(r, out)
    return tuple(sorted(out))


def substitute(t: tuple, env: dict) -> tuple:
    if t[0] == "v":
        return env[t[1]]
    if t[0] == "a":
        return ("a", substitute(t[1], env), substitute(t[2], env))
    return t


def _expr(t: tuple, names: dict) -> str:
    if t[0] == "v":
        return names[t[1]]
    if t[0] == "c":
        return "B" if t[1] == "bottom" else "U"
    return f"T[{_expr(t[1], names)}][{_expr(t[2], names)}]"


@dataclass(frozen=True)
class LawCheck:
    holds: bool
    checked: int
    counterexample: Optional[tuple] = None  # values in sorted-variable order
    lhs: Optional[int] = None
    rhs: Optional[int] = None


@functools.lru_cache(maxsize=None)
def compile_law(law: tuple):
    """A function (T, B, U, assignment) -> (premises hold, lhs, rhs)."""
    variables = law_vars(law)
    names = {v: f"a{i}" for i, v in enumerate(variables)}
    premises, (lhs, rhs) = law
    prem = " and ".join(f"{_expr(l, names)} == {_expr(r, names)}" for l, r in premises) or "True"
    args = ", ".join(names[v] for v in variables) + ("," if len(variables) == 1 else "")
    src = (f"def f(T, B, U, A):\n ({args}) = A\n"
           f" return ({prem}), {_expr(lhs, names)}, {_expr(rhs, names)}\n")
    scope: dict = {}
    exec(src, scope)  # noqa: S102 - source built from trusted term tuples
    return variables, scope["f"]


def check_law_table(table: tuple, law: tuple, bottom=None, top=None) -> LawCheck:
    """First violating assignment in lexicographic order, or a full scan."""
    variables, f = compile_law(law)
    n = len(table)
    checked = 0
    for combo in itertools.product(range(n), repeat=len(variables)):
        checked += 1
        ok, lv, rv = f(table, bottom, top, combo)
        if ok and lv != rv:
            return LawCheck(False, checked, combo, lv, rv)
    return LawCheck(True, checked)


def law_holds(table: tuple, law: tuple, bottom=None, top=None) -> bool:
    variables, f = compile_law(law)
    n = len(table)
    for combo in itertools.product(range(n), repeat=len(variables)):
        ok, lv, rv = f(table, bottom, top, combo)
        if ok and lv != rv:
            return False
    return True


def is_sheffer_table(table: tuple) -> bool:
    n = len(table)
    for x in range(n):
        xx = table[x][x]
        for y in range(n):
            xy = table[x][y]
            if table[xy][xx] != x or table[xy][table[y][y]] != y:
                return False
    return True


def is_commutative(table: tuple) -> bool:
    n = len(table)
    return all(table[x][y] == table[y][x] for x in range(n) for y in range(x))


# ---------------------------------------------------------------------------
# relational systems (rows are bit masks: bit j of rows[i] = (i, j) related)

@dataclass(frozen=True)
class System:
    names: tuple[str, ...]
    rows: tuple[int, ...]
    inv: Optional[tuple[int, ...]] = None
    bottom: Optional[int] = None
    top: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.names)

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def cols(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in range(self.n):
                if row >> j & 1:
                    out[j] |= 1 << i
        return tuple(out)


@dataclass(frozen=True)
class Table:
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    bottom: Optional[int] = None
    top: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.names)


def bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def chain(names: tuple[str, ...]) -> System:
    """Bounded chain 0 < 1 < ... with the order-reversing involution."""
    n = len(names)
    rows = tuple(sum(1 << j for j in range(i, n)) for i in range(n))
    return System(names, rows, tuple(n - 1 - i for i in range(n)), 0, n - 1)


def product(a: System, b: System) -> System:
    names = tuple(f"{p}.{q}" for p in a.names for q in b.names)
    m = b.n
    rows = []
    for i in range(a.n):
        for k in range(m):
            mask = 0
            for j in range(a.n):
                for l in range(m):
                    if a.has(i, j) and b.has(k, l):
                        mask |= 1 << (j * m + l)
            rows.append(mask)
    inv = tuple(a.inv[i] * m + b.inv[k] for i in range(a.n) for k in range(m))
    bottom = top = None
    if None not in (a.bottom, a.top, b.bottom, b.top):
        bottom, top = a.bottom * m + b.bottom, a.top * m + b.top
    return System(names, tuple(rows), inv, bottom, top)


def relabel_system(s: System, names: tuple[str, ...], perm: tuple[int, ...]) -> System:
    """The isomorphic copy in which element i is called names[perm[i]] and sits at perm[i]."""
    n = s.n
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if s.has(i, j):
                rows[perm[i]] |= 1 << perm[j]
    inv = None
    if s.inv is not None:
        new = [0] * n
        for i in range(n):
            new[perm[i]] = perm[s.inv[i]]
        inv = tuple(new)
    bottom = None if s.bottom is None else perm[s.bottom]
    top = None if s.top is None else perm[s.top]
    return System(tuple(names), tuple(rows), inv, bottom, top)


def relabel_table(t: Table, perm: tuple[int, ...]) -> Table:
    n = t.n
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[t.table[i][j]]
    names = [""] * n
    for i in range(n):
        names[perm[i]] = t.names[i]
    bottom = None if t.bottom is None else perm[t.bottom]
    top = None if t.top is None else perm[t.top]
    return Table(tuple(names), tuple(tuple(r) for r in new), bottom, top)


def upper(s: System, a: int, b: int) -> int:
    return s.rows[a] & s.rows[b]


def drsi_verdicts(s: System) -> dict:
    """First failure of each defining condition, or None when it holds."""
    n, cols = s.n, s.cols()
    out = {"reflexive": None, "directed": None, "involution": None, "cone duality": None}
    for x in range(n):
        if not s.has(x, x):
            out["reflexive"] = (x,)
            break
    for a, b in itertools.product(range(n), repeat=2):
        if not s.rows[a] & s.rows[b] or not cols[a] & cols[b]:
            out["directed"] = (a, b)
            break
    u = s.inv
    bad = next(((x,) for x in range(n) if u[u[x]] != x), None)
    if bad is None:
        bad = next(((x, y) for x in range(n) for y in range(n)
                    if s.has(x, y) and not s.has(u[y], u[x])), None)
    out["involution"] = bad
    for a, b in itertools.product(range(n), repeat=2):
        image = 0
        for x in bits(upper(s, u[a], u[b])):
            image |= 1 << u[x]
        if cols[a] & cols[b] != image:
            out["cone duality"] = (a, b)
            break
    return out


def is_drsi(s: System) -> bool:
    v = drsi_verdicts(s)
    return v["reflexive"] is None and v["directed"] is None and v["involution"] is None


def properties(s: System) -> dict:
    """Lexicographically least violating tuple of each property, or None."""
    n = s.n
    r = range(n)
    return {
        "reflexive": next(((x,) for x in r if not s.has(x, x)), None),
        "symmetric": next(((x, y) for x in r for y in r if s.has(x, y) and not s.has(y, x)), None),
        "antisymmetric": next(((x, y) for x in r for y in r
                               if x != y and s.has(x, y) and s.has(y, x)), None),
        "transitive": next(((x, y, z) for x in r for y in r for z in r
                            if s.has(x, y) and s.has(y, z) and not s.has(x, z)), None),
    }


def candidates(s: System) -> list[list[tuple[int, ...]]]:
    """Admissible values of x|y: y' when (x', y') is related, else U(x', y')."""
    u = s.inv
    return [[(u[y],) if s.has(u[x], u[y]) else tuple(bits(upper(s, u[x], u[y])))
             for y in range(s.n)] for x in range(s.n)]


def assign(s: System, policy: str) -> Table:
    """Reference for the min / max / rand:<seed> choice policies."""
    cells = candidates(s)
    state = int(policy[5:]) % 2**64 if policy.startswith("rand:") else 0
    rows = []
    for x in range(s.n):
        row = []
        for y in range(s.n):
            c = cells[x][y]
            if len(c) == 1 or policy == "min":
                row.append(c[0])
            elif policy == "max":
                row.append(c[-1])
            else:
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                row.append(c[(state >> 32) % len(c)])
        rows.append(tuple(row))
    return Table(s.names, tuple(rows), s.bottom, s.top)


def induce(t: Table) -> System:
    """Relate (x, y) iff x'|y' = y, with x' = x|x."""
    tab = t.table
    u = tuple(tab[x][x] for x in range(t.n))
    rows = tuple(sum(1 << y for y in range(t.n) if tab[u[x]][u[y]] == y) for x in range(t.n))
    return System(t.names, rows, u, t.bottom, t.top)


def twist(s: System) -> System:
    """(x, y) related to (z, v) iff (x, z) and (v, y) related; swap coordinates."""
    n = s.n
    names = tuple(f"({a},{b})" for a in s.names for b in s.names)
    rows = []
    for x in range(n):
        for y in range(n):
            rows.append(sum(1 << (z * n + v) for z in range(n) for v in range(n)
                            if s.has(x, z) and s.has(v, y)))
    swap = tuple(y * n + x for x in range(n) for y in range(n))
    return System(names, tuple(rows), swap)


def twist_op(t: Table) -> Table:
    """(x, y)|(z, v) = (y'|v', (x|z)')."""
    n, tab = t.n, t.table
    u = [tab[x][x] for x in range(n)]
    names = tuple(f"({a},{b})" for a in t.names for b in t.names)
    rows = []
    for x in range(n):
        for y in range(n):
            rows.append(tuple(tab[u[y]][u[v]] * n + u[tab[x][z]]
                              for z in range(n) for v in range(n)))
    return Table(names, tuple(rows))


def table_product(a: Table, b: Table) -> Table:
    m = b.n
    names = tuple(f"{p}.{q}" for p in a.names for q in b.names)
    rows = []
    for i in range(a.n):
        for k in range(m):
            rows.append(tuple(a.table[i][j] * m + b.table[k][l]
                              for j in range(a.n) for l in range(m)))
    return Table(names, tuple(rows))


def p_a_members(s: System, a: int) -> list[int]:
    cols = s.cols()
    out = []
    for x in range(s.n):
        for y in range(s.n):
            lower = cols[x] & cols[y]
            up = s.rows[x] & s.rows[y]
            if lower & ~cols[a] == 0 and up & ~s.rows[a] == 0:
                out.append(x * s.n + y)
    return out


def restrict(s: System, members: list[int]) -> System:
    pos = {p: i for i, p in enumerate(members)}
    rows = tuple(sum(1 << i for i, q in enumerate(members) if s.has(p, q)) for p in members)
    inv = tuple(pos[s.inv[p]] for p in members)
    return System(tuple(s.names[p] for p in members), rows, inv)


def kleene_ok(s: System) -> bool:
    """Every L(x, x') lies wholly below every U(y, y')."""
    cols, u = s.cols(), s.inv
    for x in range(s.n):
        for y in range(s.n):
            up = s.rows[y] & s.rows[u[y]]
            for z in bits(cols[x] & cols[u[x]]):
                if up & ~s.rows[z]:
                    return False
    return True


def groupoid_hom(a: Table, b: Table, f: tuple[int, ...]) -> bool:
    return all(f[a.table[x][y]] == b.table[f[x]][f[y]] for x in range(a.n) for y in range(a.n))


def strong_hom(a: System, b: System, f: tuple[int, ...], strong: bool) -> bool:
    for x in range(a.n):
        for y in range(a.n):
            fwd, back = a.has(x, y), b.has(f[x], f[y])
            if fwd and not back or strong and back and not fwd:
                return False
    if a.inv is not None and b.inv is not None:
        return all(f[a.inv[x]] == b.inv[f[x]] for x in range(a.n))
    return True


# ---------------------------------------------------------------------------
# exhaustive universes for the enumeration checks

def all_drsi(n: int) -> list[System]:
    """Every reflexive directed system with antitone period-two involution."""
    names = tuple(f"e{i}" for i in range(n))
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    invs = [p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n))]
    out = []
    for mask in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off):
            if mask >> k & 1:
                rows[i] |= 1 << j
        for u in invs:
            s = System(names, tuple(rows), u)
            if is_drsi(s):
                out.append(s)
    return out


def count_by_cones(systems: list[System]) -> int:
    """Sum over systems of the product of the candidate-set sizes of its cells."""
    return sum(math.prod(len(c) for row in candidates(s) for c in row) for s in systems)


def sheffer_tables(systems: list[System]) -> list[tuple[tuple[int, ...], ...]]:
    """All Sheffer operations on n elements: every assignment of every system."""
    out = []
    for s in systems:
        n = s.n
        cells = [c for row in candidates(s) for c in row]
        for combo in itertools.product(*cells):
            out.append(tuple(tuple(combo[x * n:(x + 1) * n]) for x in range(n)))
    return sorted(out)


def is_transitive(s: System) -> bool:
    return properties(s)["transitive"] is None


def is_symmetric(s: System) -> bool:
    return properties(s)["symmetric"] is None


def canonical(table: tuple, bottom=None, top=None) -> tuple:
    """Least relabeled copy over all permutations, for isomorphism tests."""
    n = len(table)
    best = None
    for perm in itertools.permutations(range(n)):
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                new[perm[i]][perm[j]] = perm[table[i][j]]
        key = (tuple(map(tuple, new)),
               None if bottom is None else perm[bottom], None if top is None else perm[top])
        if best is None or key < best:
            best = key
    return best


def automorphisms(table: tuple, bottom=None, top=None) -> int:
    n = len(table)
    count = 0
    for perm in itertools.permutations(range(n)):
        if (bottom is None or perm[bottom] == bottom) and (top is None or perm[top] == top) and \
                all(perm[table[i][j]] == table[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# file text, written and read from the documented line grammar

def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            out.append(body)
    return out


def read_system(text: str) -> System:
    lines = _lines(text)
    expect(lines[0] == ["system"] and lines[1][0] == "elements", "not a system file")
    names = tuple(lines[1][1:])
    n = len(names)
    expect(lines[2] == ["relation"], "missing relation section")
    rows = []
    for tokens in lines[3:3 + n]:
        expect(len(tokens) == n and set(tokens) <= {"0", "1"}, "bad relation row")
        rows.append(sum(1 << j for j, t in enumerate(tokens) if t == "1"))
    inv = bottom = top = None
    for tokens in lines[3 + n:]:
        if tokens[0] == "involution":
            inv = tuple(names.index(t) for t in tokens[1:])
        elif tokens[0] == "bounds":
            bottom, top = names.index(tokens[1]), names.index(tokens[2])
        else:
            raise OracleError(f"unexpected section {tokens[0]!r}")
    return System(names, tuple(rows), inv, bottom, top)


def write_system(s: System) -> str:
    lines = ["system", "elements " + " ".join(s.names), "relation"]
    for i in range(s.n):
        lines.append(" ".join("1" if s.has(i, j) else "0" for j in range(s.n)))
    if s.inv is not None:
        lines.append("involution " + " ".join(s.names[s.inv[i]] for i in range(s.n)))
    if s.bottom is not None:
        lines.append(f"bounds {s.names[s.bottom]} {s.names[s.top]}")
    return "\n".join(lines) + "\n"


def read_table(text: str) -> Table:
    lines = _lines(text)
    expect(lines[0] == ["groupoid"] and lines[1][0] == "elements", "not a groupoid file")
    names = tuple(lines[1][1:])
    n = len(names)
    expect(lines[2] == ["table"], "missing table section")
    rows = []
    for tokens in lines[3:3 + n]:
        expect(len(tokens) == n, "bad table row")
        rows.append(tuple(names.index(t) for t in tokens))
    bottom = top = None
    for tokens in lines[3 + n:]:
        expect(tokens[0] == "bounds", f"unexpected section {tokens[0]!r}")
        bottom, top = names.index(tokens[1]), names.index(tokens[2])
    return Table(names, tuple(rows), bottom, top)


def write_table(t: Table) -> str:
    lines = ["groupoid", "elements " + " ".join(t.names), "table"]
    lines.extend(" ".join(t.names[v] for v in row) for row in t.table)
    if t.bottom is not None:
        lines.append(f"bounds {t.names[t.bottom]} {t.names[t.top]}")
    return "\n".join(lines) + "\n"


def write_map(images: list[str]) -> str:
    return "map\nimages " + " ".join(images) + "\n"
