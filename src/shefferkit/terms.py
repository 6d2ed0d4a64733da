"""Term language over one binary operation, with laws and exhaustive checking.

Grammar (whitespace insignificant)::

    term     := factor ('|' factor)*          left associative
    factor   := atom "'"*                     postfix ' is sugar for t|t
    atom     := variable | '0' | '1' | '(' term ')'
    variable := [a-z][a-z0-9]*

    eq       := term '=' term
    law      := eq | eq ('&' eq)* '=>' eq

'0' and '1' refer to a groupoid's designated bottom and top elements.

Printing, variable collection, evaluation, the compiling of laws, the
table search's grounding, and term equality and hashing all read one
walk, ``_walk``: an iterative, hash-consed post-order walk that gives each
structurally distinct subterm one node, so a chain of primes of any depth
costs linear time.  A law is compiled when it is built, and compares,
hashes and is checked by its program, without another walk.  Neither the
walk nor the parser, which keeps the enclosing parentheses on an explicit
stack, recurses on the Python stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import getitem
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

MAX_LAW_VARIABLES = 6

__all__ = [
    "MAX_LAW_VARIABLES",
    "ParseError",
    "Variable",
    "Apply",
    "NamedConstant",
    "Term",
    "Law",
    "LawVerdict",
    "parse_term",
    "parse_law",
    "format_term",
    "format_law",
    "term_variables",
    "eval_term",
    "check_law",
]


class ParseError(ValueError):
    """Syntax error carrying the character position of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True, eq=False)
class Apply:
    """``left|right``; equal, hashed and shown by structure through ``_walk``."""

    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"parse_term({format_term(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Apply):
            return NotImplemented
        _, (a, b) = _walk([self, other])
        return a == b

    def __hash__(self) -> int:
        return hash(tuple(_walk([self])[0]))


@dataclass(frozen=True)
class NamedConstant:
    which: str  # "bottom" or "top"


Term = Union[Variable, Apply, NamedConstant]


_TOKEN_RE = re.compile(
    r"(?P<var>[a-z][a-z0-9]*)|(?P<zero>0)|(?P<one>1)|(?P<bar>\|)|(?P<prime>')"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<implies>=>)|(?P<eq>=)|(?P<amp>&)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> None:
        if self.peek() != kind:
            raise ParseError(f"expected {what}", self.tokens[self.i][2])
        self.i += 1

    def term(self) -> Term:
        """term := factor ('|' factor)*, parsed in one loop: ``chains`` holds
        the unfinished ``|`` chain of each enclosing parenthesis."""
        chains: list[Optional[Term]] = []
        chain: Optional[Term] = None
        while True:
            kind, text, pos = self.next()
            if kind == "var":
                t: Term = Variable(text)
            elif kind == "zero":
                t = NamedConstant("bottom")
            elif kind == "one":
                t = NamedConstant("top")
            elif kind == "lparen":
                chains.append(chain)
                chain = None
                continue
            else:
                raise ParseError("expected a variable, constant, or '('", pos)
            while True:
                while self.peek() == "prime":
                    self.next()
                    t = Apply(t, t)
                chain = t if chain is None else Apply(chain, t)
                if self.peek() == "bar" or not chains:
                    break
                # a ')' closes the innermost chain, a factor of the one around it
                self.expect("rparen", "')'")
                t, chain = chain, chains.pop()
            if self.peek() != "bar":
                return chain
            self.next()

    def equation(self) -> tuple[Term, Term]:
        lhs = self.term()
        self.expect("eq", "'='")
        return (lhs, self.term())


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if p.peek() != "end":
        raise ParseError("trailing input after term", p.tokens[p.i][2])
    return t


def parse_law(text: str) -> "Law":
    p = _Parser(text)
    equations = [p.equation()]
    while p.peek() == "amp":
        p.next()
        equations.append(p.equation())
    if p.peek() == "implies":
        p.next()
        conclusion = p.equation()
        premises = tuple(equations)
    else:
        if len(equations) != 1:
            raise ParseError("premise list without '=>'", p.tokens[p.i][2])
        premises = ()
        conclusion = equations[0]
    if p.peek() != "end":
        raise ParseError("trailing input after law", p.tokens[p.i][2])
    return Law(premises, conclusion)


def _walk(terms: Sequence[Term]) -> tuple[list[tuple], list[int]]:
    """The one term walker: an iterative, hash-consed post-order walk.

    Returns the nodes ``("var", name)``, ``("const", which)`` and
    ``("app", i, j)``, children before parents, with one index per
    structurally distinct subterm, and the node index of each term.
    A shared subterm is visited once, and nothing recurses.
    """
    nodes: list[tuple] = []
    index: dict[tuple, int] = {}
    memo: dict[int, int] = {}
    roots = []
    for root in terms:
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in memo:
                continue
            if isinstance(t, Apply):
                i, j = memo.get(id(t.left)), memo.get(id(t.right))
                if i is None or j is None:
                    stack += (t, t.right, t.left)
                    continue
                node: tuple = ("app", i, j)
            elif isinstance(t, Variable):
                node = ("var", t.name)
            else:
                node = ("const", t.which)
            k = index.setdefault(node, len(nodes))
            if k == len(nodes):
                nodes.append(node)
            memo[id(t)] = k
        roots.append(memo[id(root)])
    return nodes, roots


def _print(nodes: list[tuple], root: int) -> str:
    out: list[str] = []
    stack: list = [(root, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        k, as_factor = item
        node = nodes[k]
        if node[0] == "var":
            out.append(node[1])
        elif node[0] == "const":
            out.append("0" if node[1] == "bottom" else "1")
        elif node[1] == node[2]:
            stack += ("'", (node[1], True))
        elif as_factor:
            out.append("(")
            stack += (")", (node[2], True), "|", (node[1], True))
        else:
            stack += ((node[2], True), "|", (node[1], True))
    return "".join(out)


def format_term(t: Term) -> str:
    """Canonical printing; prefers the prime sugar, reparses to the same tree."""
    nodes, (root,) = _walk([t])
    return _print(nodes, root)


def format_law(law: "Law") -> str:
    nodes, roots = _walk(law.sides)
    text = [_print(nodes, root) for root in roots]
    eqs = [f"{l} = {r}" for l, r in zip(text[0::2], text[1::2])]
    return " & ".join(eqs[:-1]) + " => " + eqs[-1] if law.premises else eqs[-1]


def term_variables(t: Term) -> tuple[str, ...]:
    """Distinct variable names, sorted."""
    return tuple(sorted(node[1] for node in _walk([t])[0] if node[0] == "var"))


class _Program(NamedTuple):
    """Slots hold the variables ``names``, then the constants ``consts``,
    then for each ``(a, b)`` in ``apps`` slot a applied to slot b; ``roots``
    are the slots of the compiled terms."""

    names: tuple[str, ...]
    consts: tuple[str, ...]
    apps: tuple[tuple[int, int], ...]
    roots: tuple[int, ...]


def _compile(terms: Sequence[Term]) -> _Program:
    nodes, roots = _walk(terms)
    names = sorted(node[1] for node in nodes if node[0] == "var")
    consts = sorted(node[1] for node in nodes if node[0] == "const")
    slot = {("var", name): k for k, name in enumerate(names)}
    slot.update({("const", which): len(slot) + k for k, which in enumerate(consts)})
    base = len(slot)
    apps: list[tuple[int, int]] = []
    remap: list[int] = []
    for node in nodes:
        if node[0] == "app":
            remap.append(base + len(apps))
            apps.append((remap[node[1]], remap[node[2]]))
        else:
            remap.append(slot[node])
    return _Program(tuple(names), tuple(consts), tuple(apps), tuple(remap[r] for r in roots))


# The vector of an application that reads the last variable, over all n
# values of that variable, by the shape of its operands: S a scalar, I the
# last variable itself, V another vector, V' a vector applied to itself.
_VECTORS = {
    "SI": "rows{a}",
    "IS": "columns{b}",
    "II": "diagonal",
    "SV": "compose(v{b}, row_maps{a})",
    "VS": "compose(v{a}, column_maps{b})",
    "V'": "compose(v{a}, diagonal_map)",
    "VV": "vector(map(getitem, map(table.__getitem__, v{a}), v{b}))",
}

# The row or column a shape reads at its scalar operand (0 for a, 1 for b),
# as a vector or as a map, built from the table or its transpose when a
# loop first reaches it.
_ENTRIES = {
    "SI": ("rows", 0, "vector(table[v{x}])"),
    "IS": ("columns", 1, "vector(transposed[v{x}])"),
    "SV": ("row_maps", 0, "as_map(table[v{x}])"),
    "VS": ("column_maps", 1, "as_map(transposed[v{x}])"),
}

# The transpose and the diagonal, as a vector or as a map, are built
# before the loops, when a shape reads them.
_HEADS = {
    "IS": "transposed = tuple(zip(*table))",
    "VS": "transposed = tuple(zip(*table))",
    "II": "diagonal = vector(map(getitem, table, range(n)))",
    "V'": "diagonal_map = as_map(map(getitem, table, range(n)))",
}


def _as_map(values: Iterable[int]) -> bytes:
    # bytes.translate takes a table of exactly 256 bytes; a vector holds
    # values below n, so the padding is never read
    return bytes(values).ljust(256, b"\0")


def _composed(v: tuple, by: tuple) -> tuple:
    return tuple(map(by.__getitem__, v))


# The names the loop text leaves open, by vector type.  Up to 256 elements
# a vector is ``bytes`` and mapping it is one ``translate``; a wider table
# takes tuples mapped element by element.  The same text runs with either.
_BYTES = {"vector": bytes, "as_map": _as_map, "compose": bytes.translate}
_TUPLES = {"vector": tuple, "as_map": tuple, "compose": _composed}


def _stage(prog: _Program, vectors: dict) -> Callable:
    """The check loop of a law's program, staged by level: ``run(g)``
    returns the verdict of ``check_law``.

    The level of a slot is the last variable it reads, -1 when it reads
    none.  Each variable j < k-1 gets a loop, nested in order.  A scalar
    application, or a premise with two scalar sides (a guard), sits in the
    loop of its level: it is evaluated only when a variable it reads
    changes, and a failing guard skips the rest of its loop's body.  Each
    application of the last level is a vector over all n values of the last
    variable: a row, a column or the diagonal of the table, or a vector
    mapped through one.  Up to 256 elements a vector is ``bytes``, and
    mapping it is one ``bytes.translate`` through the row, column or
    diagonal padded to 256 bytes; ``vectors`` binds those names (``_BYTES``)
    or their tuple counterparts (``_TUPLES``), which wider tables take.  A
    law that maps no vector takes tuples at any size.  A row or column is
    converted when a loop first reaches it; one read at a slot that repeats
    its values is kept in a list of n entries.  One comparison settles the
    conclusion at n assignments; only when it fails are the positions
    scanned, in order, for one where every premise holds.  For TRANS8,
    ``x|((x|y)'|z)' = (x|y)'|z``, the loop is::

        def run(g):
            table = g.table
            n = len(table)
            rows = [None] * n
            diagonal_map = as_map(map(getitem, table, range(n)))
            for v0 in range(n):
                row_maps0 = as_map(table[v0])
                for v1 in range(n):
                    v3 = table[v0][v1]
                    v4 = table[v3][v3]
                    rows4 = rows[v4]
                    if rows4 is None: rows4 = rows[v4] = vector(table[v4])
                    v5 = rows4
                    v6 = compose(v5, diagonal_map)
                    v7 = compose(v6, row_maps0)
                    if v7 != v5:
                        for i in range(n):
                            if v7[i] != v5[i]:
                                return failure(names, (v0, v1, i), v7[i], v5[i], n)
            return LawVerdict(True, None, None, None, n ** 3)

    A law without variables has one assignment, a scan of width 1.  The
    loop is generated as text, rather than interpreted, so that no
    dispatch per application costs more than the application on small
    tables.  ``_check_loop`` keeps the loops of recent programs, so a law
    parsed again is not staged again, and a law keeps its own loop for
    small tables (``Law._loop``), so a check does not hash its program.
    """
    k = len(prog.names)
    base = k + len(prog.consts)
    level = list(range(k)) + [-1] * len(prog.consts)
    for a, b in prog.apps:
        level.append(max(level[a], level[b]))
    vector = [k > 0 and lv == k - 1 for lv in level]
    width = "n" if k else "1"
    *equations, conclusion = zip(prog.roots[0::2], prog.roots[1::2])
    guards = [(l, r) for l, r in equations if not (vector[l] or vector[r])]
    compared = [conclusion] + [eq for eq in equations if eq not in guards]

    shapes = {}
    for d, (a, b) in enumerate(prog.apps, start=base):
        if vector[d]:
            shape = "".join("I" if x == k - 1 else "V" if vector[x] else "S" for x in (a, b))
            shapes[d] = "V'" if shape == "VV" and a == b else shape if shape in _VECTORS else "VV"
    entries = {}
    for d, shape in shapes.items():
        if shape in _ENTRIES:
            kept, operand, entry = _ENTRIES[shape]
            x = prog.apps[d - base][operand]
            entries[kept, x] = entry.format(x=x)
    # the first variable and the slots that read no variable take each
    # value once in a check; an entry read at any other slot is kept
    cached = {x for _, x in entries if x != 0 and level[x] >= 0}
    if not {"SV", "VS", "V'"} & set(shapes.values()):
        # bytes pay off only through translate; a law that maps no vector
        # reads the table's own tuples
        vectors = _TUPLES

    holds = f"LawVerdict(True, None, None, None, n ** {k})"
    body = []
    pad = ""
    for j in range(-1, max(k - 1, 0)):
        if j >= 0:
            body.append(f"{pad}for v{j} in range(n):")
            pad += "    "
        body += [f"{pad}v{d} = table[v{a}][v{b}]" for d, (a, b) in enumerate(prog.apps, start=base)
                 if level[d] == j and not vector[d]]
        body += [f"{pad}if v{l} != v{r}: {'continue' if j >= 0 else 'return ' + holds}"
                 for l, r in guards if max(level[l], level[r]) == j]
        for (kept, x), entry in entries.items():
            if level[x] == j and x in cached:
                body += [f"{pad}{kept}{x} = {kept}[v{x}]",
                         f"{pad}if {kept}{x} is None: {kept}{x} = {kept}[v{x}] = {entry}"]
            elif level[x] == j:
                body.append(f"{pad}{kept}{x} = {entry}")
    identity = any(k - 1 in eq for eq in compared)
    for d, shape in shapes.items():
        a, b = prog.apps[d - base]
        identity |= shape == "VV" and k - 1 in (a, b)
        body.append(f"{pad}v{d} = {_VECTORS[shape].format(a=a, b=b)}")
    (cl, cr), *held = compared
    if vector[cl] != vector[cr]:
        # a vector against a scalar: the scalar must fill all n places
        differ = f"v{cl}.count(v{cr}) != n" if vector[cl] else f"v{cr}.count(v{cl}) != n"
    else:
        differ = f"v{cl} != v{cr}"
    at = [f"v{x}[i]" if vector[x] else f"v{x}" for x in range(len(vector))]
    fails = " and ".join([f"{at[cl]} != {at[cr]}"] + [f"{at[l]} == {at[r]}" for l, r in held])
    values = [f"v{j}" for j in range(k - 1)] + ["i"] * (k > 0)
    values = f"({', '.join(values)}{',' * (len(values) == 1)})"
    body += [f"{pad}if {differ}:",
             f"{pad}    for i in range({width}):",
             f"{pad}        if {fails}:",
             f"{pad}            return failure(names, {values}, {at[cl]}, {at[cr]}, n)",
             f"return {holds}"]

    head = ["def run(g):", "table = g.table", "n = len(table)"]
    head += [f"{kept} = [None] * n" for kept in dict.fromkeys(kept for kept, x in entries if x in cached)]
    head += dict.fromkeys(line for shape, line in _HEADS.items() if shape in shapes.values())
    head += [f"v{k + c} = constant(g, {which!r})" for c, which in enumerate(prog.consts)]
    if k and identity:
        head.append(f"v{k - 1} = vector(range(n))")
    source = "\n    ".join(head + body) + "\n"
    namespace = {"LawVerdict": LawVerdict, "constant": _constant_index, "failure": _failure,
                 "getitem": getitem, "names": prog.names, **vectors}
    exec(compile(source, "<law check loop>", "exec"), namespace)
    # popped, so that the loop and its globals form no reference cycle
    return namespace.pop("run")


@lru_cache(maxsize=256)
def _check_loop(prog: _Program, wide: bool) -> Callable:
    """The check loop of a program, with tuple vectors if ``wide``."""
    return _stage(prog, _TUPLES if wide else _BYTES)


@dataclass(frozen=True, eq=False)
class Law:
    """Zero or more premise equations and one conclusion equation; equal,
    hashed and checked by its compiled program."""

    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]

    def __post_init__(self) -> None:
        if len(self.variables) > MAX_LAW_VARIABLES:
            raise ValueError(f"law uses more than {MAX_LAW_VARIABLES} variables")

    def __reduce__(self):
        # a check loop is generated code, which does not pickle: an
        # unpickled law is built again from its equations
        return Law, (self.premises, self.conclusion)

    def __repr__(self) -> str:
        return f"parse_law({format_law(self)!r})"

    @property
    def sides(self) -> tuple[Term, ...]:
        """Both sides of each premise, then of the conclusion."""
        return tuple(t for eq in self.premises + (self.conclusion,) for t in eq)

    @cached_property
    def _program(self) -> _Program:
        return _compile(self.sides)

    @cached_property
    def _loop(self) -> Callable:
        """The check loop for tables of at most 256 elements, read from
        ``_check_loop`` once, so that each check skips hashing the program
        as the cache key."""
        return _check_loop(self._program, False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Law):
            return NotImplemented
        return self._program == other._program

    def __hash__(self) -> int:
        return hash(self._program)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._program.names

    @property
    def constants(self) -> tuple[str, ...]:
        """The constants the law names, "bottom" and/or "top"."""
        return self._program.consts

    @property
    def kind(self) -> str:
        return "identity" if not self.premises else "quasi-identity"


@dataclass(frozen=True, init=False)
class LawVerdict:
    """Result of checking a law; counterexamples use the first violating assignment."""

    holds: bool
    counterexample: Optional[dict]
    lhs_value: Optional[int]
    rhs_value: Optional[int]
    checked: int
    name: str = ""

    def __init__(self, holds: bool, counterexample: Optional[dict], lhs_value: Optional[int],
                 rhs_value: Optional[int], checked: int, name: str = "") -> None:
        # the generated frozen __init__ sets each field through
        # object.__setattr__, which costs a quarter of a check on a small table
        self.__dict__.update(holds=holds, counterexample=counterexample, lhs_value=lhs_value,
                             rhs_value=rhs_value, checked=checked, name=name)

    def __bool__(self) -> bool:
        return self.holds


def _constant_index(g, which: str) -> int:
    value = g.bottom if which == "bottom" else g.top
    if value is None:
        side = "0" if which == "bottom" else "1"
        raise ValueError(f"term uses constant '{side}' but the groupoid has no designated {which}")
    return value


def _failure(names: tuple[str, ...], values: tuple[int, ...], lhs: int, rhs: int,
             n: int) -> LawVerdict:
    """The verdict of a law failing first at the assignment ``values``,
    which is assignment number ``checked`` in lexicographic order."""
    checked = 0
    for v in values:
        checked = checked * n + v
    return LawVerdict(False, dict(zip(names, values)), lhs, rhs, checked + 1)


def eval_term(g, term: Term, assignment: dict) -> int:
    """Value of ``term`` in groupoid ``g`` under a variable assignment."""
    prog = _compile([term])
    slots = []
    for name in prog.names:
        try:
            v = assignment[name]
        except KeyError:
            raise ValueError(f"unbound variable {name!r}") from None
        if not 0 <= v < g.carrier.size:
            raise ValueError(f"assignment maps {name!r} outside the carrier")
        slots.append(v)
    slots += [_constant_index(g, which) for which in prog.consts]
    table = g.table
    for a, b in prog.apps:
        slots.append(table[slots[a]][slots[b]])
    return slots[prog.roots[0]]


def check_law(g, law: Law) -> LawVerdict:
    """Exhaustively check a law over all assignments, in lexicographic order.

    Identities fail at the first assignment where the two sides differ;
    quasi-identities fail where all premises hold and the conclusion does not.
    ``checked`` counts inspected assignments (n**k when the law holds).
    Constants are resolved before the first assignment, so a law naming a
    bound the groupoid lacks raises ValueError even if no premise holds.
    The assignments are visited n at a time, as rows of the table (``_stage``).
    """
    return law._loop(g) if len(g.table) <= 256 else _check_loop(law._program, True)(g)
