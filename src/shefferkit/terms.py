"""Term language over one binary operation, with laws and exhaustive checking.

Grammar (whitespace insignificant)::

    term     := factor ('|' factor)*          left associative
    factor   := atom "'"*                     postfix ' is sugar for t|t
    atom     := variable | '0' | '1' | '(' term ')'
    variable := [a-z][a-z0-9]*

    eq       := term '=' term
    law      := eq | eq ('&' eq)* '=>' eq

'0' and '1' refer to a groupoid's designated bottom and top elements.

Printing, variable collection, evaluation, law checking, the table
search's grounding, and term equality and hashing all read one walk,
``_walk``: an iterative, hash-consed post-order walk that gives each
structurally distinct subterm one node, so a chain of primes of any depth
costs linear time.  Neither the walk nor the parser, which keeps the
enclosing parentheses on an explicit stack, recurses on the Python stack.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

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
    """``left|right``; equal and hashed by structure through ``_walk``."""

    left: "Term"
    right: "Term"

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


@dataclass(frozen=True)
class Law:
    """Zero or more premise equations and one conclusion equation."""

    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]

    def __post_init__(self) -> None:
        if len(self.variables) > MAX_LAW_VARIABLES:
            raise ValueError(f"law uses more than {MAX_LAW_VARIABLES} variables")

    @property
    def sides(self) -> tuple[Term, ...]:
        """Both sides of each premise, then of the conclusion."""
        return tuple(t for eq in self.premises + (self.conclusion,) for t in eq)

    @cached_property
    def _program(self) -> _Program:
        return _compile(self.sides)

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


@dataclass(frozen=True)
class LawVerdict:
    """Result of checking a law; counterexamples use the first violating assignment."""

    holds: bool
    counterexample: Optional[dict]
    lhs_value: Optional[int]
    rhs_value: Optional[int]
    checked: int
    name: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _constant_index(g, which: str) -> int:
    value = g.bottom if which == "bottom" else g.top
    if value is None:
        side = "0" if which == "bottom" else "1"
        raise ValueError(f"term uses constant '{side}' but the groupoid has no designated {which}")
    return value


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
    """
    prog = law._program
    consts = [_constant_index(g, which) for which in prog.consts]
    *premises, (cl, cr) = zip(prog.roots[0::2], prog.roots[1::2])
    apps = prog.apps
    table = g.table
    checked = 0
    for combo in itertools.product(range(g.carrier.size), repeat=len(prog.names)):
        checked += 1
        s = [*combo, *consts]
        for a, b in apps:
            s.append(table[s[a]][s[b]])
        for l, r in premises:
            if s[l] != s[r]:
                break
        else:
            if s[cl] != s[cr]:
                return LawVerdict(False, dict(zip(prog.names, combo)), s[cl], s[cr], checked)
    return LawVerdict(True, None, None, None, checked)
