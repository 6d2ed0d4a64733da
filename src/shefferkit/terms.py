"""Term language over one binary operation, with laws and exhaustive checking.

Grammar (whitespace insignificant)::

    term     := factor ('|' factor)*          left associative
    factor   := atom "'"*                     postfix ' is sugar for t|t
    atom     := variable | '0' | '1' | '(' term ')'
    variable := [a-z][a-z0-9]*

    eq       := term '=' term
    law      := eq | eq ('&' eq)* '=>' eq

'0' and '1' refer to a groupoid's designated bottom and top elements.
Evaluation walks an explicit instruction list rather than the Python stack,
so chains of primes of any depth evaluate without recursion.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

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


@dataclass(frozen=True)
class Apply:
    left: "Term"
    right: "Term"


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

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            _, text, pos = self.tokens[self.i]
            raise ParseError(f"expected {what}", pos)
        return self.next()

    def term(self) -> Term:
        t = self.factor()
        while self.peek() == "bar":
            self.next()
            t = Apply(t, self.factor())
        return t

    def factor(self) -> Term:
        t = self.atom()
        while self.peek() == "prime":
            self.next()
            t = Apply(t, t)
        return t

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "var":
            return Variable(text)
        if kind == "zero":
            return NamedConstant("bottom")
        if kind == "one":
            return NamedConstant("top")
        if kind == "lparen":
            t = self.term()
            self.expect("rparen", "')'")
            return t
        raise ParseError("expected a variable, constant, or '('", pos)

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


def _fmt(t: Term, as_factor: bool) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, NamedConstant):
        return "0" if t.which == "bottom" else "1"
    if t.left == t.right:
        return _fmt(t.left, True) + "'"
    body = _fmt(t.left, True) + "|" + _fmt(t.right, True)
    return "(" + body + ")" if as_factor else body


def format_term(t: Term) -> str:
    """Canonical printing; prefers the prime sugar, reparses to the same tree."""
    return _fmt(t, False)


def format_law(law: "Law") -> str:
    eqs = [f"{format_term(l)} = {format_term(r)}" for l, r in law.premises]
    conclusion = f"{format_term(law.conclusion[0])} = {format_term(law.conclusion[1])}"
    if not eqs:
        return conclusion
    return " & ".join(eqs) + " => " + conclusion


def term_variables(t: Term) -> tuple[str, ...]:
    """Distinct variable names, sorted; a shared subterm is visited once."""
    seen = set()
    visited: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if isinstance(node, Variable):
            seen.add(node.name)
        elif isinstance(node, Apply):
            stack.append(node.left)
            stack.append(node.right)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Law:
    """Zero or more premise equations and one conclusion equation."""

    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]

    def __post_init__(self) -> None:
        if len(self.variables) > MAX_LAW_VARIABLES:
            raise ValueError(f"law uses more than {MAX_LAW_VARIABLES} variables")

    @cached_property
    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for lhs, rhs in self.premises + (self.conclusion,):
            seen.update(term_variables(lhs))
            seen.update(term_variables(rhs))
        return tuple(sorted(seen))

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


def _compile(term: Term, var_slot: Optional[dict] = None) -> list[tuple]:
    """Flatten a term into slot instructions; aliased subterms compile once.

    Postfix primes alias their subterm, so an id-keyed memo keeps the
    instruction count linear in the source length.
    """
    memo: dict[int, int] = {}
    code: list[tuple] = []
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Apply):
            if ready:
                code.append(("app", memo[id(node.left)], memo[id(node.right)]))
                memo[id(node)] = len(code) - 1
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        else:
            if isinstance(node, Variable):
                if var_slot is None:
                    code.append(("var", node.name))
                else:
                    code.append(("pos", var_slot[node.name]))
            else:
                code.append(("const", node.which))
            memo[id(node)] = len(code) - 1
    return code


def _constant_index(g, which: str) -> int:
    value = g.bottom if which == "bottom" else g.top
    if value is None:
        side = "0" if which == "bottom" else "1"
        raise ValueError(f"term uses constant '{side}' but the groupoid has no designated {which}")
    return value


def _run(code: list[tuple], g, env) -> int:
    table = g.table
    slots: list[int] = []
    for ins in code:
        op = ins[0]
        if op == "app":
            slots.append(table[slots[ins[1]]][slots[ins[2]]])
        elif op == "pos":
            slots.append(env[ins[1]])
        elif op == "var":
            try:
                v = env[ins[1]]
            except KeyError:
                raise ValueError(f"unbound variable {ins[1]!r}") from None
            if not 0 <= v < g.carrier.size:
                raise ValueError(f"assignment maps {ins[1]!r} outside the carrier")
            slots.append(v)
        else:
            slots.append(_constant_index(g, ins[1]))
    return slots[-1]


def eval_term(g, term: Term, assignment: dict) -> int:
    """Value of ``term`` in groupoid ``g`` under a variable assignment."""
    return _run(_compile(term), g, assignment)


def check_law(g, law: Law) -> LawVerdict:
    """Exhaustively check a law over all assignments, in lexicographic order.

    Identities fail at the first assignment where the two sides differ;
    quasi-identities fail where all premises hold and the conclusion does not.
    ``checked`` counts inspected assignments (n**k when the law holds).
    """
    names = law.variables
    slot = {name: k for k, name in enumerate(names)}
    premise_code = [(_compile(l, slot), _compile(r, slot)) for l, r in law.premises]
    concl_l = _compile(law.conclusion[0], slot)
    concl_r = _compile(law.conclusion[1], slot)

    n = g.carrier.size
    checked = 0
    for combo in itertools.product(range(n), repeat=len(names)):
        checked += 1
        if any(_run(cl, g, combo) != _run(cr, g, combo) for cl, cr in premise_code):
            continue
        lhs = _run(concl_l, g, combo)
        rhs = _run(concl_r, g, combo)
        if lhs != rhs:
            return LawVerdict(False, dict(zip(names, combo)), lhs, rhs, checked)
    return LawVerdict(True, None, None, None, checked)
