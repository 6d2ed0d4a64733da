"""Command-line interface: text file formats, subcommands, exit codes.

File grammar (line oriented, '#' starts a comment, blank lines ignored):

    system                          groupoid                map
    elements a b c d                elements a b            images c d a b
    relation                        table
    1 0 1 1                         b b
    0 1 1 1                         b a
    1 1 1 1                         bounds a b
    1 1 1 1
    involution a b d c
    bounds a b

A system file holds the relation as 0/1 rows (row = first argument), a
groupoid file holds the operation table as element names (row = left
operand); ``involution`` and ``bounds`` are optional.  A map file lists
images in source element order.

Exit codes: 0 = property holds / construction succeeded, 1 = property
fails (counterexample printed) or, for ``quotient``, a hypothesis of the
transfer construction fails, 2 = malformed input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
from typing import Callable, Iterable, Optional, Sequence

from .bridge import (
    ChoicePolicy,
    assign,
    assignment_space,
    induce_system,
    verify_roundtrip,
)
from .morphisms import (
    HypothesisError,
    _first_failure,
    find_homomorphisms,
    induced_image_operation,
)
from .relcore import (
    BinaryRelation,
    Carrier,
    ElementMap,
    RelationalSystem,
    Verdict,
    relation_properties,
    validate_drsi,
)
from .search import EnumerationResult, EnumerationSpec, _count, _listing, find_model
from .sheffer import CATALOG, Groupoid, check_named, get_law, is_sheffer
from .terms import LawVerdict, check_law, format_law, parse_law
from .twistkleene import is_kleene, kleene_subsystem, twist_product, twist_sheffer

__all__ = [
    "FileFormatError",
    "parse_system_file",
    "format_system_file",
    "parse_groupoid_file",
    "format_groupoid_file",
    "parse_map_file",
    "format_map_file",
    "main",
]


class FileFormatError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Reader:
    """The content lines of a file as (line number, tokens), taken front to back."""

    def __init__(self, text: str):
        split = (raw.split("#", 1)[0].split() for raw in text.splitlines())
        self.lines = [(lineno, tokens) for lineno, tokens in enumerate(split, 1) if tokens]
        self.pos = 0

    def take(self, keyword: str, row: bool = False) -> tuple[int, list[str]]:
        """The next line: the ``keyword`` section line, or with ``row`` a row of it."""
        if self.pos == len(self.lines):
            end = self.lines[-1][0] + 1 if self.lines else 1
            raise FileFormatError(end, f"missing {keyword} row" if row
                                  else f"expected '{keyword}' section")
        lineno, tokens = self.lines[self.pos]
        if not row and tokens[0] != keyword:
            raise FileFormatError(lineno, f"expected '{keyword}', got {tokens[0]!r}")
        self.pos += 1
        return lineno, tokens

    def sections(self, parsers: dict) -> dict:
        """Each remaining line parsed by ``parsers[keyword](lineno, names)``, in
        line order; a keyword outside ``parsers`` or seen before is refused."""
        found = {}
        for lineno, (keyword, *names) in self.lines[self.pos:]:
            if keyword in found:
                raise FileFormatError(lineno, f"duplicate '{keyword}' section")
            if keyword not in parsers:
                raise FileFormatError(lineno, f"unexpected section {keyword!r}")
            found[keyword] = parsers[keyword](lineno, names)
        return found


def _parse_elements(reader: _Reader) -> Carrier:
    lineno, tokens = reader.take("elements")
    if len(tokens) < 2:
        raise FileFormatError(lineno, "elements section lists no names")
    try:
        return Carrier(tuple(tokens[1:]))
    except ValueError as exc:
        raise FileFormatError(lineno, str(exc)) from None


def _indices(carrier: Carrier, lineno: int, names: list[str], count: int,
             wrong_count: str) -> tuple[int, ...]:
    """The indices of ``count`` names on one line; the first unknown name is reported."""
    if len(names) != count:
        raise FileFormatError(lineno, wrong_count)
    try:
        return tuple(map(carrier._positions.__getitem__, names))
    except KeyError as exc:
        raise FileFormatError(lineno, f"unknown element name {exc.args[0]!r}") from None


def _bounds(carrier: Carrier, lineno: int, names: list[str]) -> tuple[int, ...]:
    return _indices(carrier, lineno, names, 2, "bounds needs exactly two names")


def _involution(carrier: Carrier, lineno: int, names: list[str]) -> ElementMap:
    n = carrier.size
    return ElementMap(carrier, carrier,
                      _indices(carrier, lineno, names, n, f"involution needs {n} names"))


def _no_involution(lineno: int, names: list[str]):
    raise FileFormatError(lineno, "groupoid files take no involution section")


def parse_system_file(text: str) -> RelationalSystem:
    reader = _Reader(text)
    reader.take("system")
    carrier = _parse_elements(reader)
    n = carrier.size
    reader.take("relation")
    rows = []
    for _ in range(n):
        lineno, tokens = reader.take("relation", row=True)
        if len(tokens) != n or not {"0", "1"}.issuperset(tokens):
            raise FileFormatError(lineno, f"relation row must be {n} digits 0/1")
        rows.append(int("".join(reversed(tokens)), 2))
    found = reader.sections({"involution": functools.partial(_involution, carrier),
                             "bounds": functools.partial(_bounds, carrier)})
    return RelationalSystem(carrier, BinaryRelation(carrier, tuple(rows)),
                            found.get("involution"), *found.get("bounds", (None, None)))


def _bounds_lines(names: Sequence[str], bottom: Optional[int], top: Optional[int]) -> list[str]:
    """The ``bounds`` line of a system or groupoid, if it has bounds."""
    if (bottom is None) != (top is None):
        raise ValueError("a file holds both bounds or neither; got only one")
    return [] if top is None else [f"bounds {names[bottom]} {names[top]}"]


def format_system_file(sys: RelationalSystem) -> str:
    names = sys.carrier.names
    digits = f"0{sys.carrier.size}b"
    lines = ["system", "elements " + " ".join(names), "relation"]
    lines.extend(" ".join(format(row, digits)[::-1]) for row in sys.relation.rows)
    if sys.involution is not None:
        lines.append("involution " + " ".join(names[v] for v in sys.involution.image))
    lines.extend(_bounds_lines(names, sys.bottom, sys.top))
    return "\n".join(lines) + "\n"


def parse_groupoid_file(text: str) -> Groupoid:
    reader = _Reader(text)
    reader.take("groupoid")
    carrier = _parse_elements(reader)
    n = carrier.size
    reader.take("table")
    wrong_count = f"table row must list {n} entries"
    table = tuple(_indices(carrier, *reader.take("table", row=True), n, wrong_count)
                  for _ in range(n))
    found = reader.sections({"involution": _no_involution,
                             "bounds": functools.partial(_bounds, carrier)})
    return Groupoid(carrier, table, *found.get("bounds", (None, None)))


def format_groupoid_file(g: Groupoid) -> str:
    return _groupoid_formatter(g.carrier)(g.table, g.bottom, g.top)


def _groupoid_formatter(carrier: Carrier) -> Callable[..., str]:
    """A function from the rows, bottom and top of a groupoid on ``carrier``
    to its file text.  The rows may be tuples or byte slices of a table's
    bytes (both iterate as ints); the text of each distinct row is joined
    once, so a listing of many models re-joins none of the rows they share."""
    names = carrier.names
    head = f"groupoid\nelements {' '.join(names)}\ntable"
    rows: dict[Sequence[int], str] = {}

    def format_groupoid(table: Iterable[Sequence[int]], bottom: Optional[int],
                        top: Optional[int]) -> str:
        lines = [head]
        for row in table:
            text = rows.get(row)
            if text is None:
                text = rows[row] = " ".join(names[v] for v in row)
            lines.append(text)
        lines.extend(_bounds_lines(names, bottom, top))
        return "\n".join(lines) + "\n"

    return format_groupoid


def parse_map_file(text: str, src: Carrier, dst: Carrier) -> ElementMap:
    reader = _Reader(text)
    reader.take("map")
    lineno, tokens = reader.take("images")
    image = _indices(dst, lineno, tokens[1:], src.size, f"images needs {src.size} names")
    reader.sections({})  # no section may follow the images
    return ElementMap(src, dst, image)


def format_map_file(f: ElementMap) -> str:
    images = " ".join(f.codomain.names[f(i)] for i in range(f.domain.size))
    return f"map\nimages {images}\n"


# ---------------------------------------------------------------------------
# report helpers

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_system(path: str) -> RelationalSystem:
    return parse_system_file(_read(path))


def _load_groupoid(path: str) -> Groupoid:
    return parse_groupoid_file(_read(path))


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")


def _witness_names(carrier: Carrier, witness: tuple) -> str:
    return " ".join(carrier.names[i] for i in witness)


def _verdict_line(label: str, v: Verdict, carrier: Carrier) -> str:
    if v.holds:
        return f"{label}: yes"
    if v.witness is None:
        return f"{label}: no ({v.reason})"
    return f"{label}: no (witness: {_witness_names(carrier, v.witness)}; {v.reason})"


def _print_law_verdict(v: LawVerdict, carrier: Carrier) -> None:
    print("holds:", "yes" if v.holds else "no")
    if v.holds:
        print("checked:", v.checked)
    else:
        pairs = " ".join(f"{name}={carrier.names[value]}"
                         for name, value in sorted(v.counterexample.items()))
        print("counterexample:", pairs)
        print("lhs:", carrier.names[v.lhs_value])
        print("rhs:", carrier.names[v.rhs_value])


def _policy_from_flag(flag: str) -> ChoicePolicy:
    if flag == "min":
        return ChoicePolicy.least()
    if flag == "max":
        return ChoicePolicy.greatest()
    if flag.startswith("rand:"):
        try:
            return ChoicePolicy.seeded(int(flag[5:]))
        except ValueError:
            raise ValueError(f"bad seed in policy {flag!r}") from None
    raise ValueError(f"unknown policy {flag!r} (use min, max, or rand:<seed>)")


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_sheffer(args) -> int:
    g = _load_groupoid(args.file)
    v = is_sheffer(g)
    print("sheffer:", "yes" if v.holds else "no")
    if v.holds:
        print("checked:", v.checked)
        return 0
    print("axiom:", v.name)
    print("law:", CATALOG[v.name])
    _print_law_verdict(v, g.carrier)
    return 1


def cmd_check_named(args) -> int:
    key = args.key.upper()
    g = _load_groupoid(args.file)
    v = check_named(g, key)
    print(f"law {key}:", format_law(get_law(key)))
    _print_law_verdict(v, g.carrier)
    return 0 if v.holds else 1


def cmd_check_law(args) -> int:
    g = _load_groupoid(args.file)
    law = parse_law(args.law_text)
    v = check_law(g, law)
    print("law:", format_law(law))
    _print_law_verdict(v, g.carrier)
    return 0 if v.holds else 1


def cmd_check_props(args) -> int:
    sys = _load_system(args.file)
    report = relation_properties(sys.relation)
    for label in ("reflexive", "symmetric", "antisymmetric", "transitive"):
        if getattr(report, label):
            print(f"{label}: yes")
        else:
            witness = _witness_names(sys.carrier, report.witnesses[label])
            print(f"{label}: no (witness: {witness})")
    return 0


def cmd_check_drsi(args) -> int:
    sys = _load_system(args.file)
    report = validate_drsi(sys)
    print(_verdict_line("reflexive", report.reflexive, sys.carrier))
    print(_verdict_line("directed", report.directed, sys.carrier))
    print(_verdict_line("involution", report.involution, sys.carrier))
    print(_verdict_line("cone duality", report.cone_duality, sys.carrier))
    print("drsi:", "yes" if report.passed else "no")
    return 0 if report.passed else 1


def cmd_check_kleene(args) -> int:
    sys = _load_system(args.file)
    v = is_kleene(sys)
    if v.holds:
        print("kleene: yes")
        return 0
    x, y, z, w = v.witness
    names = sys.carrier.names
    print(f"kleene: no (witness: x={names[x]} y={names[y]} "
          f"z={names[z]} w={names[w]}; {v.reason})")
    return 1


def cmd_induce(args) -> int:
    g = _load_groupoid(args.file)
    _emit(format_system_file(induce_system(g)), args)
    return 0


def cmd_assign(args) -> int:
    sys = _load_system(args.file)
    policy = _policy_from_flag(args.policy)
    _emit(format_groupoid_file(assign(sys, policy)), args)
    return 0


def cmd_space(args) -> int:
    sys = _load_system(args.file)
    space = assignment_space(sys)
    names = sys.carrier.names
    free = space.free_pairs
    print("free cells:", len(free))
    for x, y in free:
        cands = ", ".join(names[v] for v in space.cells[x][y])
        print(f"  {names[x]}|{names[y]} in {{{cands}}}")
    print("assignments:", space.count)
    return 0


def cmd_roundtrip(args) -> int:
    sys = _load_system(args.file)
    ok = verify_roundtrip(sys, _policy_from_flag(args.policy))
    print("roundtrip:", "yes" if ok else "no")
    return 0 if ok else 1


def cmd_twist(args) -> int:
    sys = _load_system(args.file)
    _emit(format_system_file(twist_product(sys)), args)
    return 0


def cmd_twist_op(args) -> int:
    g = _load_groupoid(args.file)
    _emit(format_groupoid_file(twist_sheffer(g)), args)
    return 0


def cmd_kleene_sub(args) -> int:
    sys = _load_system(args.file)
    base = sys.carrier.index(args.base)
    sub, report = kleene_subsystem(sys, base)
    print("members:", " ".join(sub.carrier.names))
    print("drsi:", "yes" if report.drsi.passed else "no")
    print(_verdict_line("kleene", report.kleene, sub.carrier))
    print(_verdict_line("kleene ambient", report.kleene_ambient, sub.carrier))
    print(_verdict_line("embedding", report.embedding, sys.carrier))
    _emit(format_system_file(sub), args)
    return 0 if report.passed else 1


def cmd_hom(args) -> int:
    load = _load_groupoid if args.groupoid else _load_system
    src = load(args.src)
    dst = load(args.dst)
    if args.map:
        f = parse_map_file(_read(args.map), src.carrier, dst.carrier)
        # the one map check for both kinds, so it rejects --strong with groupoids too
        v = _first_failure(src, dst, f, args.strong, injective=args.injective,
                           surjective=args.surjective)
        print(_verdict_line("homomorphism", v, src.carrier))
        return 0 if v.holds else 1
    count = 0
    for f in find_homomorphisms(src, dst, strong=args.strong,
                                surjective=args.surjective, injective=args.injective):
        count += 1
        arrows = " ".join(f"{src.carrier.names[i]}->{dst.carrier.names[f(i)]}"
                          for i in range(src.carrier.size))
        print(f"hom {count}: {arrows}")
    print("found:", count)
    return 0 if count else 1


def cmd_quotient(args) -> int:
    g = _load_groupoid(args.groupoid)
    dst_sys = _load_system(args.dstsys)
    f = parse_map_file(_read(args.map), g.carrier, dst_sys.carrier)
    _emit(format_groupoid_file(induced_image_operation(g, f, dst_sys)), args)
    return 0


def _split_keys(items: Optional[list[str]]) -> tuple[str, ...]:
    keys = []
    for item in items or []:
        keys.extend(k.upper() for k in item.split(",") if k)
    return tuple(keys)


def cmd_enumerate(args) -> int:
    spec = EnumerationSpec(
        size=args.size,
        require=_split_keys(args.require) + (("COMM",) if args.commutative else ()),
        forbid=_split_keys(args.forbid),
        with_bounds=args.with_bounds,
        up_to_isomorphism=args.iso,
        limit=args.limit,
    )
    if args.count:
        result = _count(spec)
    else:
        result = EnumerationResult([], 0, 0.0, 0, 0)
        format_model = _groupoid_formatter(Carrier.of_size(spec.size))
        write = _sys.stdout.write  # looked up per command: callers redirect it
        n = spec.size
        starts = range(0, n * n, n)
        lead = "# model "
        # each model is written from its table's bytes: no groupoid is built or kept
        for flat, _ in _listing(spec, result):
            bottom, top = flat[n * n:] or (None, None)
            text = format_model([flat[i:i + n] for i in starts], bottom, top)
            write(f"{lead}{result.count}\n{text}")
            lead = "\n# model "
    if args.stats:
        summary = (f"n={spec.size} require={','.join(_split_keys(args.require)) or '-'} "
                   f"forbid={','.join(_split_keys(args.forbid)) or '-'}")
        print(f"{summary}; models: {result.count}; nodes: {result.nodes}; "
              f"forced: {result.forced}; seconds: {result.seconds:.3f}", file=_sys.stderr)
    if args.count:
        print(result.count)
    return 0


def cmd_independence(args) -> int:
    first = find_model(["AX1"], ["AX2"], 2)
    second = find_model(["AX2"], ["AX1"], 3)
    code = 0
    for label, model in (("AX1", first), ("AX2", second)):
        other = "AX2" if label == "AX1" else "AX1"
        if model is None:
            print(f"# no model satisfies {label} and violates {other}")
            code = 1
            continue
        print(f"# satisfies {label}, violates {other}")
        print(format_groupoid_file(model), end="")
        if label == "AX1":
            print()
    return code


# ---------------------------------------------------------------------------
# argument parsing

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="shefferkit",
        description="Sheffer groupoids and directed relational systems with involution.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verdict subcommands")
    check_sub = check.add_subparsers(dest="what", required=True)

    p = check_sub.add_parser("sheffer", help="both defining axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_sheffer)

    p = check_sub.add_parser("named", help="catalog law by key")
    p.add_argument("key")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_named)

    p = check_sub.add_parser("law", help="ad-hoc law")
    p.add_argument("-e", dest="law_text", required=True, metavar="LAW")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_law)

    p = check_sub.add_parser("props", help="relation properties")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_props)

    p = check_sub.add_parser("drsi", help="reflexive + directed + involution")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_drsi)

    p = check_sub.add_parser("kleene", help="cone normality condition")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_kleene)

    p = sub.add_parser("induce", help="relational system of a Sheffer groupoid")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("assign", help="operation assigned to a system")
    p.add_argument("--policy", default="min", metavar="min|max|rand:<seed>")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("space", help="free cells and assignment count")
    p.add_argument("file")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("roundtrip", help="induce after assign returns the input")
    p.add_argument("--policy", default="min", metavar="min|max|rand:<seed>")
    p.add_argument("file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("twist", help="twist-product of a system")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("twist-op", help="pair operation of a Sheffer groupoid")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_twist_op)

    p = sub.add_parser("kleene-sub", help="admissible-pair subsystem of the twist-product")
    p.add_argument("--base", required=True, metavar="NAME")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_kleene_sub)

    p = sub.add_parser("hom", help="enumerate or check homomorphisms")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--groupoid", action="store_true")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--injective", action="store_true")
    p.add_argument("--map", metavar="FILE", help="check this map instead of searching")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("quotient", help="push the operation along a surjective map")
    p.add_argument("groupoid")
    p.add_argument("map")
    p.add_argument("dstsys")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("enumerate", help="search operation tables by laws")
    p.add_argument("-n", dest="size", type=int, required=True)
    p.add_argument("--require", action="append", metavar="KEY[,KEY...]")
    p.add_argument("--forbid", action="append", metavar="KEY[,KEY...]")
    p.add_argument("--commutative", action="store_true", help="same as --require COMM")
    p.add_argument("--with-bounds", action="store_true", dest="with_bounds")
    p.add_argument("--iso", action="store_true", help="canonical representatives only")
    p.add_argument("--count", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--stats", action="store_true", help="search statistics on stderr")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("independence", help="models separating the two axioms")
    p.set_defaults(func=cmd_independence)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place where errors become exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, RuntimeError, OSError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print("error:", message, file=_sys.stderr)
        # a failed transfer hypothesis is a clean negative, not bad input
        return 1 if isinstance(exc, HypothesisError) else 2


if __name__ == "__main__":
    _sys.exit(main())
