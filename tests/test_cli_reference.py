"""The file reader and the map verdict against the code they replaced.

``ref_parse_system_file``, ``ref_parse_groupoid_file`` and
``ref_parse_map_file`` are copies of the earlier parsers: a reader with a
separate row reader, a name lookup per cell through ``Carrier.index``, a
trailing-section loop that told groupoid files from system files by their
first line, and a map parser with its own check for extra sections.  The
one reader must give the same outcome on every file: the same model, or
the same exception type, message and line number.

``ref_map_verdict`` is the earlier ``hom --map`` composition, which added
the injective and surjective modes after ``_first_failure`` in the CLI,
and ``ref_strong_embedding`` the earlier embedding check, which tested
injectivity before the conditions.
"""

import itertools
import random
import string

import pytest

from conftest import DATA
from shefferkit import (
    BinaryRelation,
    Carrier,
    ElementMap,
    Groupoid,
    RelationalSystem,
    Verdict,
    embed_base,
    is_directed,
    is_rel_homomorphism,
    kleene_subsystem,
    twist_product,
)
from shefferkit.cli import (
    FileFormatError,
    format_groupoid_file,
    format_map_file,
    format_system_file,
    parse_groupoid_file,
    parse_map_file,
    parse_system_file,
)
from shefferkit.morphisms import _first_failure

# ---------------------------------------------------------------------------
# reference copies


def ref_content_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


class RefReader:
    def __init__(self, text):
        self.lines = ref_content_lines(text)
        self.pos = 0

    @property
    def done(self):
        return self.pos >= len(self.lines)

    def take(self, expected):
        if self.done:
            raise FileFormatError(self.last_line + 1, f"expected '{expected}' section")
        lineno, tokens = self.lines[self.pos]
        if tokens[0] != expected:
            raise FileFormatError(lineno, f"expected '{expected}', got {tokens[0]!r}")
        self.pos += 1
        return lineno, tokens

    def take_row(self, what):
        if self.done:
            raise FileFormatError(self.last_line + 1, f"missing {what} row")
        lineno, tokens = self.lines[self.pos]
        self.pos += 1
        return lineno, tokens

    @property
    def last_line(self):
        return self.lines[-1][0] if self.lines else 0


def ref_parse_elements(reader):
    lineno, tokens = reader.take("elements")
    if len(tokens) < 2:
        raise FileFormatError(lineno, "elements section lists no names")
    try:
        return Carrier(tuple(tokens[1:]))
    except ValueError as exc:
        raise FileFormatError(lineno, str(exc)) from None


def ref_index_of(carrier, name, lineno):
    try:
        return carrier.index(name)
    except KeyError:
        raise FileFormatError(lineno, f"unknown element name {name!r}") from None


def ref_parse_trailers(reader, carrier):
    involution = None
    bottom = top = None
    seen = set()
    while not reader.done:
        lineno, tokens = reader.lines[reader.pos]
        keyword = tokens[0]
        if keyword in seen:
            raise FileFormatError(lineno, f"duplicate '{keyword}' section")
        if keyword == "involution":
            if reader.lines[0][1][0] == "groupoid":
                raise FileFormatError(lineno, "groupoid files take no involution section")
            if len(tokens) != carrier.size + 1:
                raise FileFormatError(lineno, f"involution needs {carrier.size} names")
            image = tuple(ref_index_of(carrier, t, lineno) for t in tokens[1:])
            involution = ElementMap(carrier, carrier, image)
        elif keyword == "bounds":
            if len(tokens) != 3:
                raise FileFormatError(lineno, "bounds needs exactly two names")
            bottom = ref_index_of(carrier, tokens[1], lineno)
            top = ref_index_of(carrier, tokens[2], lineno)
        else:
            raise FileFormatError(lineno, f"unexpected section {keyword!r}")
        seen.add(keyword)
        reader.pos += 1
    return involution, bottom, top


def ref_parse_system_file(text):
    reader = RefReader(text)
    reader.take("system")
    carrier = ref_parse_elements(reader)
    n = carrier.size
    reader.take("relation")
    rows = []
    for i in range(n):
        lineno, tokens = reader.take_row("relation")
        if len(tokens) != n or any(t not in ("0", "1") for t in tokens):
            raise FileFormatError(lineno, f"relation row must be {n} digits 0/1")
        rows.append(sum(1 << j for j, t in enumerate(tokens) if t == "1"))
    involution, bottom, top = ref_parse_trailers(reader, carrier)
    return RelationalSystem(carrier, BinaryRelation(carrier, tuple(rows)),
                            involution, bottom, top)


def ref_parse_groupoid_file(text):
    reader = RefReader(text)
    reader.take("groupoid")
    carrier = ref_parse_elements(reader)
    n = carrier.size
    reader.take("table")
    table = []
    for i in range(n):
        lineno, tokens = reader.take_row("table")
        if len(tokens) != n:
            raise FileFormatError(lineno, f"table row must list {n} entries")
        table.append(tuple(ref_index_of(carrier, t, lineno) for t in tokens))
    _, bottom, top = ref_parse_trailers(reader, carrier)
    return Groupoid(carrier, tuple(table), bottom, top)


def ref_parse_map_file(text, src, dst):
    reader = RefReader(text)
    reader.take("map")
    lineno, tokens = reader.take("images")
    if len(tokens) != src.size + 1:
        raise FileFormatError(lineno, f"images needs {src.size} names")
    image = tuple(ref_index_of(dst, t, lineno) for t in tokens[1:])
    if not reader.done:
        extra, tokens = reader.lines[reader.pos]
        raise FileFormatError(extra, f"unexpected section {tokens[0]!r}")
    return ElementMap(src, dst, image)


def ref_map_verdict(src, dst, f, strong, injective, surjective):
    v = _first_failure(src, dst, f, strong)
    if v.holds and injective and not f.is_injective():
        v = Verdict(False, None, "not injective")
    elif v.holds and surjective and not f.is_surjective():
        v = Verdict(False, None, "not surjective")
    return v


def ref_strong_embedding(src, dst, f):
    if not f.is_injective():
        return Verdict(False, None, "not injective")
    return is_rel_homomorphism(RelationalSystem(src.carrier, src.relation),
                               RelationalSystem(dst.carrier, dst.relation), f, strong=True)


# ---------------------------------------------------------------------------
# outcomes


def outcome(call, *args, **kwargs):
    """What a call gives: its value, or its exception's type, message and line."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is part of the outcome
        return type(exc), str(exc), getattr(exc, "line", None)


PARSERS = {
    "system": (parse_system_file, ref_parse_system_file, format_system_file),
    "groupoid": (parse_groupoid_file, ref_parse_groupoid_file, format_groupoid_file),
}


def assert_same_file_outcome(kind, text, *carriers):
    """The re-formatted model, or the same exception, from both parsers."""
    if kind == "map":
        new, ref, fmt = parse_map_file, ref_parse_map_file, format_map_file
    else:
        new, ref, fmt = PARSERS[kind]
    got, want = outcome(new, text, *carriers), outcome(ref, text, *carriers)
    if not isinstance(want, tuple):
        got, want = fmt(got), fmt(want)
    assert got == want, (kind, text)
    return want


# ---------------------------------------------------------------------------
# seeded random files

NAMES = ["a", "b", "c", "0", "1", "x1"]
UNKNOWN = ["z", "q", "e9"]


def maybe(rng, p):
    return rng.random() < p


def random_names(rng, carrier, count):
    """``count`` names, now and then unknown ones (often two on one line)."""
    pool = list(carrier) + (UNKNOWN if maybe(rng, 0.3) else [])
    return [rng.choice(pool) for _ in range(count)]


def jitter(rng, n):
    """n, now and then one more or one fewer."""
    return max(0, n + rng.choice((0,) * 8 + (1, -1)))


def random_carrier(rng):
    names = rng.sample(NAMES, rng.randint(1, 4))
    if maybe(rng, 0.05):
        names.append(names[0])
    return names


def random_trailers(rng, kind, carrier):
    keywords = ["involution", "bounds"] * 2 + ["order", "images", "relation"]
    lines = []
    for keyword in rng.sample(keywords, rng.choice((0, 0, 1, 1, 2, 3))):
        if kind == "system" and keyword == "involution":
            count = jitter(rng, len(carrier))
        else:
            count = jitter(rng, 2)
        lines.append(" ".join([keyword] + random_names(rng, carrier, count)))
    return lines


def random_model_lines(rng, kind):
    carrier = random_carrier(rng)
    n = len(carrier)
    header = kind if maybe(rng, 0.95) else rng.choice(["system", "groupoid", "map", "x"])
    lines = [header, " ".join(["elements"] + (carrier if maybe(rng, 0.97) else []))]
    section = "relation" if kind == "system" else "table"
    if maybe(rng, 0.97):
        lines.append(section)
    for _ in range(jitter(rng, n)):
        width = jitter(rng, n)
        if kind == "system":
            cells = [rng.choice("01") if maybe(rng, 0.97) else rng.choice(["2", "01", "a"])
                     for _ in range(width)]
        else:
            cells = random_names(rng, carrier, width)
        lines.append(" ".join(cells))
    lines.extend(random_trailers(rng, kind, carrier))
    return lines, carrier


def random_map_lines(rng, dst):
    lines = ["map" if maybe(rng, 0.95) else "images"]
    if maybe(rng, 0.97):
        lines.append(" ".join(["images"] + random_names(rng, dst, jitter(rng, 3))))
    if maybe(rng, 0.15):
        lines.append(rng.choice(["bounds a b", "images a", "involution a"]))
    return lines


def decorate(rng, lines):
    """The lines with comments, blank lines and odd spacing mixed in."""
    out = []
    for line in lines:
        while maybe(rng, 0.1):
            out.append(rng.choice(["", "   ", "# a comment", "  # indented comment"]))
        if maybe(rng, 0.1):
            line = "  " + line.replace(" ", "\t ") + "  # trailing"
        out.append(line)
    text = "\n".join(out)
    return text + "\n" if maybe(rng, 0.9) else text


def random_files(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(["system", "groupoid", "map"])
        if kind == "map":
            src = Carrier(tuple(rng.sample(string.ascii_lowercase, 3)))
            dst = Carrier(tuple(rng.sample(NAMES, rng.randint(1, 4))))
            yield kind, decorate(rng, random_map_lines(rng, list(dst.names))), (src, dst)
        else:
            lines, _carrier = random_model_lines(rng, kind)
            yield kind, decorate(rng, lines), ()


# ---------------------------------------------------------------------------
# parsers


DATA_FILES = sorted(DATA.iterdir())


def data_carriers():
    out = []
    for path in DATA_FILES:
        if path.suffix in (".sys", ".grp"):
            parse = parse_system_file if path.suffix == ".sys" else parse_groupoid_file
            out.append(parse(path.read_text()).carrier)
    return out


@pytest.mark.parametrize("path", DATA_FILES, ids=[p.name for p in DATA_FILES])
def test_data_files_match_reference(path):
    text = path.read_text()
    for kind in PARSERS:
        assert_same_file_outcome(kind, text)
    for src, dst in itertools.product(data_carriers(), repeat=2):
        assert_same_file_outcome("map", text, src, dst)


@pytest.mark.parametrize("seed", range(3))
def test_random_files_match_reference(seed):
    seen = set()
    for kind, text, carriers in random_files(seed, 1500):
        want = assert_same_file_outcome(kind, text, *carriers)
        if isinstance(want, tuple):
            seen.add(want[1].split(": ", 1)[1].split(" ")[0])
        else:
            seen.add(kind)
    # valid files of each kind, and the failures of each part of the grammar
    assert {"system", "groupoid", "map", "expected", "missing", "relation", "table",
            "unknown", "duplicate", "unexpected", "involution", "images", "bounds",
            "groupoid", "elements", "element"} <= seen, seen


def test_first_unknown_name_of_a_row_is_reported():
    text = "groupoid\nelements a b c\ntable\na b c\na z q\na b c\n"
    for parse in (parse_groupoid_file, ref_parse_groupoid_file):
        with pytest.raises(FileFormatError, match="line 5: unknown element name 'z'"):
            parse(text)


# ---------------------------------------------------------------------------
# map verdict


def small_models():
    out = []
    for path in DATA_FILES:
        if path.suffix in (".sys", ".grp"):
            parse = parse_system_file if path.suffix == ".sys" else parse_groupoid_file
            model = parse(path.read_text())
            if model.carrier.size <= 3:
                out.append((path.name, model))
    return out


def every_map(src, dst):
    for image in itertools.product(range(dst.carrier.size), repeat=src.carrier.size):
        yield ElementMap(src.carrier, dst.carrier, image)


def test_map_verdict_matches_reference():
    reasons = set()
    for (_, src), (_, dst) in itertools.product(small_models(), repeat=2):
        for f in every_map(src, dst):
            for strong, injective, surjective in itertools.product((False, True), repeat=3):
                want = outcome(ref_map_verdict, src, dst, f, strong, injective, surjective)
                got = outcome(_first_failure, src, dst, f, strong,
                              injective=injective, surjective=surjective)
                assert got == want, (src, dst, f, strong, injective, surjective)
                reasons.add(want.reason if isinstance(want, Verdict) else want[0])
    assert {"", "not injective", "not surjective", "related pair with unrelated images",
            "unrelated pair with related images", "does not commute with the involutions",
            "f(x|y) differs from f(x)|f(y)", TypeError, ValueError} <= reasons, reasons


def test_constant_map_fails_only_the_modes():
    full2 = parse_system_file((DATA / "full2.sys").read_text())
    f = parse_map_file((DATA / "const2.map").read_text(), full2.carrier, full2.carrier)
    for strong in (False, True):
        for injective, surjective in itertools.product((False, True), repeat=2):
            v = _first_failure(full2, full2, f, strong,
                               injective=injective, surjective=surjective)
            reason = ("not injective" if injective else
                      "not surjective" if surjective else "")
            assert v == Verdict(not reason, None, reason)


def directed_systems(n):
    """Every directed relation on n elements, reflexive or not."""
    car = Carrier.of_size(n)
    out = []
    for rows in itertools.product(range(1 << n), repeat=n):
        sys = RelationalSystem(car, BinaryRelation(car, rows))
        if is_directed(sys).holds:
            out.append(sys)
    return out


def test_embedding_verdicts_are_pinned():
    verdicts = []
    for n in (1, 2, 3):
        for sys in directed_systems(n):
            for a in range(n):
                sub, report = kleene_subsystem(sys, a)
                position = {p: i for i, p in enumerate(report.members)}
                f = ElementMap(sys.carrier, sub.carrier,
                               tuple(position[x * n + a] for x in range(n)))
                assert report.embedding == ref_strong_embedding(sys, sub, f)
                verdicts.append(report.embedding)
                if sys.relation.has(a, a):
                    f, v = embed_base(sys, a)
                    assert v == ref_strong_embedding(sys, twist_product(sys), f)
                    verdicts.append(v)
    # a base with a loop embeds; at a base without one, (x, a) and (z, a) are
    # unrelated in the twist however x and z are related
    assert Verdict(True) in verdicts
    assert any(not v for v in verdicts)

