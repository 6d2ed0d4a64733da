"""The three seeded workloads: enum, lawcheck and structure.

Each workload has a fixed template of op slots.  The seed fills each slot:
element names, variable names, choice-policy seeds, substituted terms,
random laws, key order and output mode, drawn systems and relabelings.
Sizes and the kind of every slot are fixed, so each op stays in the cost
band of its slot whatever the seed; README.md lists the templates.
"""

from __future__ import annotations

import itertools
import math
import random

import model as M
from harness import Op, Package, Result, Workload
from model import expect

IDENTITIES = ("COMM", "SYM7", "TRANS8", "CD3", "CD9", "ANTISYM")
WITH_CONSTANTS = ("BOUND0", "BOUND1", "COMPL")
LETTERS = "abcdfghjkmnpqrstuvwxyz"


def element_names(rng: random.Random, n: int) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < n:
        name = rng.choice(LETTERS) + str(rng.randrange(100))
        if name not in out:
            out.append(name)
    return tuple(out)


def expect_code(result: Result, code: int) -> None:
    expect(result.code == code, f"exit code {result.code}, expected {code}; stderr {result.err!r}")


def expect_text(got: str, want: str) -> None:
    if got != want:
        raise M.OracleError(f"output differs: got {got[:300]!r}, want {want[:300]!r}")


def table_of(text: str) -> M.Table:
    try:
        return M.read_table(text)
    except (IndexError, ValueError) as exc:
        raise M.OracleError(f"unreadable groupoid output: {exc}") from None


def system_of(text: str) -> M.System:
    try:
        return M.read_system(text)
    except (IndexError, ValueError) as exc:
        raise M.OracleError(f"unreadable system output: {exc}") from None


def law_report(t: M.Table, law: tuple, header: str) -> tuple[str, int]:
    """Expected stdout and exit code of ``check law`` / ``check named``."""
    verdict = M.check_law_table(t.table, law, t.bottom, t.top)
    lines = [header]
    if verdict.holds:
        lines += ["holds: yes", f"checked: {verdict.checked}"]
    else:
        names = M.law_vars(law)
        pairs = " ".join(f"{v}={t.names[x]}" for v, x in zip(names, verdict.counterexample))
        lines += ["holds: no", f"counterexample: {pairs}",
                  f"lhs: {t.names[verdict.lhs]}", f"rhs: {t.names[verdict.rhs]}"]
    return "\n".join(lines) + "\n", 0 if verdict.holds else 1


def check_law_output(t: M.Table, law: tuple, header: str, full_scan: bool | None = None):
    """The oracle of one law check; ``full_scan`` pins whether the law must hold."""
    expected = {}

    def check(result: Result) -> None:
        if not expected:
            text, code = law_report(t, law, header)
            if full_scan is not None:
                expect((code == 0) == full_scan, f"reference verdict {code} for {header}")
            if code == 0:
                n_vars = len(M.law_vars(law))
                expect(f"checked: {t.n ** n_vars}\n" in text, "full scan must check n**k")
            expected["text"], expected["code"] = text, code
        expect_code(result, expected["code"])
        expect_text(result.out, expected["text"])
    return check


# ---------------------------------------------------------------------------
# enum: table search by laws

# (group, extra identity, --count, --forbid one seeded identity); every slot is
# fixed so that its cost does not depend on the seed.  The median op falls
# in the dense 0.2 s band of commutative and cheap plain specs.
ENUM_TEMPLATE = (
    ("plain", None, False, False), ("plain", "COMM", True, False),
    ("plain", "SYM7", False, False), ("plain", "TRANS8", True, True),
    ("plain", "CD3", False, False), ("plain", "CD9", True, False),
    ("plain", "ANTISYM", False, True),
    ("iso", None, True, False), ("iso", "COMM", False, False),
    ("iso", "SYM7", True, False), ("iso", "CD3", False, True),
    ("comm", None, False, True), ("comm", "COMM", True, False),
    ("comm", "SYM7", False, False), ("comm", "TRANS8", True, False),
    ("comm", "CD3", False, False), ("comm", "CD9", True, True),
    ("comm", "ANTISYM", False, False),
)
# (law with constants, --count, --commutative) at n = 3 with --with-bounds
BOUNDS_TEMPLATE = (("BOUND0", False, False), ("BOUND1", True, True), ("COMPL", False, False))


class EnumWorkload(Workload):
    """``enumerate`` at n = 4 (plain and --commutative for every extra
    identity, --iso for four), ``enumerate --with-bounds`` at n = 3, and
    ``independence``."""

    name = "enum"

    def warm_up(self, pkg: Package) -> None:
        every = ",".join(M.CATALOG_LAWS)
        pkg.cli_ok(["enumerate", "-n", "2", "--with-bounds", "--require", every, "--count"])
        pkg.cli_ok(["enumerate", "-n", "3", "--require", "AX1,AX2", "--forbid", "COMM", "--iso"])
        pkg.cli_ok(["enumerate", "-n", "2", "--require", "AX1,AX2", "--commutative"])
        pkg.cli_ok(["independence"])

    def prepare(self, pkg: Package) -> list[Op]:
        rng = random.Random(f"enum:{self.seed}")
        self.universe = Universe()
        ops = []
        for group, extra, count, forbids in ENUM_TEMPLATE:
            required = ["AX1", "AX2"] + ([extra] if extra else [])
            banned = [rng.choice([k for k in IDENTITIES if k != extra])] if forbids else []
            ops.append(self.spec_op(rng, 4, required, banned, group == "comm",
                                    False, group == "iso", count))
        for key, count, commutative in BOUNDS_TEMPLATE:
            ops.append(self.spec_op(rng, 3, ["AX1", "AX2", key], [], commutative, True, False, count))
        ops.append(Op("independence", self.independence_check(), argv=["independence"]))
        rng.shuffle(ops)
        return ops

    def spec_op(self, rng, n, required, forbidden, commutative, bounds, iso, count) -> Op:
        keys = list(required)
        rng.shuffle(keys)
        cut = rng.randrange(1, len(keys) + 1)
        argv = ["enumerate", "-n", str(n), "--require", ",".join(keys[:cut])]
        if keys[cut:]:
            argv += ["--require", ",".join(keys[cut:])]
        for key in forbidden:
            argv += ["--forbid", key]
        for flag, on in (("--commutative", commutative), ("--with-bounds", bounds),
                         ("--iso", iso), ("--count", count)):
            if on:
                argv.append(flag)
        kind = "enumerate " + ("iso" if iso else "commutative" if commutative else
                               "bounds" if bounds else "plain")
        universe = self.universe
        expected = {}

        def check(result: Result) -> None:
            if not expected:
                models = universe.models(n, required, forbidden, commutative, bounds)
                if iso:
                    models = universe.representatives(n, models)
                expected["models"] = models
            models = expected["models"]
            expect_code(result, 0)
            if count:
                expect_text(result.out, f"{len(models)}\n")
                return
            expect(parse_models(result.out, n) == models, f"model list differs ({len(models)} expected)")
        return Op(kind, check, argv=argv)

    def independence_check(self):
        universe = self.universe

        def check(result: Result) -> None:
            expect_code(result, 0)
            blocks = result.out.split("\n\n")
            expect(len(blocks) == 2, "two models expected")
            heads = ("# satisfies AX1, violates AX2", "# satisfies AX2, violates AX1")
            for block, head, (want, avoid) in zip(blocks, heads, (("AX1", "AX2"), ("AX2", "AX1"))):
                expect(block.startswith(head + "\n"), f"missing header {head!r}")
                got = table_of(block).table
                expect(got == universe.least_model(want, avoid, 3), f"{head}: not the least model")
        return check


def parse_models(text: str, n: int) -> list[tuple]:
    if not text:
        return []
    models = []
    for k, block in enumerate(text.split("\n\n"), start=1):
        expect(block.startswith(f"# model {k}\n"), f"model {k} header missing")
        t = table_of(block)
        expect(t.names == tuple(f"e{i}" for i in range(n)), "unexpected element names")
        models.append((t.table, t.bottom, t.top))
    return models


class Universe:
    """Every Sheffer operation on 3 and 4 elements, from the systems they induce."""

    def __init__(self):
        self.systems = {n: M.all_drsi(n) for n in (3, 4)}
        self.tables = {n: M.sheffer_tables(self.systems[n]) for n in (3, 4)}
        for n, total in ((3, 52), (4, 5450)):
            expect(len(self.tables[n]) == total == M.count_by_cones(self.systems[n]),
                   f"reference universe at n={n} is inconsistent")
            expect(all(M.is_sheffer_table(t) for t in self.tables[n]), "non-Sheffer table")
        self.holding: dict = {}
        self.canon: dict = {}

    def holds(self, n: int, key: str) -> frozenset:
        if (n, key) not in self.holding:
            law = M.CATALOG_LAWS[key]
            found = frozenset(t for t in self.tables[n] if M.law_holds(t, law))
            if key in ("SYM7", "TRANS8") and n == 4:
                pick = M.is_symmetric if key == "SYM7" else M.is_transitive
                cones = M.count_by_cones([s for s in self.systems[4] if pick(s)])
                expect(len(found) == cones, f"{key} count disagrees with the cone sum")
            self.holding[(n, key)] = found
        return self.holding[(n, key)]

    def models(self, n, required, forbidden, commutative, bounds) -> list[tuple]:
        plain_req = [k for k in required if k not in WITH_CONSTANTS]
        plain_forb = [k for k in forbidden if k not in WITH_CONSTANTS]
        base = [t for t in self.tables[n]
                if all(t in self.holds(n, k) for k in plain_req)
                and not any(t in self.holds(n, k) for k in plain_forb)
                and (not commutative or M.is_commutative(t))]
        if not bounds:
            return [(t, None, None) for t in base]
        const_req = [M.CATALOG_LAWS[k] for k in required if k in WITH_CONSTANTS]
        const_forb = [M.CATALOG_LAWS[k] for k in forbidden if k in WITH_CONSTANTS]
        return [(t, b, u) for t in base for b, u in itertools.product(range(n), repeat=2)
                if all(M.law_holds(t, law, b, u) for law in const_req)
                and not any(M.law_holds(t, law, b, u) for law in const_forb)]

    def canonical(self, model: tuple) -> tuple:
        if model not in self.canon:
            self.canon[model] = M.canonical(*model)
        return self.canon[model]

    def representatives(self, n: int, models: list[tuple]) -> list[tuple]:
        """Least member of each isomorphism class; orbit sizes must add up."""
        first: dict = {}
        for model in models:
            first.setdefault(self.canonical(model), model)
        reps = sorted(first.values())
        orbits = sum(math.factorial(n) // M.automorphisms(*rep) for rep in reps)
        expect(orbits == len(models), f"orbit sizes sum to {orbits}, not {len(models)}")
        return reps

    def least_model(self, want: str, avoid: str, max_size: int):
        key = ("least", want, avoid)
        if key not in self.holding:
            self.holding[key] = None
            for n in range(1, max_size + 1):
                for flat in itertools.product(range(n), repeat=n * n):
                    t = tuple(flat[i * n:(i + 1) * n] for i in range(n))
                    if M.law_holds(t, M.CATALOG_LAWS[want]) and \
                            not M.law_holds(t, M.CATALOG_LAWS[avoid]):
                        self.holding[key] = t
                        break
                if self.holding[key] is not None:
                    break
        return self.holding[key]


# ---------------------------------------------------------------------------
# lawcheck: identities and quasi-identities on big tables

TWIST_BASES = (6, 7, 8)  # twist-op tables of 36, 49 and 64 elements
VARIABLE_POOL = ("a", "b", "c", "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z", "x1", "y2")


def random_term(rng: random.Random, pool: tuple, leaves: int) -> tuple:
    """A product of ``leaves`` variables with no t|t subterm, so that the
    parsed tree has exactly ``leaves - 1`` applications."""
    if leaves == 1:
        return M.V(rng.choice(pool))
    while True:
        left = rng.randrange(1, leaves)
        a, b = random_term(rng, pool, left), random_term(rng, pool, leaves - left)
        if a != b:
            return M.J(a, b)


def substitution_instance(rng: random.Random, base: tuple, pool: tuple, leaves: int) -> tuple:
    """The base law with each variable replaced by a term; uses all of ``pool``."""
    while True:
        env = {v: random_term(rng, pool, leaves) for v in M.law_vars(base)}
        premises, (lhs, rhs) = base
        law = (tuple((M.substitute(l, env), M.substitute(r, env)) for l, r in premises),
               (M.substitute(lhs, env), M.substitute(rhs, env)))
        if len(M.law_vars(law)) == len(pool):
            return law


def failing_law(rng: random.Random, t: M.Table, pool: tuple) -> tuple:
    """A random identity or quasi-identity that fails within the first n checks."""
    while True:
        lhs, rhs = random_term(rng, pool, rng.randint(2, 4)), random_term(rng, pool, rng.randint(1, 3))
        premises = ()
        if rng.random() < 0.4:
            premises = ((random_term(rng, pool, 2), random_term(rng, pool, 1)),)
        law = (premises, (lhs, rhs))
        if lhs == rhs:
            continue
        verdict = M.check_law_table(t.table, law)
        if not verdict.holds and verdict.checked <= t.n:
            return law


class LawcheckWorkload(Workload):
    """``check law -e``, ``check named`` and ``check sheffer`` on twist-op tables
    of 36-64 elements and an assigned table of 16 elements."""

    name = "lawcheck"

    def build(self, pkg: Package) -> None:
        rng = random.Random(f"lawcheck-inputs:{self.seed}")
        self.tables = {}
        for base in TWIST_BASES:
            shape = rng.choice({6: ((6,), (2, 3)), 7: ((7,),), 8: ((8,), (2, 4))}[base])
            system = self.chains(rng, shape)
            with open(self.path(f"base{base}.sys"), "w", encoding="utf-8") as handle:
                handle.write(M.write_system(system))
            pkg.cli_ok(["assign", "--policy", f"rand:{rng.randrange(2 ** 32)}",
                        self.path(f"base{base}.sys"), "-o", self.path(f"base{base}.grp")])
            pkg.cli_ok(["twist-op", self.path(f"base{base}.grp"), "-o", self.path(f"T{base * base}.grp")])
            self.tables[f"T{base * base}"] = self.path(f"T{base * base}.grp")
        system = self.chains(rng, rng.choice(((4, 4), (2, 8))))
        with open(self.path("A16.sys"), "w", encoding="utf-8") as handle:
            handle.write(M.write_system(system))
        pkg.cli_ok(["assign", "--policy", f"rand:{rng.randrange(2 ** 32)}",
                    self.path("A16.sys"), "-o", self.path("A16.grp")])
        self.tables["A16"] = self.path("A16.grp")

    @staticmethod
    def chains(rng: random.Random, shape: tuple) -> M.System:
        system = M.chain(element_names(rng, shape[0]))
        for size in shape[1:]:
            system = M.product(system, M.chain(element_names(rng, size)))
        return M.relabel_system(system, element_names(rng, system.n), tuple(range(system.n)))

    def warm_up(self, pkg: Package) -> None:
        tiny = M.Table(("lo", "hi"), ((1, 0), (1, 0)), 0, 1)
        with open(self.path("tiny.grp"), "w", encoding="utf-8") as handle:
            handle.write(M.write_table(tiny))
        for key in M.CATALOG_LAWS:
            pkg.cli_run(["check", "named", key, self.path("tiny.grp")])
        for path in self.tables.values():
            pkg.cli_ok(["check", "sheffer", path])
        pkg.cli_run(["check", "law", "-e", "x|y = y|x & y = x => x' = y'", self.path("A16.grp")])

    def prepare(self, pkg: Package) -> list[Op]:
        rng = random.Random(f"lawcheck:{self.seed}")
        tables = {}
        for key, path in self.tables.items():
            with open(path, encoding="utf-8") as handle:
                tables[key] = M.read_table(handle.read())
        ops = []

        def law_op(kind, key, law, full_scan=None):
            t = tables[key]
            text = M.fmt_law(law)
            ops.append(Op(kind, check_law_output(t, law, f"law: {text}", full_scan),
                          argv=["check", "law", "-e", text, self.tables[key]]))

        bases = (M.CATALOG_LAWS["AX1"], M.CATALOG_LAWS["AX2"], M.DNEG)
        leaves = {id(bases[0]): 2, id(bases[1]): 2, id(bases[2]): 3}
        # full scans: 3 variables on twist-op tables, 4 on the assigned table
        plan = (("T64", 1), ("T49", 2), ("T36", 3))
        for key, count in plan:
            ops.append(Op("check named full", check_law_output(
                tables[key], M.CATALOG_LAWS["TRANS8"],
                f"law TRANS8: {M.fmt_law(M.CATALOG_LAWS['TRANS8'])}", True),
                argv=["check", "named", "TRANS8", self.tables[key]]))
            for k in range(count):
                base = bases[k % 3]
                pool = tuple(rng.sample(VARIABLE_POOL, 3))
                law_op("check law full", key, substitution_instance(rng, base, pool, leaves[id(base)]), True)
        for k in range(4):
            base = bases[k % 3]
            pool = tuple(rng.sample(VARIABLE_POOL, 4))
            law_op("check law full", "A16",
                   substitution_instance(rng, base, pool, leaves[id(base)] + 1), True)
        # early exits and short scans
        for key in ("T64", "T49", "T36", "A16"):
            t = tables[key]
            ops.append(Op("check sheffer", self.sheffer_check(t),
                          argv=["check", "sheffer", self.tables[key]]))
        for key in rng.sample(sorted(tables), 2):
            law_op("check law early", key,
                   failing_law(rng, tables[key], tuple(rng.sample(VARIABLE_POOL, 3))), False)
        key, named = rng.choice(sorted(tables)), rng.choice(("COMM", "SYM7", "CD3", "CD9", "ANTISYM"))
        law = M.CATALOG_LAWS[named]
        ops.append(Op("check named short", check_law_output(
            tables[key], law, f"law {named}: {M.fmt_law(law)}"),
            argv=["check", "named", named, self.tables[key]]))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def sheffer_check(t: M.Table):
        def check(result: Result) -> None:
            expect(M.is_sheffer_table(t.table), "reference says the table is not Sheffer")
            expect_code(result, 0)
            expect_text(result.out, f"sheffer: yes\nchecked: {2 * t.n * t.n}\n")
        return check


# ---------------------------------------------------------------------------
# structure: constructions and their audits

FLIP = M.Table(("f0", "f1"), ((1, 0), (1, 0)))  # x|y = y', inducing the full relation


class StructureWorkload(Workload):
    """Constructions and checks on systems of 4-8 elements and their
    operations, plus direct ``enumerate_drsi`` and ``canonical_form`` calls."""

    name = "structure"

    def build(self, pkg: Package) -> None:
        rng = random.Random(f"structure-inputs:{self.seed}")
        self.systems = {
            "C7": M.chain(element_names(rng, 7)),
            "P8": M.product(M.chain(element_names(rng, 2)), M.chain(element_names(rng, 4))),
            "C2": M.chain(element_names(rng, 2)),
        }
        drawn = list(pkg.search.enumerate_drsi(4))
        for key in ("D1", "D2"):
            s = drawn[rng.randrange(len(drawn))]
            self.systems[key] = M.System(element_names(rng, 4), tuple(s.relation.rows),
                                         tuple(s.involution.image))
        for key, s in self.systems.items():
            self.write(f"{key}.sys", M.write_system(s))
        pkg.cli_ok(["twist", self.path("C2.sys"), "-o", self.path("W4.sys")])
        self.policies = {key: f"rand:{rng.randrange(2 ** 32)}" for key in ("C7", "P8", "W4", "D1")}
        self.policies["W4"] = "min"
        for key, policy in self.policies.items():
            pkg.cli_ok(["assign", "--policy", policy, self.path(f"{key}.sys"),
                        "-o", self.path(f"G{key}.grp")])
        for key in ("C7", "P8", "D2"):
            pkg.cli_ok(["twist", self.path(f"{key}.sys"), "-o", self.path(f"TW{key}.sys")])
        self.bases = {key: self.systems[key].names[rng.randrange(self.systems[key].n)]
                      for key in ("C7", "P8")}
        for key, base in self.bases.items():
            pkg.cli_ok(["kleene-sub", "--base", base, self.path(f"{key}.sys"),
                        "-o", self.path(f"KS{key}.sys")])
        for key in ("C7", "D1"):
            pkg.cli_ok(["induce", self.path(f"G{key}.grp"), "-o", self.path(f"Q{key}.sys")])
        self.rng = rng

    def write(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as handle:
            handle.write(text)

    def read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as handle:
            return handle.read()

    def warm_up(self, pkg: Package) -> None:
        p = self.path
        pkg.cli_ok(["space", p("D1.sys")])
        pkg.cli_ok(["roundtrip", p("D1.sys")])
        pkg.cli_ok(["check", "drsi", p("TWD2.sys")])
        pkg.cli_ok(["check", "props", p("TWD2.sys")])
        pkg.cli_ok(["check", "kleene", p("KSC7.sys")])
        pkg.cli_ok(["twist-op", p("GD1.grp")])
        pkg.cli_run(["hom", "--strong", p("C2.sys"), p("D1.sys")])
        pkg.cli_run(["hom", "--groupoid", p("GD1.grp"), p("GW4.grp")])
        pkg.search.canonical_form(pkg.cli.parse_groupoid_file(self.read("GD1.grp")))

    def prepare(self, pkg: Package) -> list[Op]:
        rng = random.Random(f"structure:{self.seed}")
        p = self.path
        S = dict(self.systems)
        S["W4"] = M.read_system(self.read("W4.sys"))
        G = {key: M.read_table(self.read(f"G{key}.grp")) for key in self.policies}
        ops: list[Op] = []

        def add(kind, argv, check, output=None):
            ops.append(Op(kind, check, argv=argv + (["-o", output] if output else []), output=output))

        # assign, induce, roundtrip, space
        for key, policy, to_file in (("C7", f"rand:{rng.randrange(2 ** 32)}", False),
                                     ("P8", "max", True), ("D1", "min", False),
                                     ("W4", f"rand:{rng.randrange(2 ** 32)}", True)):
            add("assign", ["assign", "--policy", policy, p(f"{key}.sys")],
                self.assign_check(S[key], policy), p(f"out-assign-{key}.grp") if to_file else None)
        for key, to_file in (("C7", False), ("P8", True)):
            add("induce", ["induce", p(f"G{key}.grp")], self.induce_check(G[key]),
                p(f"out-induce-{key}.sys") if to_file else None)
        for key, policy in (("P8", f"rand:{rng.randrange(2 ** 32)}"), ("D2", "max")):
            add("roundtrip", ["roundtrip", "--policy", policy, p(f"{key}.sys")],
                self.roundtrip_check(S[key], policy))
        for key in ("C7", "D1"):
            add("space", ["space", p(f"{key}.sys")], self.space_check(S[key]))
        # twist-products and their audits
        for key, to_file in (("C7", True), ("P8", False)):
            add("twist", ["twist", p(f"{key}.sys")], self.twist_check(S[key]),
                p(f"out-twist-{key}.sys") if to_file else None)
        for key in ("C7", "D2"):
            tw = M.read_system(self.read(f"TW{key}.sys"))
            expect(tw == M.twist(S[key]), f"set-up twist of {key} is wrong")
            add("check drsi", ["check", "drsi", p(f"TW{key}.sys")], self.drsi_check(tw))
        for key in ("C7", "D2"):
            tw = M.twist(S[key])
            add("check props", ["check", "props", p(f"TW{key}.sys")], self.props_check(tw))
        for key, to_file in (("C7", True), ("D1", False)):
            add("twist-op", ["twist-op", p(f"G{key}.grp")], self.twist_op_check(G[key]),
                p(f"out-twistop-{key}.grp") if to_file else None)
        # Kleene subsystems
        for key, to_file in (("C7", False), ("P8", True)):
            base = self.bases[key]
            add("kleene-sub", ["kleene-sub", "--base", base, p(f"{key}.sys")],
                self.kleene_sub_check(S[key], S[key].names.index(base), to_file),
                p(f"out-kleene-{key}.sys") if to_file else None)
        for key in ("C7", "P8"):
            ks = M.read_system(self.read(f"KS{key}.sys"))
            add("check kleene", ["check", "kleene", p(f"KS{key}.sys")], self.kleene_check(ks))
        # homomorphisms
        for src, dst in (("D1", "W4"), ("W4", "D1")):
            add("hom groupoid", ["hom", "--groupoid", p(f"G{src}.grp"), p(f"G{dst}.grp")],
                self.hom_check(G[src], G[dst], lambda a, b, f: M.groupoid_hom(a, b, f)))
        for src, dst in (("C2", "P8"), ("D1", "D2")):
            add("hom strong", ["hom", "--strong", p(f"{src}.sys"), p(f"{dst}.sys")],
                self.hom_check(S[src], S[dst], lambda a, b, f: M.strong_hom(a, b, f, True)))
        # quotients of G x F onto G along the first projection
        for key, to_file in (("C7", True), ("D1", False)):
            g = G[key]
            self.write(f"prod{key}.grp", M.write_table(M.table_product(g, FLIP)))
            self.write(f"proj{key}.map", M.write_map([g.names[i // 2] for i in range(2 * g.n)]))
            dst = M.read_system(self.read(f"Q{key}.sys"))
            add("quotient", ["quotient", p(f"prod{key}.grp"), p(f"proj{key}.map"), p(f"Q{key}.sys")],
                self.quotient_check(g, dst), p(f"out-quotient-{key}.grp") if to_file else None)
        # direct library calls
        search, cli = pkg.search, pkg.cli
        for key, size in (("P8", 8), ("C7", 7)):
            obj = G[key] if size == 8 else S[key]
            perm = list(range(size))
            rng.shuffle(perm)
            if isinstance(obj, M.Table):
                moved = M.relabel_table(obj, tuple(perm))
                original = cli.parse_groupoid_file(M.write_table(obj))
                target = cli.parse_groupoid_file(M.write_table(moved))
            else:
                names = [""] * size
                for i in range(size):
                    names[perm[i]] = obj.names[i]
                moved = M.relabel_system(obj, tuple(names), tuple(perm))
                original = cli.parse_system_file(M.write_system(obj))
                target = cli.parse_system_file(M.write_system(moved))
            reference = search.canonical_form(original)

            def check(result: Result, reference=reference) -> None:
                expect(result.value == reference, "canonical form changed under relabeling")
            ops.append(Op("canonical_form", check, call=lambda s=search, t=target: s.canonical_form(t),
                          label=f"canonical_form {key} {perm}"))
        for n in (3, 4):
            expected = {(s.rows, s.inv) for s in M.all_drsi(n)}

            def check(result: Result, expected=expected) -> None:
                got = [(tuple(s.relation.rows), tuple(s.involution.image)) for s in result.value]
                expect(len(got) == len(set(got)) and set(got) == expected,
                       f"{len(got)} systems listed, {len(expected)} expected")
            ops.append(Op("enumerate_drsi", check, call=lambda s=search, n=n: list(s.enumerate_drsi(n)),
                          label=f"enumerate_drsi {n}"))
        rng.shuffle(ops)
        return ops

    # -- oracles ------------------------------------------------------------

    @staticmethod
    def produced(result: Result) -> str:
        return result.file if result.file is not None else result.out

    def assign_check(self, s: M.System, policy: str):
        def check(result: Result) -> None:
            expect_code(result, 0)
            got = table_of(self.produced(result))
            expect(got == M.assign(s, policy), f"assign --policy {policy} differs")
            expect(M.induce(got) == s, "induce(assign(S)) != S")
        return check

    def induce_check(self, g: M.Table):
        def check(result: Result) -> None:
            expect_code(result, 0)
            expect(system_of(self.produced(result)) == M.induce(g), "induced system differs")
        return check

    @staticmethod
    def roundtrip_check(s: M.System, policy: str):
        def check(result: Result) -> None:
            expect(M.induce(M.assign(s, policy)) == s, "reference roundtrip fails")
            expect_code(result, 0)
            expect_text(result.out, "roundtrip: yes\n")
        return check

    @staticmethod
    def space_check(s: M.System):
        cells = M.candidates(s)
        free = [(x, y) for x in range(s.n) for y in range(s.n) if len(cells[x][y]) > 1]
        lines = [f"free cells: {len(free)}"]
        lines += [f"  {s.names[x]}|{s.names[y]} in {{{', '.join(s.names[v] for v in cells[x][y])}}}"
                  for x, y in free]
        lines.append(f"assignments: {math.prod(len(c) for row in cells for c in row)}")
        want = "\n".join(lines) + "\n"

        def check(result: Result) -> None:
            expect_code(result, 0)
            expect_text(result.out, want)
        return check

    def twist_check(self, s: M.System):
        want = M.twist(s)

        def check(result: Result) -> None:
            expect_code(result, 0)
            got = system_of(self.produced(result))
            expect(got == want, "twist-product differs")
            expect(M.is_drsi(got), "twist-product fails the drsi checks")
        return check

    @staticmethod
    def drsi_check(tw: M.System):
        def check(result: Result) -> None:
            expect(all(v is None for v in M.drsi_verdicts(tw).values()), "reference drsi fails")
            expect_code(result, 0)
            expect_text(result.out, "reflexive: yes\ndirected: yes\ninvolution: yes\n"
                                    "cone duality: yes\ndrsi: yes\n")
        return check

    @staticmethod
    def props_check(s: M.System):
        lines = []
        for label, witness in M.properties(s).items():
            if witness is None:
                lines.append(f"{label}: yes")
            else:
                lines.append(f"{label}: no (witness: {' '.join(s.names[i] for i in witness)})")
        want = "\n".join(lines) + "\n"

        def check(result: Result) -> None:
            expect_code(result, 0)
            expect_text(result.out, want)
        return check

    def twist_op_check(self, g: M.Table):
        want = M.twist_op(g)

        def check(result: Result) -> None:
            expect_code(result, 0)
            got = table_of(self.produced(result))
            expect(got == want, "twist operation differs")
            expect(M.is_sheffer_table(got.table), "twist operation is not Sheffer")
        return check

    def kleene_sub_check(self, s: M.System, a: int, to_file: bool):
        tw = M.twist(s)
        members = M.p_a_members(s, a)
        sub = M.restrict(tw, members)
        head = ("members: " + " ".join(tw.names[m] for m in members) + "\n"
                "drsi: yes\nkleene: yes\nkleene ambient: yes\nembedding: yes\n")

        def check(result: Result) -> None:
            expect(M.is_drsi(sub) and M.kleene_ok(sub), "reference subsystem fails")
            expect_code(result, 0)
            if to_file:
                expect_text(result.out, head)
                expect(system_of(result.file) == sub, "subsystem file differs")
            else:
                expect(result.out.startswith(head), "kleene-sub verdicts differ")
                expect(system_of(result.out[len(head):]) == sub, "subsystem differs")
        return check

    @staticmethod
    def kleene_check(ks: M.System):
        def check(result: Result) -> None:
            expect(M.kleene_ok(ks) and M.is_drsi(ks), "reference Kleene check fails")
            expect_code(result, 0)
            expect_text(result.out, "kleene: yes\n")
        return check

    @staticmethod
    def hom_check(src, dst, is_hom, brute_limit: int = 5000):
        def check(result: Result) -> None:
            lines = result.out.splitlines()
            expect(lines and lines[-1].startswith("found: "), "missing found line")
            maps = []
            for k, line in enumerate(lines[:-1], start=1):
                head, _, arrows = line.partition(": ")
                expect(head == f"hom {k}", f"bad hom line {line!r}")
                pairs = [a.split("->") for a in arrows.split()]
                expect([a for a, _ in pairs] == list(src.names), "hom lists the wrong sources")
                f = tuple(dst.names.index(b) for _, b in pairs)
                expect(is_hom(src, dst, f), f"map {k} is not a homomorphism")
                maps.append(f)
            expect(int(lines[-1][7:]) == len(maps), "found count differs from listed maps")
            expect(maps == sorted(set(maps)), "maps are not distinct and in order")
            if dst.n ** src.n <= brute_limit:
                every = [f for f in itertools.product(range(dst.n), repeat=src.n) if is_hom(src, dst, f)]
                expect(maps == every, f"{len(maps)} maps listed, brute force finds {len(every)}")
            expect_code(result, 0 if maps else 1)
        return check

    def quotient_check(self, g: M.Table, dst: M.System):
        want = M.Table(dst.names, g.table, dst.bottom, dst.top)

        def check(result: Result) -> None:
            expect_code(result, 0)
            got = table_of(self.produced(result))
            expect(got == want, "quotient operation differs")
            expect(M.is_sheffer_table(got.table), "quotient is not Sheffer")
        return check


WORKLOADS = {w.name: w for w in (EnumWorkload, LawcheckWorkload, StructureWorkload)}
