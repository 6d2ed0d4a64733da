"""Self-test of the benchmark: the oracles reject corrupted output, and the
traced and untraced runs attempt the same ops.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  Kept out of the tier-1 test paths; it runs
the program a few dozen times and takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import model as M  # noqa: E402
from workloads import EnumWorkload, LawcheckWorkload, StructureWorkload  # noqa: E402

FAILURES: list[str] = []


def verdict(label: str, ok: bool) -> None:
    print(("ok    " if ok else "FAIL  ") + label)
    if not ok:
        FAILURES.append(label)


def rejects(op: harness.Op, result: harness.Result) -> bool:
    try:
        op.check(result)
    except M.OracleError:
        return True
    return False


def run(pkg: harness.Package, op: harness.Op) -> harness.Result:
    result = harness.run_op(pkg, op)
    harness.read_output(op, result)
    return result


def corrupted(result: harness.Result, **changes) -> harness.Result:
    fields = dict(code=result.code, out=result.out, err=result.err, file=result.file,
                  value=result.value)
    fields.update(changes)
    return harness.Result(**fields)


def flip_cell(text: str) -> str:
    """Change the first table entry to another element."""
    lines = text.split("\n")
    names = next(line for line in lines if line.startswith("elements ")).split()[1:]
    row = lines.index("table") + 1
    cells = lines[row].split()
    cells[0] = names[(names.index(cells[0]) + 1) % len(names)]
    lines[row] = " ".join(cells)
    return "\n".join(lines)


def first(ops, kind: str, needle: str = "") -> harness.Op:
    return next(op for op in ops if op.kind == kind and needle in op.describe())


def check_oracles(pkg: harness.Package, workdir: Path) -> None:
    # law checks: a wrong counterexample and a short scan are both caught
    law = LawcheckWorkload(7, workdir)
    law.build(pkg)
    ops = law.prepare(pkg)
    op = first(ops, "check law early")
    good = run(pkg, op)
    verdict("law oracle accepts the program's counterexample", not rejects(op, good))
    pair = re.search(r"counterexample: (\S+)=(\S+)", good.out)
    names = M.read_table(open(op.argv[-1], encoding="utf-8").read()).names
    other = names[(names.index(pair.group(2)) + 1) % len(names)]
    wrong = good.out.replace(pair.group(0), f"counterexample: {pair.group(1)}={other}", 1)
    verdict("law oracle rejects a wrong counterexample", rejects(op, corrupted(good, out=wrong)))
    op = first(ops, "check law full")
    good = run(pkg, op)
    short = re.sub(r"checked: (\d+)", lambda m: f"checked: {int(m.group(1)) - 1}", good.out)
    verdict("law oracle accepts a full scan", not rejects(op, good))
    verdict("law oracle rejects a short scan", rejects(op, corrupted(good, out=short)))

    # enumeration: a dropped model and a wrong count are caught
    enum = EnumWorkload(7, workdir)
    ops = enum.prepare(pkg)
    op = first(ops, "enumerate bounds", "BOUND0")
    good = run(pkg, op)
    blocks = good.out.split("\n\n")
    dropped = "\n\n".join(re.sub(r"^# model \d+", f"# model {k}", b)
                          for k, b in enumerate(blocks[:3] + blocks[4:], start=1))
    verdict("enum oracle accepts the model list", not rejects(op, good))
    verdict("enum oracle rejects a dropped model", rejects(op, corrupted(good, out=dropped)))
    verdict("enum oracle rejects a flipped cell", rejects(op, corrupted(good, out=flip_cell(good.out))))
    op = next(op for op in ops if "--count" in op.argv and "-n" in op.argv and "3" in op.argv)
    good = run(pkg, op)
    verdict("enum oracle rejects a wrong count",
            rejects(op, corrupted(good, out=f"{int(good.out) + 1}\n")))

    # constructions: flipped cells, a changed relation and a dropped map are caught
    structure = StructureWorkload(7, workdir)
    structure.build(pkg)
    ops = structure.prepare(pkg)
    for kind in ("assign", "twist-op", "quotient"):
        op = first(ops, kind)
        good = run(pkg, op)
        field = "file" if good.file is not None else "out"
        bad = corrupted(good, **{field: flip_cell(getattr(good, field))})
        verdict(f"{kind} oracle accepts the program's table", not rejects(op, good))
        verdict(f"{kind} oracle rejects a flipped cell", rejects(op, bad))
    op = first(ops, "twist")
    good = run(pkg, op)
    text = good.file if good.file is not None else good.out
    row = text.split("\n").index("relation") + 1
    lines = text.split("\n")
    lines[row] = " ".join("1" if c == "0" else "0" for c in lines[row].split())
    field = "file" if good.file is not None else "out"
    verdict("twist oracle rejects a changed relation row",
            rejects(op, corrupted(good, **{field: "\n".join(lines)})))
    for op in ops:
        if op.kind.startswith("hom"):
            good = run(pkg, op)
            lines = good.out.splitlines()
            if len(lines) > 1:
                fewer = "\n".join(lines[1:-1] + [f"found: {len(lines) - 2}"]) + "\n"
                verdict(f"{op.kind} oracle rejects a dropped map",
                        rejects(op, corrupted(good, out=fewer, code=0 if len(lines) > 2 else 1)))
                break
    op = first(ops, "canonical_form")
    good = run(pkg, op)
    verdict("canonical_form oracle rejects another structure's form",
            rejects(op, corrupted(good, value=M.CATALOG_LAWS)))


def check_trace_parity() -> None:
    for workload in ("lawcheck", "structure", "enum"):
        seen = []
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            match = re.search(r"(\d+) ops per round, op list (\w+)", proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            per_round = int(match.group(1))
            seen.append(match.group(2))
            verdict(f"{workload} trace={trace}: exit 0, correct, whole rounds",
                    proc.returncode == 0 and result["correct"] and result["failed"] == 0
                    and result["attempted"] % per_round == 0)
        verdict(f"{workload}: traced and untraced runs attempt the same ops", seen[0] == seen[1])


def main() -> int:
    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=runs))
    try:
        pkg = harness.Package(ROOT / "src")
        check_oracles(pkg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_trace_parity()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
