"""Closed-loop runner: set-up, timed rounds over a fixed op list, checks.

One client sends one op at a time; there is no concurrency beyond the
program's own.  An op is one in-process ``shefferkit.cli.main(argv)`` call
with stdout and stderr captured, or, for entry points the CLI lacks, one
direct library call.  Each round runs the whole op list in the same order,
and every run attempts whole rounds, stopping at the round boundary nearest
to ``--seconds``.  Garbage is collected between ops and never during one.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from model import OracleError
from refclock import ReferenceClock

SETUP_REPEATS = 5
PACKAGE = "shefferkit"
MODULES = ("cli", "terms", "sheffer", "relcore", "bridge", "morphisms", "twistkleene", "search")


@dataclass
class Result:
    code: Optional[int] = None
    out: str = ""
    err: str = ""
    file: Optional[str] = None
    value: object = None


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    check: Callable[[Result], None]
    argv: Optional[list] = None
    call: Optional[Callable] = None
    output: Optional[str] = None  # the file an ``-o`` op writes
    label: str = ""

    def describe(self) -> str:
        return self.label or " ".join(self.argv or [self.kind])


class Package:
    """The program's modules, imported afresh from the checkout."""

    def __init__(self, source: Path):
        for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            del sys.modules[key]
        importlib.invalidate_caches()
        top = importlib.import_module(PACKAGE)
        if Path(top.__file__).resolve().parent != (source / PACKAGE).resolve():
            raise RuntimeError(f"{PACKAGE} was imported from {top.__file__}, not from {source}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    def cli_run(self, argv: list) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return Result(code, out.getvalue(), err.getvalue())

    def cli_ok(self, argv: list) -> Result:
        """A set-up call that must succeed."""
        result = self.cli_run(argv)
        if result.code != 0:
            raise RuntimeError(f"set-up call {argv} exited {result.code}: {result.err.strip()}")
        return result


class Workload:
    """Base class: ``build`` and ``warm_up`` are set-up, ``prepare`` makes the ops."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def build(self, pkg: Package) -> None:
        """Inputs made through the program (timed as set-up)."""

    def warm_up(self, pkg: Package) -> None:
        """Calls, timed as set-up, that fill the caches before the first timed op."""

    def prepare(self, pkg: Package) -> list[Op]:
        """The seeded op list and the reference results (not timed)."""
        raise NotImplementedError


def run_op(pkg: Package, op: Op) -> Result:
    if op.output is not None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(op.output)
    if op.argv is not None:
        return pkg.cli_run(op.argv)
    return Result(value=op.call())


def read_output(op: Op, result: Result) -> None:
    if op.output is not None and os.path.exists(op.output):
        with open(op.output, encoding="utf-8") as handle:
            result.file = handle.read()


def measure(workload_cls, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    runs = root / "perfbench" / "_runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_cls.name}-{seed}-", dir=runs))
    try:
        return _measure(workload_cls, seed, seconds, trace, workdir, runs, root / "src")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload_cls, seed, seconds, trace, workdir, runs, source) -> dict:
    clock = ReferenceClock()
    setup_wall, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls(seed, workdir)
        clock.sample()
        start = time.perf_counter()
        pkg = Package(source)
        workload.build(pkg)
        workload.warm_up(pkg)
        end = time.perf_counter()
        clock.sample()
        setup_wall.append(end - start)
        setup_scaled.append((end - start) * clock.factor(start, end))

    ops = workload.prepare(pkg)
    listing = "\n".join(op.describe().replace(str(workdir), "") for op in ops)
    digest = hashlib.sha256(listing.encode()).hexdigest()[:16]
    print(f"workload {workload.name} seed {seed}: {len(ops)} ops per round, op list {digest}",
          file=sys.stderr)

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(PACKAGE)
        tracer.install()

    verified: dict[int, tuple] = {}
    spans: list[tuple[float, float]] = []
    by_kind: dict[str, list[int]] = {}
    round_spans: list[tuple[float, float]] = []
    attempted = failed = 0
    wrong: list[str] = []
    snapshots = [tracer.snapshot()] if tracer else []

    gc.collect()
    gc.freeze()
    gc.disable()
    began = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            for index, op in enumerate(ops):
                gc.collect()
                clock.sample_if_due()
                if tracer:
                    tracer.op_id = attempted
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    result = run_op(pkg, op)
                    t1 = time.perf_counter()
                except Exception:  # an op that crashes counts as failed
                    failed += 1
                    print(f"op failed: {op.describe()}\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                by_kind.setdefault(op.kind, []).append(len(spans))
                spans.append((t0, t1))
                read_output(op, result)
                key = (result.code, result.out, result.err, result.file)
                if op.call is None and verified.get(index) == key:
                    continue
                try:
                    op.check(result)
                except OracleError as exc:
                    wrong.append(f"{op.describe()}: {exc}")
                    continue
                if op.call is None:
                    verified[index] = key
            clock.sample()
            round_spans.append((round_start, time.perf_counter()))
            if tracer:
                snapshots.append(tracer.snapshot())
            # stop at the round boundary nearest to the requested run length
            elapsed = time.perf_counter() - began
            rounds_done = attempted // len(ops)
            if elapsed + elapsed / rounds_done / 2 >= seconds:
                break
    finally:
        gc.enable()
        gc.unfreeze()

    for line in wrong[:10]:
        print("wrong output:", line, file=sys.stderr)
    rounds = attempted // len(ops)
    wall = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * clock.factor(t0, t1) for t0, t1 in spans]
    metrics: dict = {}
    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    else:
        factors = [clock.factor(a, b) for a, b in round_spans]
        metrics = per_round_metrics(snapshots, factors)
        path = runs / f"trace-{workload.name}.tsv.gz"
        count = tracer.dump(path)
        print(f"trace: {count} spans written to {path}", file=sys.stderr)
    kinds = ", ".join(f"{k} {statistics.median(wall[i] for i in v) * 1e3:.1f}"
                      for k, v in sorted(by_kind.items()))
    print(f"rounds {rounds}; wall: setup_s {statistics.median(setup_wall):.4f} "
          f"ops_per_s {len(wall) / sum(wall):.4f} op_p50_ms {statistics.median(wall) * 1e3:.2f}; "
          f"reference kernel median {statistics.median(clock.durations) * 1e3:.3f} ms; "
          f"median wall ms per op kind: {kinds}", file=sys.stderr)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


COUNT_KEYS = ("calls", "nodes", "assignments")


def per_round_metrics(snapshots: list[dict], factors: list[float]) -> dict:
    """Mean per round of each traced total, times scaled by the round's
    reference factor; counts must repeat in every round."""
    rounds = [{k: after[k] - before[k] for k in after}
              for before, after in zip(snapshots, snapshots[1:])]
    out = {}
    for key in rounds[0]:
        counted = key.endswith(COUNT_KEYS)
        values = [r[key] if counted else r[key] * f for r, f in zip(rounds, factors)]
        if counted and len(set(values)) != 1:
            print(f"warning: {key} differs between rounds: {values}", file=sys.stderr)
        unit = "count" if counted else "ms"
        out[key] = {"value": sum(values) / len(values), "unit": unit}
    search_s = out.pop("search.enumeration_ms")["value"] / 1e3
    law_s = out.pop("terms.check_law_ms")["value"] / 1e3
    out["search.nodes_per_s"] = {"value": out["search.nodes"]["value"] / search_s
                                 if search_s else 0.0, "unit": "1/s"}
    out["terms.assignments_per_s"] = {"value": out["terms.assignments"]["value"] / law_s
                                      if law_s else 0.0, "unit": "1/s"}
    out["search.canonical_calls"]["unit"] = "count"
    out["sheffer.is_sheffer_calls"]["unit"] = "count"
    return out


def emit(result: dict) -> None:
    print(json.dumps(result))
