"""Per-module spans around the program's public entry points.

``Tracer.install`` wraps every function named in the ``__all__`` of each
layer module, plus ``cli.main`` and ``cli.build_parser``, and rebinds each
wrapper in every loaded package module that holds the original.  Inner-loop
helpers (``relcore.bits_of``) stay unwrapped.  Generator functions are timed
over their iteration only: while a generator is suspended, the time goes to
whoever consumes it.

A span is (name, start, end, parent span, op id).  Spans live in compact
arrays and are written out by ``dump`` when the run ends.  Self time is
charged as it happens: the clock between two events goes to the span on top
of the stack, which equals a span's active time minus its child spans.
Only calls on the thread that installed the tracer are recorded; the time
the main thread waits for a worker thread goes to the waiting span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import threading
import time
from array import array
from collections import Counter

LAYERS = ("cli", "terms", "sheffer", "relcore", "bridge", "morphisms", "twistkleene", "search")
UNWRAPPED = {"relcore.bits_of"}
EXTRA = ("cli.main", "cli.build_parser")

# Inclusive-time groups reported as their own per-layer metrics.
GROUPS = {
    "search.canonical_ms": ("search.canonical_form",),
    "terms.parse_ms": ("terms.parse_law", "terms.parse_term"),
    "cli.build_parser_ms": ("cli.build_parser",),
    "cli.file_io_ms": tuple(f"cli.{verb}_{kind}_file" for verb in ("parse", "format")
                            for kind in ("system", "groupoid", "map")),
    "relcore.validate_drsi_ms": ("relcore.validate_drsi",),
}


class Tracer:
    def __init__(self, package: str = "shefferkit"):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, name, active since, active total]
        self.last = time.perf_counter()
        self.op_id = -1
        self.thread = threading.get_ident()
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    # -- span bookkeeping -------------------------------------------------

    def _charge(self, now: float) -> None:
        if self.stack:
            self.self_s[self.stack[-1][1]] += now - self.last
        self.last = now

    def open(self, name: str) -> list:
        now = time.perf_counter()
        self._charge(now)
        ident = self.name_ids.get(name)
        if ident is None:
            ident = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(ident)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(now)
        self.span_end.append(now)
        self.calls[name] += 1
        frame = [index, name, now, 0.0]
        self.stack.append(frame)
        return frame

    def suspend(self, frame: list) -> None:
        now = time.perf_counter()
        self._charge(now)
        frame[3] += now - frame[2]
        self.stack.remove(frame)

    def resume(self, frame: list) -> None:
        now = time.perf_counter()
        self._charge(now)
        frame[2] = now
        self.stack.append(frame)

    def close(self, frame: list) -> None:
        now = time.perf_counter()
        if frame in self.stack:
            self._charge(now)
            frame[3] += now - frame[2]
            self.stack.remove(frame)
        self.span_end[frame[0]] = now
        self.incl_s[frame[1]] += frame[3]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, on_result):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def iterate(gen):
                if threading.get_ident() != tracer.thread:
                    yield from gen
                    return
                frame = tracer.open(name)
                try:
                    while True:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        tracer.suspend(frame)
                        yield item
                        tracer.resume(frame)
                finally:
                    tracer.close(frame)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return iterate(fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_result is not None:
                on_result(tracer.counters, result)
            return result
        return wrapper

    def install(self) -> int:
        """Wrap the entry points; returns how many functions were wrapped."""
        on_result = {
            "search.run_enumeration": lambda c, r: c.update({"search.nodes": r.nodes}),
            "terms.check_law": lambda c, r: c.update({"terms.assignments": r.checked}),
        }
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            names = [n for n in module.__all__]
            names += [e.split(".")[1] for e in EXTRA if e.startswith(layer + ".")]
            for attr in names:
                fn = getattr(module, attr)
                qual = f"{layer}.{attr}"
                if qual in UNWRAPPED or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                originals[id(fn)] = (fn, self._wrap(fn, qual, on_result.get(qual)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return len(originals)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative totals; differences of two snapshots give one round."""
        out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        for name, seconds in self.self_s.items():
            out[name.split(".")[0] + ".self_ms"] += seconds * 1e3
        for name, count in self.calls.items():
            out[name.split(".")[0] + ".calls"] += count
        for group, members in GROUPS.items():
            out[group] = sum(self.incl_s[m] for m in members) * 1e3
        out["search.canonical_calls"] = self.calls["search.canonical_form"]
        out["sheffer.is_sheffer_calls"] = self.calls["sheffer.is_sheffer"]
        out["search.nodes"] = self.counters["search.nodes"]
        out["search.enumeration_ms"] = self.incl_s["search.run_enumeration"] * 1e3
        out["terms.assignments"] = self.counters["terms.assignments"]
        out["terms.check_law_ms"] = self.incl_s["terms.check_law"] * 1e3
        return out

    def dump(self, path) -> int:
        """Write every span as one tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("# names\t" + "\t".join(self.names) + "\n")
            handle.write("# op\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                handle.write(f"{self.span_op[i]}\t{self.span_name[i]}\t{self.span_parent[i]}\t"
                             f"{self.span_start[i]:.7f}\t{self.span_end[i]:.7f}\n")
        return len(self.span_start)
