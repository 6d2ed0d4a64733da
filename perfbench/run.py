"""Run one benchmark workload against the shefferkit sources of this checkout.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "shefferkit" / "__init__.py").is_file():
        print(f"error: no shefferkit sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (use {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    result = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT)
    harness.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
