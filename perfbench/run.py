"""Run one benchmark workload and print its metrics as the last output line.

Usage, from the repository root::

    python3 perfbench/run.py --workload disclose --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run that reports the per-layer metrics.  The line
before the result carries the host and source identity, the sample counts
and, for traced runs, the path of the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # Same seed, same string hashes: set and dict layouts repeat too.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # Workers, the served subprocess and temporary files all stay inside the checkout.
    source = str(ROOT / "src")
    sys.path[:0] = [source, str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = harness.traced(args.workload, args.seed, args.seconds, workdir, trace_path)
        else:
            result = harness.end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = dict(result.pop("info"), workload=args.workload, seed=args.seed, trace=args.trace)
    info["environment"] = harness.environment(ROOT)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
