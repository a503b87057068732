#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Builds the world and its snapshot bundle from ``--seed``, boots the real
gateway (``python -m repro.serving.gateway``) as a separate process and
drives it over HTTP from this process.  Every answer is checked against a
reference.  Human-readable lines (fingerprint, every metric with its unit,
each check) go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent



def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(args, spec) -> dict:
    import numpy

    from perfbench import loadgen

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "generator_cpus": sorted(loadgen.GENERATOR_CPUS),
        "server_cpus": sorted(loadgen.SERVER_CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "open_rate_rps": {name: w["open_rate_rps"] for name, w in spec.WORKLOADS.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import loadgen

    # Before numpy loads (see loadgen.GENERATOR_CPUS).  Threads and
    # processes started from here on inherit it; each gateway is then
    # moved to loadgen.SERVER_CPUS.
    os.sched_setaffinity(0, loadgen.GENERATOR_CPUS)
    from perfbench import report, spec

    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    print("fingerprint " + json.dumps(fingerprint(args, spec), sort_keys=True))
    outcome = report.execute(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
