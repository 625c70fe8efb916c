"""hu-shadow benchmark: run one workload, check every verdict, print the metrics.

    python3 perfbench/run.py --workload {fixtures-cli,long-horizon,verify}
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-references

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` and nothing needs installing.  Human-readable
lines start with ``#``; the last line of standard output is the JSON
result.  ``--workload all`` runs every workload untraced and traced, each
in its own process.  ``--record-references`` re-records ``references.json`` at seed 0;
do that only at a commit whose outputs are the accepted ones.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("fixtures-cli", "long-horizon", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    problem = None
    if not (SRC / "hu_shadow" / "__init__.py").is_file():
        problem = f"no hu_shadow package under {SRC}; run inside a checkout of the repository"
    elif not SPEC.is_file():
        problem = f"missing {SPEC}"
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, __file__, "--workload", workload, "--trace", trace,
                            "--seed", str(args.seed), "--seconds", str(args.seconds)]).returncode
            for workload in WORKLOADS
            for trace in ("0", "1")
        )
    sys.path.insert(0, str(SRC))
    import harness

    if args.record_references:
        return harness.record_references()
    return harness.run(args, json.loads(SPEC.read_text()))


if __name__ == "__main__":
    sys.exit(main())
