#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-dense --seed 1 --seconds 36 --trace 0

Workloads: ``cold-dense``, ``update-stream``, ``serve-durable`` (see
``perfbench/README.md``).  The same seed gives the same inputs.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``;
with ``--trace 1`` it runs a fixed amount of the same work plain and
traced and reports the per-layer metrics.

Output: a ``provenance`` line, a ``run`` line, one ``<metric> <value>
<unit>`` line per metric, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every operation completed, every answer matched the
independent exact solver and (traced) the exact counts matched any
earlier traced run of this seed, code and backends; 1 otherwise (a
metric that could not be measured prints as null); 2 when not run from
a checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
#: the benchmark's directory inside the checkout: per-run scratch and
#: the exact counts of earlier traced runs
STATE = ".perfbench"
WORKLOADS = ("cold-dense", "update-stream", "serve-durable")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input sizes; smoke is for the benchmark's own tests")
    return ap.parse_args(argv)


def check_repeat(path: Path, counts: Dict[str, float]) -> Optional[str]:
    """Compare ``counts`` with the ones an earlier traced run recorded at
    ``path`` (or record them); a description of any mismatch."""
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            diff = {k: [recorded.get(k), v] for k, v in counts.items()
                    if recorded.get(k) != v}
            return f"exact counts differ from an earlier traced run: {diff}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not ((root / "src" / "repro" / "__init__.py").is_file()
            and (root / "scripts" / "build_corpus.py").is_file()):
        print("perfbench: run from the root of a checkout "
              "(src/repro and scripts/build_corpus.py not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src"), str(root / "scripts")]

    import common
    import metrics
    import workloads

    state = root / STATE
    tmp = state / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Ctx(root=root, tmp=tmp, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), size=workloads.SIZES[args.size])
    try:
        outcome = workloads.run(args.workload, ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prov = common.provenance(root)
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = {name: float(outcome.metrics[name]) for name, _ in catalogue}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        outcome.problems.append(f"non-finite metrics (no op completed?): {bad}")
    if outcome.failed:
        outcome.problems.append(
            f"{outcome.failed} of {outcome.attempted} operations failed")
    if args.trace and outcome.failed == 0 and outcome.wrong == 0:
        # the counts depend on the code and on the backends in effect: the
        # reference kernels, for one, count SMAWK evaluations and never
        # call the flat range tree
        code = prov["src_sha256"][:12] + prov["bench_sha256"][:12]
        modes = f"{prov['kernels_mode']}-{prov['executor_backend']}"
        record = state / (f"counts-{args.workload}-{args.size}-seed{args.seed}"
                          f"-{modes}-{code}.json")
        problem = check_repeat(record, metrics.exact_counts(values))
        if problem:
            outcome.problems.append(problem)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "wrong": outcome.wrong,
        "problems": outcome.problems, **outcome.info,
    }, sort_keys=True, default=str))
    for name, unit in catalogue:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name] if math.isfinite(values[name])
                           else None, "unit": unit}
                    for name, unit in catalogue},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
