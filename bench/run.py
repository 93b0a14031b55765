"""fput2d benchmark: time complete, checked runs through the public API.

    python3 bench/run.py --workload strain_eps0.2 --seed 2026 --seconds 55 --trace 0

Run from the repository root.  The program is imported from `src/` of the
same checkout.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The full result (every
operation, the environment, the setup samples) is written to `bench/out/`,
and a traced run also writes its spans there.  `reference.json` holds the
reference errors the checks use, `baseline.json` the figures measured when
the benchmark was defined, and `test_bench.py` is a fast self-check.

Exit status: 0 after a measurement (even when operations failed; see
`correct`), 2 when the fput2d sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# the pool width and the native thread pools change every timing; pin them
# before numpy loads
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FPUT2D_THREADS": "2",
}


def parse_args(workloads, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "fput2d" / "__init__.py").is_file():
        print(f"bench: no fput2d sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import fput2d

    if Path(fput2d.__file__).resolve().parent != SRC / "fput2d":
        print(f"bench: imported fput2d from {fput2d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(workloads, argv)
    OUT_DIR.mkdir(exist_ok=True)
    summary = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), OUT_DIR, SRC)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(summary, indent=1))
    result = summary["result"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed, failure_rate {summary['failure_rate']:.4g}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
