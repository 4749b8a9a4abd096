#!/usr/bin/env python3
"""Benchmark of greedy and beam decoding, training and EMBR in ``rnntdec``.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload toy --seed 1 --seconds 45 --trace 0

Runs one workload in one process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Per-run reports and traces go to benchmark/out/.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy", "long", "v4096")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "rnntdec"
    if not (package / "__init__.py").is_file():
        print(f"error: no rnntdec sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import rnntdec

    if Path(rnntdec.__file__).resolve().parent != package.resolve():
        print(f"error: imported rnntdec from {rnntdec.__file__}, not the checkout", file=sys.stderr)
        return 2
    import harness

    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         str(ROOT), str(HERE / "out"))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print("setup_s: " + ", ".join(f"{t:.3f}" for t in report["setup_s"])
          + "; as measured: " + ", ".join(f"{t:.3f}" for t in report["setup_s_raw"]))
    print(f"host speed (probe rate over its reference rate): {report['host_speed']:.4f}")
    for op, s in report["operations"].items():
        print(f"{op}: " + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                                    for k, v in s.items()))
    print("checks: " + json.dumps(report["checks"], sort_keys=True))
    for failure in report["failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    ops = report["operations"].values()
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": sum(s["attempted"] for s in ops),
        "failed": sum(s["failed"] for s in ops),
        "metrics": report["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
