"""Benchmark of the ergocert CLI on generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mixing-n50 --seed 1 --seconds 20 --trace 0

`--trace 0` times each CLI command as a child process and prints the
end-to-end metrics of BENCHMARK.json; `--trace 1` makes the traced
in-process run and prints the per-layer metrics. `--smoke` shrinks the
workload for the benchmark's own tests. The last line of output is the
result object.
"""

import os
import sys

# Fixed for this process and every command it launches, identically on every
# commit. OpenBLAS reads its thread count once, when numpy loads it, so this
# must run before anything imports numpy. With the default two threads a
# 101x101 matmul sometimes took 16 ms instead of 0.2 ms.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

if __name__ == "__main__":
    os.environ.update(FIXED_ENV)
    import bench

    sys.exit(bench.main(sys.argv[1:]))
