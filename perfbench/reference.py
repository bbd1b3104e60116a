"""Reference figures at serve-long scale: fused_rank against the quadratic
mmr_select and against the exact incremental greedy in checks.py.

    python3 perfbench/reference.py

Prints one JSON object: median milliseconds per request for each path on
the serve-long inputs of seed 1, plus the environment. The quadratic
teacher runs once per request, the other two paths REPEATS times.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from time import perf_counter

import run

SEED = 1
REPEATS = 3


def median_ms(fn, items, repeats):
    times = []
    for _ in range(repeats):
        for item in items:
            start = perf_counter()
            fn(item)
            times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    os.environ.update({var: "1" for var in run.THREAD_VARS})
    pkg = run.import_package()
    import numpy as np

    import checks
    from inputs import FULL
    from workloads import read_raw

    paths = run.make_inputs("serve-long", SEED)
    ds = pkg.data.load_jsonl(paths["data"])
    model = pkg.distill.load_checkpoint(paths["checkpoint"])
    weights = checks.Weights.from_checkpoint_files(paths["checkpoint"])
    pairs = list(zip(ds.requests, read_raw(paths["data"])))
    K = FULL.long_K
    lam = model.config.lam
    figures = {
        "N": FULL.long_n, "K": K, "requests": len(pairs),
        "fused_rank_ms": median_ms(
            lambda p: pkg.evaluation.fused_rank(model, p[0], K, FULL.gamma),
            pairs, REPEATS),
        "mmr_select_quadratic_ms": median_ms(
            lambda p: pkg.teacher.mmr_select(p[0], model, lam, K), pairs, 1),
        "incremental_greedy_ms": median_ms(
            lambda p: weights.greedy(p[1], K), pairs, REPEATS),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]
            ["blas"]["name"],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(),
        },
    }
    print(json.dumps(figures, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
