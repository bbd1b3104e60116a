"""divrank benchmark: one workload per process, one JSON line of results.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The package is imported from its
src/ directory, never from an installed copy. With --trace 0 the last line
of standard output carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["serve", "serve-long", "train"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    """The divrank package under SRC; exits 2 when the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "divrank", "__init__.py")):
        sys.exit(f"error: no divrank package under {SRC}")
    sys.path.insert(0, SRC)
    import divrank
    import divrank.autodiff
    import divrank.backbone
    import divrank.cce
    import divrank.data
    import divrank.distill
    import divrank.evaluation
    import divrank.teacher

    if os.path.dirname(os.path.dirname(divrank.__file__)) != SRC:
        sys.exit(f"error: divrank was imported from {divrank.__file__}")
    return divrank


def make_inputs(workload, seed):
    """Inputs come from a child process; it has ended when this returns."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload",
         workload, "--seed", str(seed), "--work", WORK, "--src", SRC],
        stdout=subprocess.PIPE, check=True, timeout=900)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    pkg = import_package()
    import checks
    from inputs import FULL
    from workloads import WORKLOADS

    paths = make_inputs(args.workload, args.seed)
    try:
        loop, metrics = WORKLOADS[args.workload](pkg, paths, FULL,
                                                 args.seconds, args.trace)
    except checks.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # a request file is cheap to make again and up to 8 MB
        os.remove(paths["data"])
    for (op, rid), err in sorted(loop.failures.items()):
        print(f"failed: {op} {rid}: {err}", file=sys.stderr)
    if loop.tracer:
        if loop.tracer.absent:
            print("absent from the package: " + ", ".join(loop.tracer.absent),
                  file=sys.stderr)
        loop.tracer.dump(os.path.join(
            WORK, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps({
        "correct": True, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
