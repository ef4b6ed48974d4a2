"""One benchmark process: import minterp, optionally trace, run one bound-audit.

Usage: python3 child.py <job.json>

The job file names the source tree, the config file, the output
directory, the pool thread count, whether to trace, and where to write
the result.  The launching process puts its CLOCK_MONOTONIC reading in
PERFBENCH_LAUNCHED just before starting this process, so ``setup_s``
covers interpreter start plus the numpy and minterp imports.  A job with
no config only measures set-up.
"""

import json
import os
import resource
import sys
import time

# BLAS and OpenMP pools are pinned to one thread before numpy loads; the
# bound-audit trial pool supplies the parallelism.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(job_path: str) -> int:
    launched = float(os.environ["PERFBENCH_LAUNCHED"])
    with open(job_path) as fh:
        job = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, job["src"])

    import numpy as np
    from minterp import cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"setup_s": time.monotonic() - launched, "env": environment(np)}

    if job["config"] is not None:
        argv = ["bound-audit", "--config", job["config"], "--out", job["out"],
                "--threads", str(job["threads"])]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if code != 0:
            print(f"bound-audit exited with {code}", file=sys.stderr)
            return 1
        result.update(wall_s=wall, cpu_s=cpu,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.dump(os.path.join(job["out"], "spans.json"))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
