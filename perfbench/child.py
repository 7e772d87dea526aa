"""One benchmark sample: a fresh process that runs the ntkdistill CLI once.

    python3 perfbench/child.py --kind KIND --config CFG --out DIR --seed N \
        --result FILE [--trace SPANS_FILE] [--environment] [--setup-only]

It imports ``ntkdistill`` and loads the config (the set-up that
``setup_s`` covers), then times ``ntkdistill.cli.main`` with
``--threads 1``.  With ``--trace`` the span tracer is installed around that
call and removed afterwards.  With ``--setup-only`` it stops once the
set-up is done.  The timings, the exit code and (with
``--environment``) the interpreter, library and machine details go to the
JSON result file; the parent reads peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up; time nothing else")
    args = parser.parse_args()

    import ntkdistill
    from ntkdistill import cli
    from ntkdistill.experiments import estimate_cost, load_config

    cfg = load_config(args.config)
    argv = [args.kind, "--config", args.config, "--out", args.out,
            "--seed", str(args.seed), "--threads", "1"]
    result = {"module_file": ntkdistill.__file__}

    if args.setup_only:
        result["runner_start"] = time.monotonic()
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        close = tracer.root("cli.main")
        start = time.monotonic()
        try:
            status = cli.main(argv)
        finally:
            end = time.monotonic()
            close()
            tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["wrappers_remaining"] = tracer.wrappers_remaining()
        with open(args.trace, "w") as fh:
            json.dump(tracer.span_table(), fh)
    else:
        start = time.monotonic()
        status = cli.main(argv)
        end = time.monotonic()

    result.update(runner_start=start, run_s=end - start, exit_code=status,
                  estimate_cost=estimate_cost(cfg))
    if args.environment:
        result["environment"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
