"""ntkdistill benchmark: fresh-process CLI runs, timed end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --record-reference

Run it from the repository root.  Each sample is a fresh ``python3``
process (``perfbench/child.py``) that imports ``ntkdistill`` from ``src/``
and calls ``ntkdistill.cli.main`` on the workload's config with
``--threads 1`` and every BLAS thread variable pinned to 1.  Samples run one
after another until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the human-readable report.  A full
result file, environment included, goes to ``.perfbench/results/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import outputcheck

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("risk-oracle", "ineff-analytic", "ntk-wide")
# largest relative change of any CSV value that still counts as rounding
MAX_REL_DEV = 1e-8
# every sample must end early enough for the whole run to finish in 180 s
DEADLINE_S = 170.0
# set-up-only children per run, besides the set-up of every untraced sample
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _ratio(a, b):
    return a / b if b else 0.0


def _self(name):
    return lambda t: t["layers"].get(name, {}).get("self_s", 0.0)


def _total(name):
    return lambda t: t["layers"].get(name, {}).get("total_s", 0.0)


def _count(name):
    return lambda t: t["counts"].get(name, 0.0)


def _step_ms(span, epochs):
    return lambda t: 1e3 * _ratio(_total(span)(t), _count(epochs)(t))


# (name, unit, value from one traced sample's summary); the run-level
# metrics traced_run_s and trace_overhead_frac are added separately
PER_LAYER = (
    ("experiments.unattributed_s", "s", _self("cli.main")),
    ("network.train_linearized.self_s", "s", _self("network.train_linearized")),
    ("network.oracle_step_ms", "ms",
     _step_ms("network.train_linearized", "network.train_linearized.epochs")),
    ("network.train_teacher.self_s", "s", _self("network.train_teacher")),
    ("network.teacher_step_ms", "ms",
     _step_ms("network.train_teacher", "network.train_teacher.epochs")),
    ("network.forward.self_s", "s", _self("network.forward")),
    ("network.forward.rows", "count", _count("network.forward.rows")),
    ("network.feature_dot.self_s", "s", _self("network.feature_dot")),
    ("network.feature_dot.rows", "count", _count("network.feature_dot.rows")),
    ("network.init_params.self_s", "s", _self("network.init_params")),
    ("network.init_params.values", "count", _count("network.init_params.values")),
    ("network.init_params.bytes_computed", "bytes",
     lambda t: 8 * _count("network.init_params.values")(t)),
    ("kernel.analytic_ntk_gram.self_s", "s", _self("kernel.analytic_ntk_gram")),
    ("kernel.analytic_ntk_gram.entries", "count", _count("kernel.analytic_ntk_gram.entries")),
    ("kernel.empirical_ntk_gram.self_s", "s", _self("kernel.empirical_ntk_gram")),
    ("kernel.empirical_ntk_gram.flops_computed", "flop",
     _count("kernel.empirical_ntk_gram.flops_computed")),
    ("kernel.empirical_ntk_diag.self_s", "s", _self("kernel.empirical_ntk_diag")),
    ("kernel.empirical_ntk_diag.rows", "count", _count("kernel.empirical_ntk_diag.rows")),
    ("linalg.cholesky.self_s", "s", _self("linalg.cholesky")),
    ("linalg.factorizations", "count", _count("linalg.factorizations")),
    ("linalg.jitter_escalations", "count", _count("linalg.jitter_escalations")),
    ("linalg.solve.self_s", "s", _self("linalg.solve")),
    ("linalg.half_solve.self_s", "s", _self("linalg.half_solve")),
    ("linalg.solves_per_factorization", "ratio",
     lambda t: _ratio(_count("linalg.solves")(t),
                      _count("linalg.factorizations")(t) + _count("linalg.jitter_escalations")(t))),
    ("distillation.effective_logits.self_s", "s", _self("distillation.effective_logits")),
    ("distillation.effective_logits.entries", "count",
     _count("distillation.effective_logits.entries")),
    ("distillation.residual_evals", "count", _count("distillation.residual_evals")),
    ("distillation.residual_evals_per_call", "ratio",
     lambda t: _ratio(_count("distillation.residual_evals")(t),
                      t["layers"].get("distillation.effective_logits", {}).get("calls", 0))),
    ("metrics.data_inefficiency.self_s", "s", _self("metrics.data_inefficiency")),
    ("metrics.empirical_risk.total_s", "s", _total("metrics.empirical_risk")),
    ("metrics.angle_distribution.total_s", "s", _total("metrics.angle_distribution")),
    ("metrics.mc_samples", "count", _count("metrics.mc_samples")),
    ("tasks.Mixture.values.self_s", "s", _self("tasks.Mixture.values")),
    ("tasks.mode_evals", "count", _count("tasks.mode_evals")),
)
RUN_LEVEL = (("traced_run_s", "s"), ("trace_overhead_frac", "ratio"),
             ("experiments.records", "count"))


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, root: str, workload: str, seed: int | None):
        self.root = root
        self.workload = workload
        self.config_path = os.path.join(BENCH_DIR, "workloads", workload + ".json")
        with open(self.config_path) as fh:
            self.config = json.load(fh)
        self.kind = self.config["experiment"]
        self.seed = self.config["seed"] if seed is None else seed
        self.reference_path = os.path.join(
            BENCH_DIR, "references", f"{workload}-seed{self.seed}.csv")
        text = outputcheck.read_optional(self.reference_path)
        self.reference = (None if text is None
                          else outputcheck.keyed_values(outputcheck.read_rows(text)))
        self.work = os.path.join(root, ".perfbench", "work", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({k: "1" for k in THREAD_VARS})
        self.started = time.monotonic()
        self.samples: list[dict] = []
        self.setup_times: list[float] = []

    def _wait(self, proc):
        """Reap ``proc``; kill it at the deadline.  Returns (exit code, rusage).

        The parent blocks in ``wait4`` rather than polling, so it stays off
        the CPU while the child is timed.
        """
        killer = threading.Timer(max(DEADLINE_S - self.elapsed(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def warm_up(self) -> int:
        """Import once so the byte-code cache and page cache are warm."""
        proc = subprocess.Popen([sys.executable, "-c", "import ntkdistill.cli"],
                                env=self.env, cwd=self.root)
        return self._wait(proc)[0]

    def _child(self, out: str, result_path: str) -> list[str]:
        return [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--kind", self.kind,
                "--config", self.config_path, "--out", out, "--seed", str(self.seed),
                "--result", result_path]

    def setup_sample(self) -> None:
        """Time one set-up alone: spawn, import ntkdistill, load the config."""
        result_path = os.path.join(self.work, f"setup{len(self.setup_times)}.json")
        spawned = time.monotonic()
        proc = subprocess.Popen(self._child(self.work, result_path) + ["--setup-only"],
                                env=self.env, cwd=self.root)
        code = self._wait(proc)[0]
        result = json.loads(outputcheck.read_optional(result_path) or "{}")
        if code != 0 or "runner_start" not in result:
            raise RuntimeError(f"set-up sample exited with {code}")
        self.setup_times.append(result["runner_start"] - spawned)

    def sample(self, trace: bool) -> dict:
        """Run one child; returns its timings, checks and trace summary."""
        i = len(self.samples)
        out = os.path.join(self.work, f"out{i}")
        result_path = os.path.join(self.work, f"result{i}.json")
        cmd = self._child(out, result_path)
        if trace:
            cmd += ["--trace", os.path.join(self.work, f"spans{i}.json")]
        if i == 0:
            cmd.append("--environment")
        with open(os.path.join(self.work, f"child{i}.log"), "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdout=log, stderr=subprocess.STDOUT)
            code, usage = self._wait(proc)
        result = json.loads(outputcheck.read_optional(result_path) or "{}")
        stem = os.path.join(out, self.kind.replace("-", "_"))
        check = outputcheck.check_run(
            result.get("exit_code", code or 1),
            outputcheck.read_optional(stem + ".csv"),
            outputcheck.read_optional(stem + "_manifest.json"),
            self.reference,
        )
        if code != 0:
            tail = (outputcheck.read_optional(log.name) or "").strip().splitlines()[-1:]
            check["failures"].insert(0, f"child exited with {code}: {' '.join(tail)}")
        expected_src = os.path.join(self.root, "src", "ntkdistill")
        if result and not result["module_file"].startswith(expected_src):
            check["failures"].append(f"imported {result['module_file']}, not {expected_src}")
        manifest = json.loads(outputcheck.read_optional(stem + "_manifest.json") or "{}")
        sample = {
            "index": i,
            "trace": trace,
            "run_s": result.get("run_s"),
            "setup_s": result["runner_start"] - spawned if result else None,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit_code": result.get("exit_code", code),
            "records": manifest.get("records"),
            "failures": check["failures"],
            "max_rel_dev": check["max_rel_dev"],
            "values": check["values"],
            "estimate_cost": result.get("estimate_cost"),
            "environment": result.get("environment"),
            "trace_summary": result.get("trace"),
        }
        self.samples.append(sample)
        return sample

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def determinism_failures(samples: list[dict]) -> list[str]:
    """Every sample of one seed must produce exactly the first sample's values."""
    first = next((s["values"] for s in samples if s["values"]), None)
    out = []
    for s in samples:
        if s["values"] is None or first is None:
            continue
        dev, same_keys = outputcheck.compare(s["values"], first)
        if dev != 0.0 or not same_keys:
            out.append(f"sample {s['index']} differs from sample 0 (max rel dev {dev:.3e})")
    return out


def trace_checks(traced: list[dict]) -> list[str]:
    """Counts repeat exactly; self times sum to the run; wrappers are gone."""
    problems = []
    summaries = [s["trace_summary"] for s in traced if s["trace_summary"]]
    for i, t in enumerate(summaries):
        root_s = t["layers"]["cli.main"]["total_s"]
        total_self = sum(t["thread_self_s"].values())
        if abs(total_self - root_s) > 1e-9 * max(root_s, 1.0):
            problems.append(f"traced sample {i}: self times sum to {total_self!r}, "
                            f"traced run_s is {root_s!r}")
        if t["wrappers_remaining"]:
            problems.append(f"traced sample {i}: wrappers left installed: "
                            f"{t['wrappers_remaining']}")

    def counts(t, records):
        calls = {k: v["calls"] for k, v in t["layers"].items()}
        return calls, t["counts"], records

    keyed = [counts(s["trace_summary"], s["records"]) for s in traced if s["trace_summary"]]
    if any(k != keyed[0] for k in keyed[1:]):
        problems.append("counts differ between traced samples")
    return problems


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    summaries = [s["trace_summary"] for s in traced]
    metrics = {name: statistics.median(fn(t) for t in summaries) for name, _, fn in PER_LAYER}
    traced_s = statistics.median(t["layers"]["cli.main"]["total_s"] for t in summaries)
    metrics["traced_run_s"] = traced_s
    metrics["trace_overhead_frac"] = traced_s / statistics.median(
        s["run_s"] for s in untraced) - 1.0
    metrics["experiments.records"] = traced[0]["records"]
    return metrics


def report(bench: Bench, trace: bool) -> tuple[dict, dict]:
    """Print the report lines; return (stdout JSON object, result file body)."""
    samples = bench.samples
    ok = [s for s in samples if not s["failures"]]
    timed = [s for s in samples if s["run_s"] is not None]
    untraced = [s for s in timed if not s["trace"]]
    traced = [s for s in timed if s["trace"] and s["trace_summary"]]
    checks = determinism_failures(samples)
    if trace:
        checks += trace_checks(traced)
    devs = [s["max_rel_dev"] for s in samples if s["max_rel_dev"] is not None]
    max_dev = max(devs) if bench.reference is not None and devs else None
    failed = len(samples) - len(ok)
    correct = (failed == 0 and not checks and (max_dev is None or max_dev <= MAX_REL_DEV)
               and bool(untraced) and (bool(traced) or not trace))

    print(f"workload {bench.workload} ({bench.kind}), seed {bench.seed}, "
          f"{len(samples)} samples ({len(untraced)} untraced, {len(traced)} traced) "
          f"in {bench.elapsed():.1f} s")
    summary = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in untraced]
        if name == "setup_s":
            values += bench.setup_times
        if values:
            q1, med, q3 = quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "count": len(values),
                             "unit": unit}
            print(f"  {name:<19} {med:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    ref_note = os.path.relpath(bench.reference_path, bench.root)
    if max_dev is None:
        print(f"  {'output_max_rel_dev':<19} absent (no {ref_note})")
    else:
        print(f"  {'output_max_rel_dev':<19} {max_dev:.3e}  (tolerance {MAX_REL_DEV:.0e}, "
              f"against {ref_note})")
    fail_rate = failed / len(samples) if samples else 1.0
    print(f"  {'fail_rate':<19} {fail_rate:g}  ({failed} of {len(samples)} samples failed)")
    cost = next((s["estimate_cost"] for s in samples if s["estimate_cost"] is not None), None)
    if cost is not None and "run_s" in summary:
        print(f"  {'estimate_cost':<19} {cost:.3e}  (validate's estimate, beside run_s "
              f"{summary['run_s']['median']:.3f} s)")
    for s in samples:
        for failure in s["failures"]:
            print(f"  FAILED sample {s['index']}: {failure}")
    for problem in checks:
        print(f"  CHECK FAILED: {problem}")

    if trace and traced and untraced:
        metrics = per_layer_metrics(traced, untraced)
        units = dict((n, u) for n, u, _ in PER_LAYER)
        units.update(RUN_LEVEL)
        layers = traced[0]["trace_summary"]["layers"]
        top = max((n for n in layers if n != "cli.main"), key=lambda n: layers[n]["self_s"],
                  default=None)
        if top is not None:
            print(f"  largest self time: {top} "
                  f"({100 * layers[top]['self_s'] / layers['cli.main']['total_s']:.1f}%)")
        for name, value in metrics.items():
            print(f"  {name:<42} {value:.6g} {units[name]}")
    elif not trace and untraced:
        metrics = {name: summary[name]["median"] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    else:
        metrics, units = {}, {}

    line = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = next((s["environment"] for s in samples if s["environment"]), None)
    body = {
        "workload": bench.workload,
        "kind": bench.kind,
        "seed": bench.seed,
        "trace": trace,
        "git_commit": git_commit(bench.root),
        "environment": env,
        "config": bench.config,
        "estimate_cost": cost,
        "reference": ref_note if bench.reference is not None else None,
        "output_max_rel_dev": max_dev,
        "fail_rate": fail_rate,
        "end_to_end": summary,
        "checks_failed": checks,
        "samples": [{k: v for k, v in s.items() if k not in ("values", "environment")}
                    for s in samples],
        "result": line,
    }
    return line, body


def record_reference(bench: Bench) -> int:
    bench.reference = None
    s = bench.sample(trace=False)
    if s["failures"]:
        print("\n".join(s["failures"]), file=sys.stderr)
        return 1
    stem = os.path.join(bench.work, "out0", bench.kind.replace("-", "_"))
    rows = outputcheck.read_rows(outputcheck.read_optional(stem + ".csv"))
    os.makedirs(os.path.dirname(bench.reference_path), exist_ok=True)
    with open(bench.reference_path, "w") as fh:
        fh.write(outputcheck.reference_text(rows))
    print(f"wrote {os.path.relpath(bench.reference_path, bench.root)} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed passed to the CLI (default: the workload config's)")
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output values as the reference")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ntkdistill", "cli.py")):
        print(f"error: no src/ntkdistill under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        if bench.warm_up() != 0:
            print("error: importing ntkdistill failed", file=sys.stderr)
            return 2
        if args.record_reference:
            return record_reference(bench)
        for _ in range(SETUP_SAMPLES):
            bench.setup_sample()
        trace = bool(args.trace)
        # untraced samples time the run; with --trace, traced samples
        # alternate with them and at least two are traced, to compare counts
        pattern = [False, True, True] if trace else [False]
        while True:
            step = len(bench.samples)
            traced = pattern[step] if step < len(pattern) else trace and step % 2 == 0
            s = bench.sample(trace=traced)
            if s["run_s"] is None:
                break
            typical = statistics.median(x["run_s"] for x in bench.samples if x["run_s"])
            if step + 1 >= len(pattern) and bench.elapsed() + typical > args.seconds:
                break
            if bench.elapsed() + typical > DEADLINE_S:
                break
        if all(s["run_s"] is None for s in bench.samples):
            for failure in bench.samples[0]["failures"]:
                print(f"error: {failure}", file=sys.stderr)
            return 1
        line, body = report(bench, trace)
        results = os.path.join(root, ".perfbench", "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, f"{args.workload}-seed{bench.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(body, fh, indent=1)
        print(f"  result file: {os.path.relpath(path, root)}")
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
