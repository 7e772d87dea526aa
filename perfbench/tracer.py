"""Span tracer for one ntkdistill run, installed from outside the package.

The tracer wraps the public functions of each ntkdistill module and a few
class methods.  Every wrapped call records a span ``[name, start, end,
parent, thread]`` in memory; counters record work done at the same
boundaries.  Nothing under ``src/`` is edited: module-level functions are
rebound in every ``ntkdistill.*`` namespace that holds the original (the
modules import each other's functions by name), and methods are patched on
their class.  ``Tracer.uninstall`` puts every original back.

Self time is a span's duration minus the durations of its direct children;
spans on one thread nest, so children never overlap.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

PREFIX = "ntkdistill"
EFFECTIVE_LOGITS = "distillation.effective_logits"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _empirical_gram_flops(cfg, n: int) -> int:
    """Computed flops of one finite-width Gram: forward and reverse sweeps
    over the hidden layers, then one n x n product pair per affine layer."""
    d, m, layers = cfg.input_dim, cfg.width, cfg.hidden_layers
    sweep = 2 * n * (d * m + (layers - 1) * m * m)
    return 2 * sweep + 4 * n * n * m * layers + 2 * n * n * m


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span and, optionally, counts.

        ``count(args, kwargs, result)`` runs after the call returns.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` with ``count(args, kwargs)`` only; no span (hot calls)."""

        def wrapper(*args, **kwargs):
            count(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def root(self, name: str):
        """Open a span that encloses the whole traced run; returns a closer."""
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                  threading.get_ident()]
        self.spans.append(record)
        stack.append(record)

        def close():
            record[2] = time.perf_counter()
            stack.pop()

        return close

    # --- installation ----------------------------------------------------

    def _rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PREFIX or mod_name.startswith(PREFIX + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> "Tracer":
        from ntkdistill import distillation, kernel, linalg, metrics, network, tasks

        c = self.counts
        span, rebind, method = self.span, self._rebind, self._patch_method

        def add(key, amount):
            c[key] += amount

        def per_epochs(key, index):
            return lambda a, k, r: add(key, _arg(a, k, index, "train_cfg").epochs)

        rebind(network, "init_params", lambda f: span(
            "network.init_params", f,
            lambda a, k, r: add("network.init_params.values", r.size)))
        rebind(network, "forward", lambda f: span(
            "network.forward", f,
            lambda a, k, r: add("network.forward.rows", _rows(_arg(a, k, 2, "x")))))
        rebind(network, "feature_dot", lambda f: span(
            "network.feature_dot", f,
            lambda a, k, r: add("network.feature_dot.rows", _rows(_arg(a, k, 3, "x")))))
        rebind(network, "weighted_feature_sum", lambda f: span("network.weighted_feature_sum", f))
        rebind(network, "train_teacher", lambda f: span(
            "network.train_teacher", f, per_epochs("network.train_teacher.epochs", 2)))
        rebind(network, "train_linearized", lambda f: span(
            "network.train_linearized", f, per_epochs("network.train_linearized.epochs", 3)))

        def gram_entries(a, k, r):
            add("kernel.analytic_ntk_gram.entries",
                r.n * r.n * _arg(a, k, 0, "cfg").hidden_layers)

        def gram_flops(a, k, r):
            add("kernel.empirical_ntk_gram.flops_computed",
                _empirical_gram_flops(_arg(a, k, 0, "cfg"), r.n))

        rebind(kernel, "analytic_ntk_gram", lambda f: span("kernel.analytic_ntk_gram", f, gram_entries))
        rebind(kernel, "analytic_ntk_diag", lambda f: span("kernel.analytic_ntk_diag", f))
        rebind(kernel, "empirical_ntk_gram", lambda f: span("kernel.empirical_ntk_gram", f, gram_flops))
        rebind(kernel, "empirical_ntk_diag", lambda f: span(
            "kernel.empirical_ntk_diag", f,
            lambda a, k, r: add("kernel.empirical_ntk_diag.rows", len(r))))

        rebind(distillation, "effective_logits", lambda f: span(
            EFFECTIVE_LOGITS, f,
            lambda a, k, r: add("distillation.effective_logits.entries", np.size(r))))
        stack_of = self._stack

        def residual(a, k):
            stack = stack_of()
            if stack and stack[-1][0] == EFFECTIVE_LOGITS:
                c["distillation.residual_evals"] += 1

        rebind(distillation, "loss_gradient", lambda f: self.counter(f, residual))

        def mc(index):
            return lambda a, k, r: add("metrics.mc_samples", _arg(a, k, index, "n_samples"))

        rebind(metrics, "data_inefficiency", lambda f: span("metrics.data_inefficiency", f))
        rebind(metrics, "angle_distribution", lambda f: span("metrics.angle_distribution", f, mc(4)))
        rebind(metrics, "empirical_risk", lambda f: span("metrics.empirical_risk", f, mc(3)))

        # factorization attempts: the scipy routine as linalg's namespace sees it
        def attempt(f):
            def wrapper(*args, **kwargs):
                try:
                    result = f(*args, **kwargs)
                except np.linalg.LinAlgError:
                    c["linalg.jitter_escalations"] += 1
                    raise
                c["linalg.factorizations"] += 1
                return result

            wrapper.__wrapped__ = f
            wrapper.__perfbench_wrapper__ = True
            return wrapper

        rebind(linalg, "cholesky", attempt)
        method(linalg.KernelMatrix, "cholesky", lambda f: span("linalg.cholesky", f))
        method(linalg.KernelMatrix, "solve", lambda f: span(
            "linalg.solve", f, lambda a, k, r: add("linalg.solves", 1)))
        method(linalg.KernelMatrix, "half_solve", lambda f: span(
            "linalg.half_solve", f, lambda a, k, r: add("linalg.solves", 1)))

        def mode_evals(a, k, r):
            add("tasks.mode_evals", _rows(_arg(a, k, 1, "x")) * len(a[0].amplitudes))

        method(tasks.Mixture, "values", lambda f: span("tasks.Mixture.values", f, mode_evals))
        method(tasks.Task, "sample_inputs", lambda f: span("tasks.Task.sample_inputs", f))
        method(tasks.Task, "target_logits", lambda f: span("tasks.Task.target_logits", f))
        method(tasks.LabelSource, "logits", lambda f: span("tasks.LabelSource.logits", f))
        method(tasks.LabelSource, "hard", lambda f: span("tasks.LabelSource.hard", f))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- reading ---------------------------------------------------------

    def wrappers_remaining(self) -> list[str]:
        """Names in ntkdistill namespaces or patched classes still wrapped."""
        from ntkdistill import linalg, tasks

        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == PREFIX or n.startswith(PREFIX + "."))]
        owners += [linalg.KernelMatrix, tasks.Mixture, tasks.Task, tasks.LabelSource]
        return [
            f"{getattr(o, '__name__', o)}.{key}"
            for o in owners
            for key, value in list(vars(o).items())
            if getattr(value, "__perfbench_wrapper__", False)
        ]

    def summary(self) -> dict:
        """Per-name call counts, total and self seconds; per-thread self time."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child_time[index[id(s[3])]] += s[2] - s[1]
        layers: dict[str, dict] = {}
        per_thread: dict[int, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            total = s[2] - s[1]
            entry = layers.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - child_time[i]
            per_thread[s[4]] += total - child_time[i]
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "thread_self_s": {str(t): v for t, v in per_thread.items()},
        }

    def span_table(self) -> list[list]:
        """Spans as ``[name, start, end, parent_index, thread]`` rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s[0], s[1], s[2], None if s[3] is None else index[id(s[3])], s[4]]
                for s in self.spans]
