"""Config-driven experiment runner with full seed provenance.

Each experiment kind reproduces one of the desk-scale studies at the heart
of the library: effective-logit sweeps, kernel width convergence, data
inefficiency, transfer risk and its bound, angle distributions, the
hard-label correction sweep, and the zero-function norm check.  A run reads
one JSON config, executes, and writes

* ``<kind>.csv`` — one row per atomic measurement, with the fields of
  :class:`RunRecord` as its fixed columns (experiment, config_hash, seed, n,
  rho, T, epoch, q, p_flip, beta, value_name, value, flag, wall_ms);
* ``<kind>_manifest.json`` — the fully resolved config, root seed, library
  version, and completion state, from which every CSV number can be
  regenerated.

Two columns carry sweep coordinates that vary by experiment: ``n`` holds
the integer coordinate (sample size; network width for ntk-check) and
``beta`` the continuous one (angle for angle-dist, teacher logit for
effective-logits, input norm for the ntk-check diagonal rows).  ``rho`` and
``T`` hold the row's distill point, and ``flag`` the ``;``-joined names of the
conditions a value carries (``unreliable``, ``saturated``).  Reruns with the
same config and seed are byte-identical except for wall_ms.

The ``seed`` column means one of three things: the root seed on most rows;
the derived seed that initialized the network on ntk-check's per-repeat
``frob_rel_err`` rows; and the repeat index (0, 1, ...) on risk and
hard-label-effect rows, whose streams derive from the root seed in the
manifest and that index.

Each kind is a ``_Kind`` in ``_KINDS``: ``setup(cfg)``, the plain data its
units share; ``units(cfg)``, the unit keys in row order; ``unit(cfg,
shared, key)``, the key's rows as ``(values, dp, coords)`` groups, with no
record and no clock; the fields it ``requires`` as ``(path, test, problem)``;
its ``cost(cfg)`` terms; and ntk-check's ``finish``, the rows that span
units.  :func:`run` alone maps units over ``--threads`` and stamps and
writes their rows in key order (risk's run repeat -> distill point -> n),
keeping every row of the units before a failing one.  Per-record seeds derive from the
root seed and the record's own grid coordinates (see
:func:`ntkdistill.metrics.unit_rng`), so units may run on any thread.
Inefficiency still keys its streams by task, distill and grid index, so
inserting a grid point there moves other rows.

Lockstep oracles evaluate the teacher and every distill point's
effective-logit solve once per chunk of about 1,024 rows, not once per step
(``_distilled_targets``; :func:`~ntkdistill.network.train_linearized`
describes the chunks).  Each (repeat, n) point of the risk study likewise
shares, across distill points, its training sample's sweep and Gram
factorization, its Monte Carlo inputs, the teacher's logits on them and the
student's sweep over them (``_risk_point``).

``wall_ms`` is the wall time since the run's previous ``emit`` call (or its
start), split evenly over the rows of the call, so the column sums to the
run's time up to its last row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import sys
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter

import numpy as np

from . import __version__
from .distillation import (
    DistillParams,
    UnboundedSolutionError,
    correction_logit,
    saturated_effective_logits,
)
from .hardlabel import correction_projection, hard_label_derivative
from .kernel import analytic_ntk_diag, analytic_ntk_gram, empirical_ntk_diag, empirical_ntk_gram
from .linalg import DegenerateVectorError, KernelMatrix, SingularKernelError
from .metrics import (
    alpha_n,
    angle_distribution,
    data_inefficiency,
    default_beta_grid,
    empirical_risk,
    fit_power_law,
    risk_bound,
    unit_rng,
)
from .network import (
    DivergenceError,
    NetConfig,
    SquaredTargets,
    Sweep,
    TrainConfig,
    as_batch,
    forward,
    init_params,
    param_count,
    row_blocks,
    train_linearized,
    train_teacher,
)
from .tasks import INPUT_SCALE, LabelSource, Task, TaskSpec

# work estimate (estimate_cost) above which validate() warns; roughly a
# laptop-hour
COST_BUDGET = 5e12


class ConfigError(ValueError):
    """Config file failed to parse or validate; message names the field."""


@dataclass(kw_only=True)
class RunRecord:
    """One CSV row; the fields, in order, are the columns."""

    experiment: str
    config_hash: str
    seed: int | None
    n: int | None = None
    rho: float | None = None
    T: float | None = None
    epoch: int | None = None
    q: int | None = None
    p_flip: float | None = None
    beta: float | None = None
    value_name: str
    value: float
    flag: str = ""
    wall_ms: float = 0.0

    def row(self) -> list[str]:
        def cell(name, v):
            if name == "wall_ms":
                return repr(round(float(v), 3))
            if name == "value" or isinstance(v, float):
                return repr(float(v))
            return "" if v is None else str(v)

        return [cell(name, getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = tuple(RunRecord.__dataclass_fields__)


@dataclass(frozen=True)
class TeacherRecipe:
    """How to train the teacher network for an experiment."""

    epochs: int = 2048
    learning_rate: float = 0.01
    batch_size: int = 256
    seed: int = 0
    stop_epochs: tuple[int, ...] = ()
    temperature: float = 10.0
    reduction: float = 0.3

    def __post_init__(self):
        # a bad schedule or label scale fails the config, not the run
        self.train_config(self.epochs)
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not self.reduction > 0:
            raise ValueError("reduction must be positive")
        if not all(e >= 1 for e in self.stop_epochs):
            raise ValueError("stop_epochs: entries must be >= 1")
        if list(self.stop_epochs) != sorted(set(self.stop_epochs)):
            raise ValueError("stop_epochs: must be strictly increasing")

    def train_config(self, epochs: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.batch_size, epochs)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    net: NetConfig
    teacher_net: NetConfig | None = None
    distill: list[DistillParams] = field(default_factory=list)
    tasks: list[TaskSpec] = field(default_factory=list)
    n_grid: list[int] = field(default_factory=list)
    repeats: int = 5
    out: str = "results"
    teacher: TeacherRecipe = field(default_factory=TeacherRecipe)
    oracle: TrainConfig = field(default_factory=TrainConfig)
    z_t_grid: list[float] = field(default_factory=lambda: list(np.linspace(-5, 5, 21)))
    width_grid: list[int] = field(default_factory=lambda: [64, 256, 1024, 4096])
    kernel_inputs: int = 16
    norm_grid: list[float] = field(default_factory=lambda: list(np.linspace(10, 100, 10)))
    samples: int = 10_000
    beta_points: int = 65
    extra_points: int = 1

    def __post_init__(self):
        """Value ranges, the fields the kind requires (no unit falls back to a
        default for one) and task dims that match every network, so that a
        config a run would reject fails to build; each error names a field."""
        if self.experiment not in _KINDS:
            raise ConfigError(f"experiment: got {self.experiment!r}, "
                              f"expected one of {', '.join(_KINDS)}")
        for path, ok, problem in [
            ("seed", self.seed >= 0, "must be >= 0"),
            ("repeats", self.repeats >= 1, "must be >= 1"),
            ("n_grid", all(n >= 1 for n in self.n_grid), "entries must be >= 1"),
            ("n_grid", list(self.n_grid) == sorted(set(self.n_grid)),
             "must be strictly increasing"),
            ("samples", self.samples >= 1, "must be >= 1"),
            ("beta_points", self.beta_points >= 1, "must be >= 1"),
            ("z_t_grid", len(self.z_t_grid) > 0, "must not be empty"),
            ("width_grid", len(self.width_grid) > 0, "must not be empty"),
            ("width_grid", all(w >= 1 for w in self.width_grid), "entries must be >= 1"),
            ("norm_grid", len(self.norm_grid) > 0, "must not be empty"),
            # a diag_ratio divides by norm**2, and a negative norm's row would
            # hold the ratio of its absolute value
            ("norm_grid", all(v > 0 for v in self.norm_grid), "entries must be > 0"),
            ("kernel_inputs", self.kernel_inputs >= 1, "must be >= 1"),
            ("extra_points", self.extra_points >= 1, "must be >= 1"),
            *((path, ok(attrgetter(path)(self)), problem)
              for path, ok, problem in _KINDS[self.experiment].requires),
        ]:
            if not ok:
                raise ConfigError(f"{path}: {problem}")
        for i, task in enumerate(self.tasks):
            for name, net in (("net", self.net), ("teacher_net", self.teacher_net)):
                if net is not None and task.dim != net.input_dim:
                    raise ConfigError(
                        f"tasks[{i}].dim: {task.dim} differs from {name}.input_dim {net.input_dim}")

    def hash(self) -> str:
        # the output location is not part of the experiment's identity
        content = {k: v for k, v in asdict(self).items() if k != "out"}
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _type_problem(annotation: str, value) -> str | None:
    """What makes ``value`` unfit for a field annotated ``annotation`` (a
    string, as the annotations of this package are), or None.  Integers
    reject JSON true and fractions, which would run as 1 or as their floor
    while the manifest says otherwise; floats reject true and non-finite
    values; a list field rejects a bare value."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith(("list[", "tuple[")):
        if not isinstance(value, (list, tuple)):
            return "must be a list"
        entry = annotation[annotation.index("[") + 1:].split(",")[0].rstrip("]")
        return next(filter(None, (_type_problem(entry, v) for v in value)), None)
    if annotation == "int" and type(value) is not int:
        return "must be an integer"
    if annotation == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "must be a number"
        # NaN fails the comparison; so does an integer too large for a float
        if not abs(value) <= sys.float_info.max:
            return "must be finite"
    if annotation == "str" and not isinstance(value, str):
        return "must be a string"
    return None


# the config parts, by the names their fields' annotations give them
_PARTS = {cls.__name__: cls for cls in
          (ExperimentConfig, NetConfig, TaskSpec, DistillParams, TeacherRecipe, TrainConfig)}


def _field_value(path: str, annotation: str, value):
    """A JSON value as the field annotated ``annotation`` takes it: a config
    part, or a list of them, built by :func:`_build` under ``path``; a tuple
    for a tuple field; anything else as it is, for the part's type check."""
    name = annotation.removesuffix(" | None")
    entry = name.removeprefix("list[").removesuffix("]")
    if value is None and name != annotation:
        return None
    if name in _PARTS:
        return _build(path, _PARTS[name], value)
    if entry in _PARTS:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: must be a list")
        return [_build(f"{path}[{i}]", _PARTS[entry], v) for i, v in enumerate(value)]
    if name.startswith("tuple[") and isinstance(value, list):
        return tuple(value)
    return value


def _build(path: str, cls, data):
    """``cls`` from the JSON object ``data``, named ``path`` in errors (empty
    at the top level).  Every key must be a field and every field without a
    default given.  A failed check in ``__post_init__`` names the part, or
    the field its message starts with (``stop_epochs: ...``); a value unfit
    for its annotation (:func:`_type_problem`) names its field, and comes
    before any check but one that names the part."""
    where, prefix = path or "config", f"{path}." if path else ""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    specs = {f.name: f for f in fields(cls)}
    required = {n for n, f in specs.items()
                if f.default is MISSING and f.default_factory is MISSING}
    wrong = (set(data) - set(specs)) | (required - set(data))
    if wrong:
        raise ConfigError(f"{where}: unknown or missing field ({', '.join(sorted(wrong))})")
    kwargs = {k: _field_value(prefix + k, specs[k].type, v) for k, v in data.items()}
    problems = [f"{prefix}{k}: {problem}" for k, v in kwargs.items()
                if (problem := _type_problem(specs[k].type, v))]
    try:
        part = cls(**kwargs)
    except (TypeError, ValueError) as exc:
        named = re.split(r"[:.[]", str(exc), maxsplit=1)[0] in specs
        if problems and (named or isinstance(exc, TypeError)):
            # the check met a value of the wrong type (a string it compares)
            raise ConfigError(problems[0]) from exc
        raise ConfigError(f"{prefix}{exc}" if named else f"{where}: {exc}") from exc
    if problems:
        raise ConfigError(problems[0])
    return part


def parse_config(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    return _build("", ExperimentConfig, data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(data)


def estimate_cost(cfg: ExperimentConfig) -> float:
    """Rough flop count of the work that dominates a run, its kind's ``cost`` terms:

    * kernel solves: n^3 per grid point, repeat, task and distill point;
    * ntk-check's empirical Grams: kernel inputs x parameters per width and
      repeat, plus 40 per parameter for drawing the initialization.  A
      normal draw takes about 16 ns (214.9M in 3.44 s in the traced ntk-wide
      benchmark workload on a 2-vCPU VM); the price of 40 flop dates from
      22 ns and is kept so that no ntk-check estimate moves;
    * teacher Adam steps: epochs x teacher parameters x batch;
    * oracle Adam steps: epochs x objectives x repeats x parameters x batch;
    * Monte Carlo passes: samples x parameters per pass, of the student
      (NTK diagonal, linearized student) and of the teacher (its logits).
    """
    return sum(_KINDS[cfg.experiment].cost(cfg))


def _solve_cost(cfg: ExperimentConfig) -> float:
    return (sum(float(n) ** 3 for n in cfg.n_grid) * cfg.repeats
            * (max(len(cfg.tasks), 1) * max(len(cfg.distill), 1)))


def _trained_cost(cfg: ExperimentConfig, teacher_epochs: int, objectives: int, repeats: int,
                  student_passes: int = 0, teacher_passes: int = 0) -> tuple:
    """The terms of a kind that trains a teacher for ``teacher_epochs``,
    ``objectives`` oracles in each of ``repeats`` and the Monte Carlo passes."""
    p, p_teacher = param_count(cfg.net), param_count(cfg.teacher_net or cfg.net)
    return (_solve_cost(cfg),
            float(teacher_epochs) * p_teacher * cfg.teacher.batch_size,
            float(cfg.oracle.epochs) * objectives * repeats * p * cfg.oracle.batch_size,
            float(cfg.samples) * (student_passes * p + teacher_passes * p_teacher))


def validate(path) -> str:
    """Schema and cross-field checks without executing; returns a report."""
    cfg = load_config(path)
    cost = estimate_cost(cfg)
    lines = [
        f"experiment: {cfg.experiment}",
        f"config hash: {cfg.hash()}",
        f"root seed: {cfg.seed}",
        f"tasks: {len(cfg.tasks)}, distill points: {len(cfg.distill)}, "
        f"n grid: {cfg.n_grid or '-'}, repeats: {cfg.repeats}",
        f"estimated cost: {cost:.2e} flop",
    ]
    if cost > COST_BUDGET:
        lines.append(
            f"WARNING: estimated cost exceeds the desk budget ({COST_BUDGET:.0e}); "
            "consider a smaller grid or fewer repeats"
        )
    lines.append("OK")
    return "\n".join(lines)


def _pmap(fn, items, threads: int):
    """``fn`` of each item, yielded lazily in item order, so the results of
    the items before a failing one reach the caller."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)


# --- the pieces the kinds are composed of -----------------------------------


def _emitter(cfg: ExperimentConfig):
    """The row emitter of one run, whose clock starts when it is made.

    ``emit(groups)`` returns a RunRecord per ``value_name: value`` pair of
    each ``(values, dp, coords)`` group, with the experiment, the config
    hash, the group's ``coords``, the root seed unless ``coords`` names a
    ``seed``, and ``rho`` and ``T`` from ``dp`` unless it is None.  Each call
    stamps its rows with the time since the previous call, split evenly."""
    h = cfg.hash()
    last = time.perf_counter()

    def emit(groups) -> list[RunRecord]:
        nonlocal last
        records = [
            RunRecord(experiment=cfg.experiment, config_hash=h, value_name=name, value=value,
                      **{"seed": cfg.seed, **coords},
                      **({} if dp is None else {"rho": dp.soft_ratio, "T": dp.temperature}))
            for values, dp, coords in groups for name, value in values.items()]
        now = time.perf_counter()
        for record in records:
            record.wall_ms = (now - last) * 1e3 / len(records)
        last = now
        return records

    return emit


def _train_oracles(cfg: ExperimentConfig, params0: np.ndarray, target_fns, sampler, rng):
    """Online-batch oracle runs of the linearized student at ``params0``, one
    per squared-loss target function ``target_fns[i](x)``, trained in lockstep
    on one batch stream; returns the weight changes in the same order."""
    results = train_linearized(
        cfg.net, params0, [SquaredTargets(fn) for fn in target_fns],
        cfg.oracle, sampler=sampler, rng=rng,
    )
    return [r.delta for r in results]


def _memo_last(fn):
    """``fn`` of an input array, recomputed only when the input differs in
    value from the previous call's."""
    last = []

    def memo(x):
        if not last or not np.array_equal(last[0], x):
            last[:] = [x, fn(x)]
        return last[1]

    return memo


# --- the seven kinds --------------------------------------------------------


def _effective_logits_unit(cfg: ExperimentConfig, shared, key) -> list[tuple]:
    dp, z_t = key
    solved = [saturated_effective_logits(z_t, y_g, dp) for y_g in (0.0, 1.0)]
    return [({f"z_s_eff_y{y_g}": float(val)}, dp,
             {"beta": float(z_t), "flag": "saturated" if sat else ""})
            for y_g, (val, sat) in enumerate(solved)]


def _ntk_check_setup(cfg: ExperimentConfig):
    """The kernel inputs, their analytic Gram, which reads the depth and the
    input dimension, not the width, and the run's draw buffers.

    Each thread draws its units' parameters into one buffer (269 MB at
    width 4096), grown to the largest p so far; the smaller buffer is
    released before the larger one is allocated.  The buffers belong to the
    run's shared data, so they go when the run ends, failed or not."""
    x = unit_rng(cfg.seed, 0).normal(scale=INPUT_SCALE,
                                     size=(cfg.kernel_inputs, cfg.net.input_dim))
    return x, analytic_ntk_gram(cfg.net, x).entries, threading.local()


def _ntk_check_unit(cfg: ExperimentConfig, shared, key) -> list[tuple]:
    x, target, draws = shared
    width, rep = key
    net = replace(cfg.net, width=width)
    seed = int(unit_rng(cfg.seed, 1, width, rep).integers(2**63))
    p = param_count(net)
    if getattr(draws, "buf", None) is None or draws.buf.size < p:
        draws.buf = None
        draws.buf = np.empty(p)
    gram = empirical_ntk_gram(net, init_params(net, seed, out=draws.buf[:p]), x).entries
    err = float(np.linalg.norm(gram - target) / np.linalg.norm(target))
    return [({"frob_rel_err": err}, None, {"seed": seed, "n": width})]


def _ntk_check_finish(cfg: ExperimentConfig, shared, results) -> list[tuple]:
    """The rows that span units: each width's mean error, then the growth of
    the kernel diagonal against the squared input norm.  K(x, x) depends
    only on |x|, so each norm sits on the first input axis."""
    errs = [(coords["n"], values["frob_rel_err"])
            for groups in results for values, _, coords in groups]
    groups = [({"frob_rel_err_mean": float(np.mean([e for n, e in errs if n == width]))},
               None, {"n": width}) for width in cfg.width_grid]
    for norm in cfg.norm_grid:
        point = np.zeros((1, cfg.net.input_dim))
        point[0, 0] = norm
        ratio = float(analytic_ntk_diag(cfg.net, point)[0] / norm**2)
        groups.append(({"diag_ratio": ratio}, None, {"beta": float(norm)}))
    return groups


def distilled_target_fn(task: Task, dp: DistillParams):
    """Effective-logit targets for a task's own teacher: the task's target
    logits play the teacher, its sign plays the ground truth."""

    def fn(x, rng=None):
        z_t = task.target_logits(x, rng)
        y_g = (np.asarray(z_t) > 0).astype(float)
        vals, _ = saturated_effective_logits(z_t, y_g, dp)
        return vals

    return fn


def _inefficiency_unit(cfg: ExperimentConfig, shared, key) -> list[tuple]:
    ti, task_spec, di, dp = key
    task = Task(task_spec)
    targets = distilled_target_fn(task, dp) if dp is not None else None
    curve = data_inefficiency(task, cfg.net, cfg.n_grid, cfg.repeats,
                              root_seed=int(unit_rng(cfg.seed, ti, di).integers(2**63)),
                              targets=targets, extra_points=cfg.extra_points)
    is_mix = task_spec.kind in ("mixture", "flipped-mixture")
    saturated = "saturated" if dp is not None and dp.soft_ratio == 0.0 else ""
    return [
        ({"inefficiency": float(curve.inefficiency[j]),
          "log_mean_norm": float(curve.log_mean_norm[j])},
         dp,
         {"n": int(n),
          "q": task_spec.modes if is_mix else None,
          "p_flip": task_spec.p_flip if task_spec.kind == "flipped-mixture" else None,
          "flag": ";".join(filter(None, ("unreliable" if curve.unreliable[j] else "",
                                         saturated)))})
        for j, n in enumerate(curve.ns)
    ]


def student_closed_form(net: NetConfig, params0, x, targets) -> list[np.ndarray]:
    """Kernel-solve weight changes for fixed data (finite-width Gram), one per
    target vector in ``targets``.  The sweep of ``x``, its Gram and the Gram's
    factorization are computed once and shared by all of them."""
    sweep = Sweep(net, params0, as_batch(net, x))
    gram = KernelMatrix(sweep.gram())
    return [sweep.vjp(gram.solve(np.asarray(t, dtype=float) - sweep.logits)) for t in targets]


def _distilled_targets(label, dps):
    """Distilled target functions, one per distill point: the effective
    logits of the label source's teacher logits and hard labels.  A memo
    shares one teacher evaluation per input set, so the lockstep oracles,
    which each evaluate their own targets, evaluate the teacher once per
    chunk, and closed-form students fit on one sample once.  The memo is
    unlocked, so each unit builds its own."""
    teacher = _memo_last(lambda x: (label.logits(x), label.hard(x)))
    return [lambda x, rng=None, dp=dp: saturated_effective_logits(*teacher(x), dp)[0]
            for dp in dps]


def _perfect_teacher(cfg: ExperimentConfig):
    """The shared setup of risk, angle-dist and zero-norm: ``(task,
    label)``, the first task and the final parameters of a teacher trained on
    it, with the recipe's logit reduction and the task's own labels as
    ground truth."""
    task, recipe, net = Task(cfg.tasks[0]), cfg.teacher, cfg.teacher_net or cfg.net
    params = train_teacher(net, task, recipe.train_config(recipe.epochs), recipe.seed,
                           [recipe.epochs])[recipe.epochs]
    return task, LabelSource(net, params, recipe.reduction, task.target_logits)


def _perfect_teacher_repeat(cfg: ExperimentConfig, sampler, targets, rep: int):
    """Repeat ``rep`` of a perfect-teacher kind: ``(params0, delta_zero,
    deltas_star)``.  ``params0`` comes from ``unit_rng(seed, 90, rep)``, the
    zero-function oracle (one run serves every distill point) from
    ``unit_rng(seed, 91 + rep, 2)``, and the distill points' lockstep
    oracles from ``unit_rng(seed, 91 + rep, 1)``."""
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, rep))
    [delta_zero] = _train_oracles(cfg, params0, [lambda x: np.zeros(len(x))], sampler,
                                  unit_rng(cfg.seed, 91 + rep, 2))
    deltas_star = _train_oracles(cfg, params0, targets, sampler, unit_rng(cfg.seed, 91 + rep, 1))
    return params0, delta_zero, deltas_star


def _angle_inputs(cfg: ExperimentConfig, sampler, label, params0, rng):
    """The angle pass's inputs, shared by every distill point's curve:
    ``cfg.samples`` Monte Carlo inputs drawn from ``rng``, and the NTK
    diagonal at ``params0`` and the teacher's logits and hard labels on
    them."""
    x = sampler(cfg.samples, rng)
    return x, empirical_ntk_diag(cfg.net, params0, x), label.logits(x), label.hard(x)


def _angle_curve(cfg: ExperimentConfig, inputs, dp, norm: float, betas):
    """``angle_distribution`` of distill point ``dp`` on ``_angle_inputs``,
    with ``norm`` = |dw_* - dw_z|; only the effective-logit solve is its
    own."""
    x, diag, z_t, y_t = inputs
    return angle_distribution(lambda _: saturated_effective_logits(z_t, y_t, dp)[0],
                              lambda _: diag, norm, lambda m, _: x, cfg.samples, None, betas)


def _risk_point(cfg: ExperimentConfig, params0, sampler, label, targets, rep: int, n: int,
                deltas_star, delta_zero):
    """Grid point ``n`` of repeat ``rep`` for every distill point:
    ``[(alpha_n, RiskEstimate), ...]`` in distill order.

    The n training inputs and the Monte Carlo inputs come from
    ``unit_rng(seed, 93, rep, n)`` whatever the distill point, so the
    closed-form student's sweep and Gram factorization, the teacher on both
    input sets and the student's sweep over the Monte Carlo inputs are
    computed once and shared; only the targets, the solve and the tangent
    pass are per distill point.  The student's Monte Carlo sweep runs in row
    blocks, so no full-size sweep of the Monte Carlo inputs is ever held.
    """
    rng = unit_rng(cfg.seed, 93, rep, n)
    x = sampler(int(n), rng)
    x_mc = sampler(cfg.samples, rng)
    deltas_hat = student_closed_form(cfg.net, params0, x, [fn(x) for fn in targets])
    z_mc = label.logits(x_mc)
    # the first distill point's empirical_risk sweeps the Monte Carlo inputs
    # block by block for every distill point's student, and the others reuse
    # it; a memo keeps that sweep inside empirical_risk, the span the
    # benchmark's tracer times it in until the library has spans of its own
    students = _memo_last(lambda xx: row_blocks(
        cfg.net, params0, xx,
        lambda sweep: np.stack([sweep.logits + sweep.jvp(delta) for delta in deltas_hat])))
    point = []
    for j, (delta_hat, delta_star) in enumerate(zip(deltas_hat, deltas_star)):
        est = empirical_risk(lambda xx, j=j: students(xx)[j], lambda _: z_mc,
                             lambda m, _: x_mc, cfg.samples, rng)
        point.append((alpha_n(delta_hat, delta_star, delta_zero), est))
    return point


def _risk_unit(cfg: ExperimentConfig, shared, rep: int) -> list[tuple]:
    """One repeat: its angle curves, every grid point, and each distill
    point's ``risk_slope`` over the grid, in distill point -> n order."""
    task, label = shared
    sampler, targets = task.sample_inputs, _distilled_targets(label, cfg.distill)
    params0, delta_zero, deltas_star = _perfect_teacher_repeat(cfg, sampler, targets, rep)
    inputs = _angle_inputs(cfg, sampler, label, params0, unit_rng(cfg.seed, 92, rep))
    curves = [_angle_curve(cfg, inputs, dp, float(np.linalg.norm(delta_star - delta_zero)), None)
              for dp, delta_star in zip(cfg.distill, deltas_star)]
    points = [_risk_point(cfg, params0, sampler, label, targets, rep, n, deltas_star, delta_zero)
              for n in cfg.n_grid]
    groups = []
    for d, (dp, curve) in enumerate(zip(cfg.distill, curves)):
        for n, point in zip(cfg.n_grid, points):
            a_n, est = point[d]
            groups.append(({"empirical_risk": est.risk, "risk_std_error": est.std_error,
                            "risk_bound": risk_bound(curve, a_n), "alpha_n": a_n},
                           dp, {"seed": rep, "n": int(n)}))
        risks = [max(point[d][1].risk, 1.0 / cfg.samples) for point in points]
        groups.append(({"risk_slope": fit_power_law(cfg.n_grid, risks)}, dp, {"seed": rep}))
    return groups


def _angle_dist_setup(cfg: ExperimentConfig):
    """What every distill point's curve reads: the angle pass's inputs and,
    from repeat 0's oracles, each distill point's |dw_* - dw_z|."""
    task, label = _perfect_teacher(cfg)
    sampler = task.sample_inputs
    params0, delta_zero, deltas_star = _perfect_teacher_repeat(
        cfg, sampler, _distilled_targets(label, cfg.distill), 0)
    return (_angle_inputs(cfg, sampler, label, params0, unit_rng(cfg.seed, 95)),
            [float(np.linalg.norm(delta_star - delta_zero)) for delta_star in deltas_star])


def _angle_dist_unit(cfg: ExperimentConfig, shared, key) -> list[tuple]:
    inputs, norms = shared
    d, dp = key
    curve = _angle_curve(cfg, inputs, dp, norms[d], default_beta_grid(cfg.beta_points))
    return [({"survival": float(p)}, dp, {"beta": float(beta)})
            for beta, p in zip(curve.betas, curve.survival)]


def _zero_norm_unit(cfg: ExperimentConfig, shared, rep: int) -> list[tuple]:
    task, label = shared
    [dp] = cfg.distill
    _, delta_zero, [delta_star] = _perfect_teacher_repeat(
        cfg, task.sample_inputs, _distilled_targets(label, cfg.distill), rep)
    norm_star, norm_zero = (float(np.linalg.norm(d)) for d in (delta_star, delta_zero))
    return [({"norm_oracle": norm_star, "norm_zero": norm_zero,
              "norm_ratio": norm_zero / norm_star}, dp, {})]


class _SignTask:
    """The base task's inputs, hard-labelled by the sign of a logit function."""

    def __init__(self, base: Task, logits_fn):
        self.sample_inputs = base.sample_inputs
        self.logits_fn = logits_fn

    def hard_labels(self, x, rng=None):
        return (self.logits_fn(x) > 0).astype(float)


def _hard_label_setup(cfg: ExperimentConfig):
    """``(base, gt_fn, teachers)``: the base task; the ground truth, the
    unreduced logits of the perfect teacher fit on the base task's labels;
    and the imperfect teachers, ``[(epoch, LabelSource), ...]``, a teacher
    trained on the ground truth's signs at each stop epoch.  Only the swept
    teachers' logits are read, so they carry no ground truth."""
    recipe, (base, truth) = cfg.teacher, _perfect_teacher(cfg)
    gt_fn = lambda x: forward(truth.net, truth.params, x)
    swept = train_teacher(truth.net, _SignTask(base, gt_fn),
                          recipe.train_config(max(recipe.stop_epochs)), recipe.seed + 1,
                          recipe.stop_epochs)
    return base, gt_fn, [(epoch, LabelSource(truth.net, params, recipe.reduction))
                         for epoch, params in swept.items()]


def _hard_label_unit(cfg: ExperimentConfig, shared, rep: int) -> list[tuple]:
    base, gt_fn, teachers = shared
    temp = cfg.teacher.temperature
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 80, rep))
    # ground-truth oracle norm from one online run on the true targets
    [delta_g] = _train_oracles(cfg, params0, [gt_fn], base.sample_inputs,
                               unit_rng(cfg.seed, 81, rep))
    norm_wg = float(np.linalg.norm(delta_g))
    groups = []
    for n in cfg.n_grid:
        x = base.sample_inputs(int(n), unit_rng(cfg.seed, 82, rep, n))
        # one sweep of x gives both the initial logits and the Gram; one
        # ground-truth evaluation gives w_g and the hard labels y_g that
        # every swept teacher is corrected with
        sweep = Sweep(cfg.net, params0, x)
        z0 = sweep.logits
        gram = KernelMatrix(sweep.gram())
        z_g = gt_fn(x)
        w_g = gram.half_solve(z_g - z0)
        y_g = (z_g > 0).astype(float)
        for epoch, label in teachers:
            z_t = label.logits(x)
            w_t = gram.half_solve(z_t - z0)
            w_h = gram.half_solve(correction_logit(z_t, y_g, temp))
            proj = correction_projection(w_g, w_t, w_h)
            deriv = hard_label_derivative(w_t, proj, norm_wg)
            groups.append(({"projection": proj, "derivative": deriv,
                            "projection_sign": float(np.sign(proj))},
                           None, {"seed": rep, "n": int(n), "T": temp, "epoch": epoch}))
    return groups


_TASKS = ("tasks", bool, "at least one task required for this experiment")
_DISTILL = ("distill", bool, "at least one (soft_ratio, temperature) required")
_N_GRID = ("n_grid", bool, "required for this experiment")
# without an oracle step a weight change is zero, and its norm divides
_ORACLE_EPOCHS = ("oracle.epochs", lambda e: e >= 1, "must be >= 1 for this experiment")

_Kind = namedtuple("_Kind", "setup units unit requires cost finish", defaults=[None])
_KINDS = {
    "effective-logits": _Kind(
        lambda cfg: None, lambda cfg: [(dp, z_t) for dp in cfg.distill for z_t in cfg.z_t_grid],
        _effective_logits_unit, (_DISTILL,), lambda cfg: (_solve_cost(cfg),)),
    "ntk-check": _Kind(
        _ntk_check_setup,
        lambda cfg: [(w, rep) for w in cfg.width_grid for rep in range(cfg.repeats)],
        _ntk_check_unit, (),
        lambda cfg: (float(sum((cfg.kernel_inputs + 40) * param_count(replace(cfg.net, width=w))
                               for w in cfg.width_grid) * cfg.repeats),),
        _ntk_check_finish),
    "inefficiency": _Kind(
        lambda cfg: None,
        lambda cfg: [(ti, spec, di, dp) for ti, spec in enumerate(cfg.tasks)
                     for di, dp in enumerate(cfg.distill or [None])],
        _inefficiency_unit, (_TASKS, _N_GRID), lambda cfg: (_solve_cost(cfg),)),
    # risk_slope fits a power law to the whole grid; Monte Carlo passes on
    # the angle inputs and on each n's, the student's per distill point
    "risk": _Kind(
        _perfect_teacher, lambda cfg: range(cfg.repeats), _risk_unit,
        (_TASKS, _DISTILL, ("n_grid", lambda g: len(g) >= 3, "risk takes at least 3 points"),
         _ORACLE_EPOCHS),
        lambda cfg: _trained_cost(
            cfg, cfg.teacher.epochs, len(cfg.distill) + 1, cfg.repeats,
            cfg.repeats * (1 + len(cfg.n_grid) * len(cfg.distill)),
            cfg.repeats * (1 + len(cfg.n_grid)))),
    "angle-dist": _Kind(
        _angle_dist_setup, lambda cfg: list(enumerate(cfg.distill)), _angle_dist_unit,
        (_TASKS, _DISTILL, _ORACLE_EPOCHS),
        lambda cfg: _trained_cost(cfg, cfg.teacher.epochs, len(cfg.distill) + 1, 1, 1, 1)),
    # the ground truth's teacher, then the early-stopped sweep
    "hard-label-effect": _Kind(
        _hard_label_setup, lambda cfg: range(cfg.repeats), _hard_label_unit,
        (_TASKS, _N_GRID, ("teacher.stop_epochs", bool, "required for this experiment"),
         _ORACLE_EPOCHS),
        lambda cfg: _trained_cost(cfg, cfg.teacher.epochs + max(cfg.teacher.stop_epochs), 1,
                                  cfg.repeats)),
    "zero-norm": _Kind(
        _perfect_teacher, lambda cfg: [0], _zero_norm_unit,
        (_TASKS, ("distill", lambda d: len(d) == 1, "zero-norm takes exactly one point"),
         _ORACLE_EPOCHS),
        lambda cfg: _trained_cost(cfg, cfg.teacher.epochs, 2, 1)),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run(
    config_path,
    out_dir=None,
    seed: int | None = None,
    threads: int = 1,
) -> tuple[int, list]:
    """Execute the experiment named by the config; returns (exit_code, paths).

    Completed rows are kept on partial failure, and the manifest marks the
    run incomplete.  Exit codes: 0 success, 1 config error, 2 numerical
    failure.
    """
    cfg = load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    out = out_dir or cfg.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc

    kind = _KINDS[cfg.experiment]
    errors, records, emit = [], [], _emitter(cfg)
    try:
        shared = kind.setup(cfg)
        results = []
        for groups in _pmap(partial(kind.unit, cfg, shared), kind.units(cfg), threads):
            results.append(groups)
            records.extend(emit(groups))
        if kind.finish is not None:
            records.extend(emit(kind.finish(cfg, shared, results)))
        status = 0
    # ArithmeticError takes non-finite effective-logit inputs and an
    # overflowing correction logit
    except (SingularKernelError, ArithmeticError, np.linalg.LinAlgError, DivergenceError,
            UnboundedSolutionError, DegenerateVectorError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        status = 2

    stem = os.path.join(out, cfg.experiment.replace("-", "_"))
    csv_path = stem + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.row())

    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash(),
        "root_seed": cfg.seed,
        "library_version": __version__,
        "config": asdict(cfg),
        "records": len(records),
        "incomplete": bool(errors),
        "errors": errors,
        "columns": list(CSV_COLUMNS),
    }
    manifest_path = stem + "_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return status, [csv_path, manifest_path]
