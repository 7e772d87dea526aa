"""Config-driven experiment runner with full seed provenance.

Each experiment kind reproduces one of the desk-scale studies at the heart
of the library: effective-logit sweeps, kernel width convergence, data
inefficiency, transfer risk and its bound, angle distributions, the
hard-label correction sweep, and the zero-function norm check.  A run reads
one JSON config, executes, and writes

* ``<kind>.csv`` — one row per atomic measurement, fixed columns
  (experiment, config_hash, seed, n, rho, T, epoch, q, p_flip, beta,
  value_name, value, flag, wall_ms);
* ``<kind>_manifest.json`` — the fully resolved config, root seed, library
  version, and completion state, from which every CSV number can be
  regenerated.

Two columns carry sweep coordinates that vary by experiment: ``n`` holds
the integer coordinate (sample size; network width for ntk-check) and
``beta`` the continuous one (angle for angle-dist, teacher logit for
effective-logits, input norm for the ntk-check diagonal rows).  Reruns with
the same config and seed are byte-identical except for wall_ms.

The ``seed`` column means one of three things: the root seed on most rows;
the derived seed that initialized the network on ntk-check's per-repeat
``frob_rel_err`` rows; and the repeat index (0, 1, ...) on risk and
hard-label-effect rows, whose streams derive from the root seed in the
manifest and that index.

Per-record seeds derive from the root seed and the record's own grid
coordinates (see :func:`ntkdistill.metrics.unit_rng`), so extending a grid
never perturbs existing rows, and units may be dispatched concurrently
without affecting results.

Each runner is a thin composition of four private pieces:

* ``_teacher_sources`` — the one teacher setup: trains the teacher network
  with the teacher recipe on a task and wraps each checkpoint as a
  :class:`~ntkdistill.tasks.LabelSource` with a given ground truth (the
  perfect teacher, the imperfect teacher's ground-truth network and its
  early-stopped sweep all come from it);
* ``_train_oracles`` — the one online-batch oracle run of the linearized
  student on a list of target functions (distilled, zero-function, or
  ground-truth targets), trained in lockstep on one batch stream, returning
  one weight change per target;
* ``_perfect_teacher_init`` — a repeat's initialization for the
  perfect-teacher runners (risk, angle-dist, zero-norm): the initial
  parameters, the zero-function weight change, and a memo of the NTK
  diagonal and teacher evaluations on the Monte Carlo inputs, so each
  initialization evaluates them once whatever the number of distill points;
* ``_emitter`` — the row emitter: fills experiment, config hash and the
  default seed of every record.

The distill points of a perfect-teacher repeat share their oracle batch
stream, so risk and angle-dist train their distill-point oracles in
lockstep: each step draws one batch, sweeps it once and evaluates the
teacher on it once (``_distilled_targets``).  Each (repeat, n) point of the
risk study likewise shares, across distill points, its training sample's
sweep and Gram factorization, its Monte Carlo inputs, the teacher's logits
on them and the student's sweep over them (``_risk_point``).  The risk
runner therefore works repeat by repeat, and still writes its rows in
distill point -> repeat -> n order, including when a later repeat fails.

``wall_ms`` spans, per kind: on a risk row, the repeat's work from its
initialization (zero-function and lockstep oracle runs, angle passes) up to
and including grid point ``n`` for all distill points (``risk_slope`` rows
carry 0); on angle-dist rows, the distill point's equal share of the
lockstep oracle run plus its own angle pass, spread over its beta rows; on
effective-logits rows, the time since the distill point's first solve; on
the other kinds, the unit of work that produced the rows, spread evenly
over them (ntk-check's summary rows carry 0).
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .distillation import DistillParams, UnboundedSolutionError, saturated_effective_logits
from .kernel import (
    analytic_ntk_diag,
    analytic_ntk_gram,
    empirical_ntk_diag,
    empirical_ntk_gram,
    _sweep_gram,
)
from .linalg import DegenerateVectorError, SingularKernelError
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
    TrainConfig,
    forward,
    init_params,
    param_count,
    _as_batch,
    _Cache,
    _linear_logits,
    train_linearized,
    train_teacher,
)
from .tasks import LabelSource, Task, TaskSpec

EXPERIMENT_KINDS = (
    "effective-logits",
    "ntk-check",
    "inefficiency",
    "risk",
    "angle-dist",
    "hard-label-effect",
    "zero-norm",
)

CSV_COLUMNS = (
    "experiment",
    "config_hash",
    "seed",
    "n",
    "rho",
    "T",
    "epoch",
    "q",
    "p_flip",
    "beta",
    "value_name",
    "value",
    "flag",
    "wall_ms",
)

# work estimate (estimate_cost) above which validate() warns; roughly a
# laptop-hour
COST_BUDGET = 5e12


class ConfigError(ValueError):
    """Config file failed to parse or validate; message names the field."""


@dataclass
class RunRecord:
    experiment: str
    config_hash: str
    seed: int | None
    value_name: str
    value: float
    n: int | None = None
    rho: float | None = None
    temperature: float | None = None
    epoch: int | None = None
    q: int | None = None
    p_flip: float | None = None
    beta: float | None = None
    flag: str = ""
    wall_ms: float = 0.0

    def row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(float(v))
            return str(v)

        return [
            self.experiment,
            self.config_hash,
            fmt(self.seed),
            fmt(self.n),
            fmt(self.rho),
            fmt(self.temperature),
            fmt(self.epoch),
            fmt(self.q),
            fmt(self.p_flip),
            fmt(self.beta),
            self.value_name,
            repr(float(self.value)),
            self.flag,
            repr(round(float(self.wall_ms), 3)),
        ]


@dataclass(frozen=True)
class TeacherRecipe:
    """How to train (or load) the teacher network for an experiment."""

    epochs: int = 2048
    learning_rate: float = 0.01
    batch_size: int = 256
    seed: int = 0
    stop_epochs: tuple[int, ...] = ()
    temperature: float = 10.0
    reduction: float = 0.3


@dataclass(frozen=True)
class OracleRecipe:
    """Online-batch training schedule for the oracle weight changes."""

    epochs: int = 3000
    learning_rate: float = 0.003
    batch_size: int = 128
    final_learning_rate: float | None = None

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            online_batch=True,
            final_learning_rate=self.final_learning_rate,
        )


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
    oracle: OracleRecipe = field(default_factory=OracleRecipe)
    z_t_grid: list[float] = field(default_factory=lambda: list(np.linspace(-5, 5, 21)))
    width_grid: list[int] = field(default_factory=lambda: [64, 256, 1024, 4096])
    kernel_inputs: int = 16
    norm_grid: list[float] = field(default_factory=lambda: list(np.linspace(10, 100, 10)))
    samples: int = 10_000
    beta_points: int = 65
    extra_points: int = 1
    kernel: str = "analytic"
    normalize_targets: bool = False

    def resolved(self) -> dict:
        d = asdict(self)
        d["net"] = asdict(self.net)
        d["teacher_net"] = asdict(self.teacher_net) if self.teacher_net else None
        d["distill"] = [asdict(p) for p in self.distill]
        d["tasks"] = [t.to_dict() for t in self.tasks]
        d["teacher"] = asdict(self.teacher)
        d["oracle"] = asdict(self.oracle)
        return d

    def hash(self) -> str:
        # the output location is not part of the experiment's identity
        content = {k: v for k, v in self.resolved().items() if k != "out"}
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _build(name: str, cls, data: dict):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{name}: unknown or missing field ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    kind = data.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment: got {kind!r}, expected one of {', '.join(EXPERIMENT_KINDS)}"
        )
    if "seed" not in data or not isinstance(data["seed"], int):
        raise ConfigError("seed: required integer")
    if "net" not in data:
        raise ConfigError("net: required")

    known = set(ExperimentConfig.__dataclass_fields__)
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")

    kwargs = dict(data)
    kwargs["net"] = _build("net", NetConfig, data["net"])
    if data.get("teacher_net"):
        kwargs["teacher_net"] = _build("teacher_net", NetConfig, data["teacher_net"])
    kwargs["distill"] = [
        _build(f"distill[{i}]", DistillParams, p)
        for i, p in enumerate(data.get("distill", []))
    ]
    kwargs["tasks"] = [
        _build(f"tasks[{i}]", TaskSpec, t) for i, t in enumerate(data.get("tasks", []))
    ]
    if "teacher" in data:
        teacher = dict(data["teacher"])
        if "stop_epochs" in teacher:
            teacher["stop_epochs"] = tuple(teacher["stop_epochs"])
        kwargs["teacher"] = _build("teacher", TeacherRecipe, teacher)
    if "oracle" in data:
        kwargs["oracle"] = _build("oracle", OracleRecipe, data["oracle"])

    cfg = _build("config", ExperimentConfig, kwargs)
    _validate_fields(cfg)
    return cfg


def _validate_fields(cfg: ExperimentConfig) -> None:
    if cfg.repeats < 1:
        raise ConfigError("repeats: must be >= 1")
    if any(n < 1 for n in cfg.n_grid):
        raise ConfigError("n_grid: entries must be >= 1")
    if sorted(cfg.n_grid) != list(cfg.n_grid):
        raise ConfigError("n_grid: must be sorted ascending")
    if cfg.kernel not in ("analytic", "empirical"):
        raise ConfigError("kernel: must be 'analytic' or 'empirical'")
    if cfg.samples < 1:
        raise ConfigError("samples: must be >= 1")
    kind = cfg.experiment
    needs_task = {"inefficiency", "risk", "angle-dist", "hard-label-effect", "zero-norm"}
    if kind in needs_task and not cfg.tasks:
        raise ConfigError("tasks: at least one task required for this experiment")
    if kind in ("risk", "angle-dist") and not cfg.distill:
        raise ConfigError("distill: at least one (soft_ratio, temperature) required")
    if kind in ("risk", "inefficiency") and not cfg.n_grid:
        raise ConfigError("n_grid: required for this experiment")


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
    """Rough flop count of the work that dominates a run, the sum of

    * kernel solves: n^3 per grid point, repeat, task and distill point;
    * ntk-check's empirical Grams: kernel inputs x parameters per width and
      repeat;
    * teacher Adam steps: epochs x teacher parameters x batch;
    * oracle Adam steps: epochs x objectives x repeats x parameters x batch;
    * Monte Carlo passes: samples x parameters per pass, of the student
      (NTK diagonal, linearized student) and of the teacher (its logits).
    """
    kind = cfg.experiment
    if kind == "ntk-check":
        return float(sum(cfg.kernel_inputs * param_count(replace(cfg.net, width=w))
                         for w in cfg.width_grid) * cfg.repeats)
    cost = sum(float(n) ** 3 for n in cfg.n_grid) * cfg.repeats
    cost *= max(len(cfg.tasks), 1) * max(len(cfg.distill), 1)
    k, grid = len(cfg.distill), len(cfg.n_grid)
    # per trained kind: (oracle objectives per repeat, oracle repeats,
    # student Monte Carlo passes, teacher Monte Carlo passes)
    shape = {
        "risk": (k + 1, cfg.repeats, cfg.repeats * (1 + grid * k), cfg.repeats * (1 + grid)),
        "angle-dist": (k + 1, 1, 1, 1),
        "zero-norm": (2, 1, 0, 0),
        "hard-label-effect": (1, cfg.repeats, 0, 0),
    }.get(kind)
    if shape is None:
        return cost
    objectives, repeats, student_passes, teacher_passes = shape
    recipe, oracle = cfg.teacher, cfg.oracle
    p, p_teacher = param_count(cfg.net), param_count(cfg.teacher_net or cfg.net)
    teacher_epochs = recipe.epochs
    if kind == "hard-label-effect":  # the ground truth, then the early-stopped sweep
        teacher_epochs += max(recipe.stop_epochs, default=recipe.epochs)
    cost += float(teacher_epochs) * p_teacher * recipe.batch_size
    cost += float(oracle.epochs) * objectives * repeats * p * oracle.batch_size
    cost += float(cfg.samples) * (student_passes * p + teacher_passes * p_teacher)
    return cost


def validate(path) -> str:
    """Schema and cross-field checks without executing; returns a report."""
    cfg = load_config(path)
    lines = [
        f"experiment: {cfg.experiment}",
        f"config hash: {cfg.hash()}",
        f"root seed: {cfg.seed}",
        f"tasks: {len(cfg.tasks)}, distill points: {len(cfg.distill)}, "
        f"n grid: {cfg.n_grid or '-'}, repeats: {cfg.repeats}",
    ]
    cost = estimate_cost(cfg)
    lines.append(f"estimated cost: {cost:.2e} flop")
    if cost > COST_BUDGET:
        lines.append(
            f"WARNING: estimated cost exceeds the desk budget ({COST_BUDGET:.0e}); "
            "consider a smaller grid or fewer repeats"
        )
    lines.append("OK")
    return "\n".join(lines)


def _pmap(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# --- the four pieces the runners are composed of ---------------------------


def _emitter(cfg: ExperimentConfig):
    """The row emitter of one run.

    ``emit({value_name: value, ...}, **coords)`` returns one RunRecord per
    pair, all sharing ``coords``; it fills the experiment and the config hash,
    and the root seed unless ``coords`` names a ``seed``.
    """
    h = cfg.hash()

    def emit(values: dict, **coords) -> list[RunRecord]:
        coords.setdefault("seed", cfg.seed)
        return [RunRecord(cfg.experiment, h, value_name=name, value=value, **coords)
                for name, value in values.items()]

    return emit


def _teacher_sources(
    cfg: ExperimentConfig, task, seed: int, epochs: int, checkpoints: list[int] | None,
    ground_truth,
) -> dict[int, LabelSource]:
    """Train ``cfg.teacher_net or cfg.net`` with the teacher recipe on the
    task's hard labels; returns ``{epoch: LabelSource}`` for the checkpoints
    (epoch 0, the initialization, included), each with the recipe's
    temperature and logit reduction and hard labels from ``ground_truth``."""
    recipe = cfg.teacher
    ckpts = train_teacher(
        cfg.teacher_net or cfg.net,
        task,
        TrainConfig(recipe.learning_rate, recipe.batch_size, epochs),
        seed=seed,
        checkpoint_epochs=checkpoints,
    )
    return {
        c.epoch: LabelSource(c, recipe.temperature, recipe.reduction, ground_truth)
        for c in ckpts
    }


def _train_oracles(cfg: ExperimentConfig, params0: np.ndarray, target_fns, sampler, rng):
    """Online-batch oracle runs of the linearized student at ``params0``, one
    per squared-loss target function ``target_fns[i](x)``, trained in lockstep
    on one batch stream; returns the weight changes in the same order."""
    results = train_linearized(
        cfg.net, params0, [SquaredTargets(fn) for fn in target_fns],
        cfg.oracle.train_config(), sampler=sampler, rng=rng,
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


def _perfect_teacher_init(cfg: ExperimentConfig, sampler, label, rep: int):
    """Repeat ``rep``'s initialization for the perfect-teacher runners (risk,
    angle-dist, zero-norm): ``(params0, delta_zero, memo)``.

    ``params0`` comes from ``unit_rng(seed, 90, rep)``.  ``delta_zero``, the
    zero-function weight change, runs on the oracle stream
    ``unit_rng(seed, 91 + rep, 2)``; it never depends on the distill point,
    so one run serves every distill point (whose own oracles run in lockstep
    on ``unit_rng(seed, 91 + rep, 1)``).  ``memo(x)`` gives the NTK diagonal
    at ``params0`` and the teacher's logits and hard labels on ``x``,
    recomputed only when ``x`` changes: every distill point of a repeat draws
    the same Monte Carlo inputs for ``angle_distribution``, so they are
    evaluated once per initialization instead of once per distill point.
    """
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, rep))
    [delta_zero] = _train_oracles(cfg, params0, [lambda x: np.zeros(len(x))], sampler,
                                  unit_rng(cfg.seed, 91 + rep, 2))
    memo = _memo_last(lambda x: (empirical_ntk_diag(cfg.net, params0, x), label.logits(x),
                                 label.hard(x)))
    return params0, delta_zero, memo


# --- experiment implementations -------------------------------------------


def _run_effective_logits(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    for dp in cfg.distill or [DistillParams(1.0, 1.0)]:
        t0 = time.perf_counter()
        for z_t in cfg.z_t_grid:
            for y_g in (0.0, 1.0):
                val, sat = saturated_effective_logits(z_t, y_g, dp)
                records.extend(emit(
                    {f"z_s_eff_y{int(y_g)}": float(val)},
                    rho=dp.soft_ratio, temperature=dp.temperature, beta=float(z_t),
                    flag="saturated" if sat else "",
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                ))


def _run_ntk_check(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    x = unit_rng(cfg.seed, 0).normal(scale=5.0, size=(cfg.kernel_inputs, cfg.net.input_dim))

    def one(width_rep):
        width, rep = width_rep
        t0 = time.perf_counter()
        net = NetConfig(
            cfg.net.input_dim,
            cfg.net.hidden_layers,
            width,
            cfg.net.weight_scale,
            cfg.net.bias_scale,
        )
        seed = int(unit_rng(cfg.seed, 1, width, rep).integers(2**63))
        target = analytic_ntk_gram(net, x, jitter=0.0).entries
        gram = empirical_ntk_gram(net, init_params(net, seed), x, jitter=0.0).entries
        err = float(np.linalg.norm(gram - target) / np.linalg.norm(target))
        return emit({"frob_rel_err": err}, seed=seed, n=width,
                    wall_ms=(time.perf_counter() - t0) * 1e3)

    units = [(w, r) for w in cfg.width_grid for r in range(cfg.repeats)]
    done = [rec for chunk in _pmap(one, units, threads) for rec in chunk]
    records.extend(done)
    for width in cfg.width_grid:
        errs = [r.value for r in done if r.n == width]
        records.extend(emit({"frob_rel_err_mean": float(np.mean(errs))}, n=width))
    # kernel-diagonal growth against the squared input norm
    rng = unit_rng(cfg.seed, 2)
    for norm in cfg.norm_grid:
        direction = rng.normal(size=cfg.net.input_dim)
        point = norm * direction / np.linalg.norm(direction)
        ratio = float(analytic_ntk_diag(cfg.net, point[None, :])[0] / norm**2)
        records.extend(emit({"diag_ratio": ratio}, beta=float(norm)))


def distilled_target_fn(task: Task, dp: DistillParams):
    """Effective-logit targets for a task's own teacher: the task's target
    logits play the teacher, its sign plays the ground truth."""

    def fn(x, rng=None):
        z_t = task.target_logits(x, rng)
        y_g = (np.asarray(z_t) > 0).astype(float)
        vals, _ = saturated_effective_logits(z_t, y_g, dp)
        return vals

    return fn


def _run_inefficiency(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    dps: list[DistillParams | None] = list(cfg.distill) or [None]

    def one(unit):
        ti, task_spec, di, dp = unit
        t0 = time.perf_counter()
        task = Task(task_spec)
        targets = distilled_target_fn(task, dp) if dp is not None else None
        curve = data_inefficiency(
            task,
            cfg.net,
            cfg.n_grid,
            cfg.repeats,
            root_seed=int(unit_rng(cfg.seed, ti, di).integers(2**63)),
            kernel=cfg.kernel,
            normalize_targets=cfg.normalize_targets,
            targets=targets,
            extra_points=cfg.extra_points,
        )
        wall = (time.perf_counter() - t0) * 1e3
        is_mix = task_spec.kind in ("mixture", "flipped-mixture")
        saturated = ";saturated" if dp is not None and dp.soft_ratio == 0.0 else ""
        out = []
        for j, n in enumerate(curve.ns):
            out.extend(emit(
                {"inefficiency": float(curve.inefficiency[j]),
                 "log_mean_norm": float(curve.log_mean_norm[j])},
                n=int(n),
                rho=dp.soft_ratio if dp else None,
                temperature=dp.temperature if dp else None,
                q=task_spec.modes if is_mix else None,
                p_flip=task_spec.p_flip if task_spec.kind == "flipped-mixture" else None,
                flag=("unreliable" if curve.unreliable[j] else "") + saturated,
                wall_ms=wall / len(curve.ns),
            ))
        return out

    units = [
        (ti, spec, di, dp)
        for ti, spec in enumerate(cfg.tasks)
        for di, dp in enumerate(dps)
    ]
    for chunk in _pmap(one, units, threads):
        records.extend(chunk)


def student_closed_form(net: NetConfig, params0, x, targets) -> list[np.ndarray]:
    """Kernel-solve weight changes for fixed data (finite-width Gram), one per
    target vector in ``targets``.  The sweep of ``x``, its Gram and the Gram's
    factorization are computed once and shared by all of them."""
    batch, _ = _as_batch(net, x)
    sweep = _Cache(net, np.asarray(params0, dtype=float), batch)
    gram = _sweep_gram(sweep)
    return [sweep.weighted_gradient(gram.solve(np.asarray(t, dtype=float) - sweep.logits))
            for t in targets]


def _distilled_targets(label, dps):
    """Distilled target functions, one per distill point: the effective
    logits of the label source's teacher logits and hard labels.  They share
    one teacher evaluation per input set, so oracles trained in lockstep and
    closed-form students fit on one sample evaluate the teacher once for all
    distill points."""
    teacher = _memo_last(lambda x: (label.logits(x), label.hard(x)))
    return [lambda x, rng=None, dp=dp: saturated_effective_logits(*teacher(x), dp)[0]
            for dp in dps]


def _perfect_teacher(cfg: ExperimentConfig):
    """The perfect-teacher setup: the first task's input sampler and the final
    checkpoint of a teacher trained on it, with the task's own labels as
    ground truth."""
    task = Task(cfg.tasks[0])
    recipe = cfg.teacher
    teachers = _teacher_sources(cfg, task, recipe.seed, recipe.epochs,
                                list(recipe.stop_epochs) or None, task.target_logits)
    return task.sample_inputs, teachers[max(teachers)]


def _angle_curve(cfg: ExperimentConfig, memo, dp: DistillParams, oracle_diff: np.ndarray,
                 sampler, rng, betas):
    """``angle_distribution`` of one distill point, with |dw_* - dw_z| from the
    oracle runs and every evaluation on the inputs taken from the
    initialization's memo."""
    return angle_distribution(
        lambda x: saturated_effective_logits(*memo(x)[1:], dp)[0],
        lambda x: memo(x)[0],
        float(np.linalg.norm(oracle_diff)), sampler, cfg.samples, rng, betas=betas,
    )


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
    # the first distill point's empirical_risk sweeps the Monte Carlo inputs
    # block by block for every distill point's student, and evaluates the
    # teacher logits; the others reuse both
    students = _memo_last(lambda xx: _linear_logits(cfg.net, params0, deltas_hat, xx))
    teacher = _memo_last(label.logits)
    point = []
    for j, (delta_hat, delta_star) in enumerate(zip(deltas_hat, deltas_star)):
        est = empirical_risk(lambda xx, j=j: students(xx)[j], teacher, lambda m, _: x_mc,
                             cfg.samples, rng)
        point.append((alpha_n(delta_hat, delta_star, delta_zero), est))
    return point


def _run_risk(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    sampler, label = _perfect_teacher(cfg)
    targets = _distilled_targets(label, cfg.distill)
    # rows[d][rep] are written in distill -> repeat -> n order, also when a
    # later repeat fails
    rows = [[[] for _ in range(cfg.repeats)] for _ in cfg.distill]
    try:
        for rep in range(cfg.repeats):
            t0 = time.perf_counter()
            params0, delta_zero, memo = _perfect_teacher_init(cfg, sampler, label, rep)
            deltas_star = _train_oracles(cfg, params0, targets, sampler,
                                         unit_rng(cfg.seed, 91 + rep, 1))
            curves = [
                _angle_curve(cfg, memo, dp, delta_star - delta_zero, sampler,
                             unit_rng(cfg.seed, 92, rep), None)
                for dp, delta_star in zip(cfg.distill, deltas_star)
            ]
            risks = [[] for _ in cfg.distill]
            for n in cfg.n_grid:
                point = _risk_point(cfg, params0, sampler, label, targets, rep, n,
                                    deltas_star, delta_zero)
                wall = (time.perf_counter() - t0) * 1e3
                for d, (dp, curve, (a_n, est)) in enumerate(zip(cfg.distill, curves, point)):
                    rows[d][rep].extend(emit(
                        {"empirical_risk": est.risk, "risk_std_error": est.std_error,
                         "risk_bound": risk_bound(curve, a_n), "alpha_n": a_n},
                        seed=rep, n=int(n), rho=dp.soft_ratio, temperature=dp.temperature,
                        wall_ms=wall,
                    ))
                    risks[d].append(max(est.risk, 1.0 / cfg.samples))
            for d, dp in enumerate(cfg.distill):
                fit = fit_power_law(cfg.n_grid, risks[d])
                rows[d][rep].extend(emit({"risk_slope": fit.exponent}, seed=rep,
                                         rho=dp.soft_ratio, temperature=dp.temperature))
    finally:
        records.extend(row for per_dp in rows for per_rep in per_dp for row in per_rep)


def _run_angle_dist(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    betas = default_beta_grid(cfg.beta_points)
    sampler, label = _perfect_teacher(cfg)
    params0, delta_zero, memo = _perfect_teacher_init(cfg, sampler, label, 0)
    t0 = time.perf_counter()
    deltas_star = _train_oracles(cfg, params0, _distilled_targets(label, cfg.distill),
                                 sampler, unit_rng(cfg.seed, 91, 1))
    oracle_share = (time.perf_counter() - t0) / len(cfg.distill)
    for dp, delta_star in zip(cfg.distill, deltas_star):
        t0 = time.perf_counter()
        curve = _angle_curve(cfg, memo, dp, delta_star - delta_zero, sampler,
                             unit_rng(cfg.seed, 95), betas)
        wall = (oracle_share + time.perf_counter() - t0) * 1e3
        for beta, p in zip(curve.betas, curve.survival):
            records.extend(emit({"survival": float(p)}, rho=dp.soft_ratio,
                                temperature=dp.temperature, beta=float(beta),
                                wall_ms=wall / len(betas)))


def _run_zero_norm(cfg: ExperimentConfig, threads: int, records: list) -> None:
    dp = cfg.distill[0] if cfg.distill else DistillParams(1.0, cfg.teacher.temperature)
    t0 = time.perf_counter()
    sampler, label = _perfect_teacher(cfg)
    params0, delta_zero, _ = _perfect_teacher_init(cfg, sampler, label, 0)
    [delta_star] = _train_oracles(cfg, params0, _distilled_targets(label, [dp]), sampler,
                                  unit_rng(cfg.seed, 91, 1))
    norm_star = float(np.linalg.norm(delta_star))
    norm_zero = float(np.linalg.norm(delta_zero))
    wall = (time.perf_counter() - t0) * 1e3
    records.extend(_emitter(cfg)(
        {"norm_oracle": norm_star, "norm_zero": norm_zero, "norm_ratio": norm_zero / norm_star},
        rho=dp.soft_ratio, temperature=dp.temperature, wall_ms=wall / 3,
    ))


class _SignTask:
    """The base task's inputs, hard-labelled by the sign of a logit function."""

    def __init__(self, base: Task, logits_fn):
        self.sample_inputs = base.sample_inputs
        self.logits_fn = logits_fn

    def hard_labels(self, x, rng=None):
        return (self.logits_fn(x) > 0).astype(float)


def _run_hard_label_effect(cfg: ExperimentConfig, threads: int, records: list) -> None:
    from .distillation import correction_logit
    from .hardlabel import correction_projection, hard_label_derivative

    emit = _emitter(cfg)
    recipe = cfg.teacher
    temp = recipe.temperature
    base = Task(cfg.tasks[0])
    sampler = base.sample_inputs
    # the ground truth is itself a trained network, fit long on the base
    # task's labels; the swept teacher trains on that network's signs, and
    # its early-stopped checkpoints are the imperfect teachers
    gt = _teacher_sources(cfg, base, recipe.seed, recipe.epochs, [recipe.epochs], None)
    gt_ckpt = gt[max(gt)].checkpoint
    gt_fn = lambda x: forward(gt_ckpt.config, gt_ckpt.params, x)
    sweep = _teacher_sources(
        cfg, _SignTask(base, gt_fn), recipe.seed + 1,
        max(recipe.stop_epochs) if recipe.stop_epochs else recipe.epochs,
        list(recipe.stop_epochs) or None, gt_fn,
    )
    teachers = sorted((epoch, label) for epoch, label in sweep.items() if epoch > 0)

    for rep in range(cfg.repeats):
        params0 = init_params(cfg.net, unit_rng(cfg.seed, 80, rep))
        # ground-truth oracle norm from one online run on the true targets
        [delta_g] = _train_oracles(cfg, params0, [gt_fn], sampler, unit_rng(cfg.seed, 81, rep))
        norm_wg = float(np.linalg.norm(delta_g))
        for n in cfg.n_grid or [256]:
            x = sampler(int(n), unit_rng(cfg.seed, 82, rep, n))
            z0 = forward(cfg.net, params0, x)
            dz_g = gt_fn(x) - z0
            gram = empirical_ntk_gram(cfg.net, params0, x)
            for epoch, label in teachers:
                t0 = time.perf_counter()
                z_t = label.logits(x)
                y_g = label.hard(x)
                dz_t = z_t - z0
                dz_h = correction_logit(z_t, y_g, temp)
                proj = correction_projection(gram, dz_g, dz_t, dz_h)
                deriv = hard_label_derivative(gram, dz_g, dz_t, dz_h, norm_wg)
                wall = (time.perf_counter() - t0) * 1e3
                records.extend(emit(
                    {"projection": proj, "derivative": deriv,
                     "projection_sign": float(np.sign(proj))},
                    seed=rep, n=int(n), temperature=temp, epoch=epoch, wall_ms=wall / 3,
                ))


_RUNNERS = {
    "effective-logits": _run_effective_logits,
    "ntk-check": _run_ntk_check,
    "inefficiency": _run_inefficiency,
    "risk": _run_risk,
    "angle-dist": _run_angle_dist,
    "hard-label-effect": _run_hard_label_effect,
    "zero-norm": _run_zero_norm,
}


def run(
    config_path,
    out_dir=None,
    seed: int | None = None,
    threads: int = 1,
    fmt: str = "csv",
) -> tuple[int, list]:
    """Execute the experiment named by the config; returns (exit_code, paths).

    Completed rows are kept on partial failure, and the manifest marks the
    run incomplete.  Exit codes: 0 success, 1 config error, 2 numerical
    failure.
    """
    import os

    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = int(seed)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: {fmt!r} not in (csv, json)")
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)

    errors: list[str] = []
    records: list[RunRecord] = []
    try:
        _RUNNERS[cfg.experiment](cfg, threads, records)
        status = 0
    except (
        SingularKernelError,
        FloatingPointError,
        np.linalg.LinAlgError,
        DivergenceError,
        UnboundedSolutionError,
        DegenerateVectorError,
    ) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        status = 2

    stem = os.path.join(out, cfg.experiment.replace("-", "_"))
    paths = []
    csv_path = stem + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.row())
    paths.append(csv_path)

    if fmt == "json":
        json_path = stem + ".json"
        with open(json_path, "w") as fh:
            json.dump(
                [dict(zip(CSV_COLUMNS, r.row())) for r in records], fh, indent=1
            )
        paths.append(json_path)

    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash(),
        "root_seed": cfg.seed,
        "library_version": __version__,
        "config": cfg.resolved(),
        "records": len(records),
        "incomplete": bool(errors),
        "errors": errors,
        "columns": list(CSV_COLUMNS),
    }
    manifest_path = stem + "_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    paths.append(manifest_path)
    return status, paths
