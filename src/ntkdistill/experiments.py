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
coordinates (see :func:`ntkdistill.metrics.unit_rng`), so units may be
dispatched concurrently without affecting results.  Inefficiency still keys
its streams by task, distill and grid index, so inserting a grid point there
moves other rows.

Each runner is a thin composition of private pieces:

* ``_emitter`` — the row emitter and the run's one clock: fills experiment,
  config hash, the default seed and ``wall_ms`` of every record;
* ``_teacher_checkpoints`` — the one teacher training, returned as
  ``{epoch: Checkpoint}``; each runner wraps only what it reads (the perfect
  teacher as a :class:`~ntkdistill.tasks.LabelSource`, hard-label-effect's
  ground truth as a bare network);
* ``_train_oracles`` — the one online-batch oracle run of the linearized
  student on a list of target functions, trained in lockstep on one batch
  stream, returning one weight change per target;
* ``_perfect_teacher`` and ``_perfect_teacher_repeat`` — risk, angle-dist
  and zero-norm's teacher with its distilled targets, then per repeat the
  initialization, the zero-function weight change and the distill points'
  oracles, which share one batch stream and train in lockstep;
* ``_angle_curves`` — the angle pass of risk and angle-dist: one Monte Carlo
  draw, the NTK diagonal and the teacher evaluated on it once, and one
  survival curve per distill point.

Lockstep oracles evaluate the teacher and every distill point's
effective-logit solve once per chunk of about 1,024 rows, not once per step
(``_distilled_targets``; :func:`~ntkdistill.network.train_linearized`
describes the chunks).  Each (repeat, n) point of the risk study likewise
shares, across distill points, its training sample's sweep and Gram
factorization, its Monte Carlo inputs, the teacher's logits on them and the
student's sweep over them (``_risk_point``).  The risk runner works repeat
by repeat, and still writes its rows in distill point -> repeat -> n order,
including when a later repeat fails.

``wall_ms`` is the wall time since the run's previous ``emit`` call (or its
start), split evenly over the rows of the call, so the column sums to the
run's time up to its last row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .distillation import DistillParams, UnboundedSolutionError, saturated_effective_logits
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
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(float(v))
            return str(v)

        return [
            self.experiment,
            self.config_hash,
            cell(self.seed),
            cell(self.n),
            cell(self.rho),
            cell(self.temperature),
            cell(self.epoch),
            cell(self.q),
            cell(self.p_flip),
            cell(self.beta),
            self.value_name,
            repr(float(self.value)),
            self.flag,
            repr(round(float(self.wall_ms), 3)),
        ]


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
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not self.reduction > 0:
            raise ValueError("reduction must be positive")

    def train_config(self, epochs: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.batch_size, epochs)


@dataclass(frozen=True)
class OracleRecipe:
    """Online-batch training schedule for the oracle weight changes."""

    epochs: int = 3000
    learning_rate: float = 0.003
    batch_size: int = 128
    final_learning_rate: float | None = None

    def __post_init__(self):
        self.train_config()  # a bad schedule fails the config, not the run

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
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

    def hash(self) -> str:
        # the output location is not part of the experiment's identity
        content = {k: v for k, v in asdict(self).items() if k != "out"}
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
    """Cross-field checks, so that a config a run would reject fails here
    with exit 1 and no output: each kind's required fields (no runner falls
    back to a default for one) and task dims that match every network."""
    for message, ok in [
        ("repeats: must be >= 1", cfg.repeats >= 1),
        ("n_grid: entries must be >= 1", all(n >= 1 for n in cfg.n_grid)),
        ("n_grid: must be strictly increasing", list(cfg.n_grid) == sorted(set(cfg.n_grid))),
        ("samples: must be >= 1", cfg.samples >= 1),
        ("beta_points: must be >= 1", cfg.beta_points >= 1),
        ("z_t_grid: must not be empty", len(cfg.z_t_grid) > 0),
        ("width_grid: must not be empty", len(cfg.width_grid) > 0),
        ("width_grid: entries must be >= 1", all(w >= 1 for w in cfg.width_grid)),
        ("norm_grid: must not be empty", len(cfg.norm_grid) > 0),
        # a diag_ratio divides by norm**2, and a negative norm's row would
        # hold the ratio of its absolute value
        ("norm_grid: entries must be > 0", all(v > 0 for v in cfg.norm_grid)),
        ("kernel_inputs: must be >= 1", cfg.kernel_inputs >= 1),
        ("extra_points: must be >= 1", cfg.extra_points >= 1),
    ]:
        if not ok:
            raise ConfigError(message)
    kind = cfg.experiment
    needs_task = {"inefficiency", "risk", "angle-dist", "hard-label-effect", "zero-norm"}
    if kind in needs_task and not cfg.tasks:
        raise ConfigError("tasks: at least one task required for this experiment")
    if kind in ("risk", "angle-dist", "effective-logits") and not cfg.distill:
        raise ConfigError("distill: at least one (soft_ratio, temperature) required")
    if kind in ("risk", "inefficiency", "hard-label-effect") and not cfg.n_grid:
        raise ConfigError("n_grid: required for this experiment")
    if kind == "zero-norm" and len(cfg.distill) != 1:
        raise ConfigError(f"distill: zero-norm takes exactly one point, got {len(cfg.distill)}")
    if kind == "hard-label-effect" and not cfg.teacher.stop_epochs:
        raise ConfigError("teacher.stop_epochs: required for this experiment")
    for i, task in enumerate(cfg.tasks):
        for name, net in (("net", cfg.net), ("teacher_net", cfg.teacher_net)):
            if net is not None and task.dim != net.input_dim:
                raise ConfigError(
                    f"tasks[{i}].dim: {task.dim} differs from {name}.input_dim {net.input_dim}")


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
      repeat, plus 40 per parameter for drawing the initialization: a normal
      draw takes about 22 ns, which the shipped configs' 1.7-2.1e9 estimated
      flop per measured second price at about 40 flop;
    * teacher Adam steps: epochs x teacher parameters x batch;
    * oracle Adam steps: epochs x objectives x repeats x parameters x batch;
    * Monte Carlo passes: samples x parameters per pass, of the student
      (NTK diagonal, linearized student) and of the teacher (its logits).
    """
    kind = cfg.experiment
    if kind == "ntk-check":
        return float(sum((cfg.kernel_inputs + 40) * param_count(replace(cfg.net, width=w))
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
        teacher_epochs += max(recipe.stop_epochs)
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
    """``fn`` of each item, yielded lazily in item order, so the results of
    the items before a failing one reach the caller."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)


# --- the four pieces the runners are composed of ---------------------------


def _emitter(cfg: ExperimentConfig):
    """The row emitter of one run, whose clock starts when it is made.

    ``emit({value_name: value, ...}, **coords)`` returns one RunRecord per
    pair, all sharing ``coords``; it fills the experiment and the config hash,
    and the root seed unless ``coords`` names a ``seed``.  Each call stamps
    its rows with the wall time since the previous call, split evenly over
    them; worker threads share the clock under a lock.
    """
    h = cfg.hash()
    lock = threading.Lock()
    last = time.perf_counter()

    def emit(values: dict, **coords) -> list[RunRecord]:
        nonlocal last
        coords.setdefault("seed", cfg.seed)
        with lock:
            now = time.perf_counter()
            wall_ms = (now - last) * 1e3 / len(values)
            last = now
        return [RunRecord(cfg.experiment, h, value_name=name, value=value, wall_ms=wall_ms,
                          **coords)
                for name, value in values.items()]

    return emit


def _teacher_checkpoints(cfg: ExperimentConfig, task, seed: int, epochs: int, checkpoints):
    """Train ``cfg.teacher_net or cfg.net`` with the teacher recipe on the
    task's hard labels; returns ``{epoch: Checkpoint}`` for the checkpoints
    (epoch 0, the initialization, included)."""
    ckpts = train_teacher(cfg.teacher_net or cfg.net, task, cfg.teacher.train_config(epochs),
                          seed=seed, checkpoint_epochs=checkpoints)
    return {c.epoch: c for c in ckpts}


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


# --- experiment implementations -------------------------------------------


def _run_effective_logits(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    for dp in cfg.distill:
        for z_t in cfg.z_t_grid:
            for y_g in (0.0, 1.0):
                val, sat = saturated_effective_logits(z_t, y_g, dp)
                records.extend(emit(
                    {f"z_s_eff_y{int(y_g)}": float(val)},
                    rho=dp.soft_ratio, temperature=dp.temperature, beta=float(z_t),
                    flag="saturated" if sat else "",
                ))


def _run_ntk_check(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    x = unit_rng(cfg.seed, 0).normal(scale=INPUT_SCALE,
                                     size=(cfg.kernel_inputs, cfg.net.input_dim))
    # the analytic Gram reads the depth and the input dimension, not the width
    target = analytic_ntk_gram(cfg.net, x, jitter=0.0).entries
    target_norm = np.linalg.norm(target)
    # each worker thread draws its units' parameters into one buffer (269 MB
    # at width 4096), grown to the largest p so far; the smaller buffer is
    # released before the larger one is allocated
    local = threading.local()

    def params_of(net, seed):
        p = param_count(net)
        if getattr(local, "buf", None) is None or local.buf.size < p:
            local.buf = None
            local.buf = np.empty(p)
        return init_params(net, seed, out=local.buf[:p])

    def one(width_rep):
        width, rep = width_rep
        net = replace(cfg.net, width=width)
        seed = int(unit_rng(cfg.seed, 1, width, rep).integers(2**63))
        gram = empirical_ntk_gram(net, params_of(net, seed), x, jitter=0.0).entries
        err = float(np.linalg.norm(gram - target) / target_norm)
        return emit({"frob_rel_err": err}, seed=seed, n=width)

    units = [(w, r) for w in cfg.width_grid for r in range(cfg.repeats)]
    for chunk in _pmap(one, units, threads):
        records.extend(chunk)
    for width in cfg.width_grid:
        errs = [r.value for r in records if r.value_name == "frob_rel_err" and r.n == width]
        records.extend(emit({"frob_rel_err_mean": float(np.mean(errs))}, n=width))
    # kernel-diagonal growth against the squared input norm; K(x, x) depends
    # only on |x|, so each norm sits on the first input axis
    for norm in cfg.norm_grid:
        point = np.zeros((1, cfg.net.input_dim))
        point[0, 0] = norm
        ratio = float(analytic_ntk_diag(cfg.net, point)[0] / norm**2)
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
        task = Task(task_spec)
        targets = distilled_target_fn(task, dp) if dp is not None else None
        curve = data_inefficiency(
            task,
            cfg.net,
            cfg.n_grid,
            cfg.repeats,
            root_seed=int(unit_rng(cfg.seed, ti, di).integers(2**63)),
            targets=targets,
            extra_points=cfg.extra_points,
        )
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
    sweep = Sweep(net, params0, as_batch(net, x))
    gram = KernelMatrix(sweep.gram())
    return [sweep.vjp(gram.solve(np.asarray(t, dtype=float) - sweep.logits)) for t in targets]


def _distilled_targets(label, dps):
    """Distilled target functions, one per distill point: the effective
    logits of the label source's teacher logits and hard labels.  A memo
    shares one teacher evaluation per input set, so the lockstep oracles,
    which each evaluate their own targets, evaluate the teacher once per
    chunk, and closed-form students fit on one sample once."""
    teacher = _memo_last(lambda x: (label.logits(x), label.hard(x)))
    return [lambda x, rng=None, dp=dp: saturated_effective_logits(*teacher(x), dp)[0]
            for dp in dps]


def _perfect_teacher(cfg: ExperimentConfig):
    """The perfect-teacher setup of risk, angle-dist and zero-norm:
    ``(sampler, label, targets)``.  The first task's input sampler; the final
    checkpoint of a teacher trained on that task, with the recipe's logit
    reduction and the task's own labels as ground truth; and the distilled
    target function of each distill point."""
    task = Task(cfg.tasks[0])
    epochs = cfg.teacher.epochs
    ckpt = _teacher_checkpoints(cfg, task, cfg.teacher.seed, epochs, [epochs])[epochs]
    label = LabelSource(ckpt, cfg.teacher.reduction, task.target_logits)
    return task.sample_inputs, label, _distilled_targets(label, cfg.distill)


def _perfect_teacher_repeat(cfg: ExperimentConfig, sampler, targets, rep: int):
    """Repeat ``rep`` of a perfect-teacher runner: ``(params0, delta_zero,
    deltas_star)``.  ``params0`` comes from ``unit_rng(seed, 90, rep)``, the
    zero-function oracle (one run serves every distill point) from
    ``unit_rng(seed, 91 + rep, 2)``, and the distill points' lockstep
    oracles from ``unit_rng(seed, 91 + rep, 1)``."""
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, rep))
    [delta_zero] = _train_oracles(cfg, params0, [lambda x: np.zeros(len(x))], sampler,
                                  unit_rng(cfg.seed, 91 + rep, 2))
    deltas_star = _train_oracles(cfg, params0, targets, sampler, unit_rng(cfg.seed, 91 + rep, 1))
    return params0, delta_zero, deltas_star


def _angle_curves(cfg: ExperimentConfig, sampler, label, params0, delta_zero, deltas_star,
                  rng, betas):
    """``angle_distribution`` of each distill point in turn, lazily, on one
    draw of ``cfg.samples`` Monte Carlo inputs from ``rng``.  The NTK
    diagonal at ``params0`` and the teacher's logits and hard labels are
    evaluated on those inputs once; only the effective-logit solve and
    |dw_* - dw_z| are per distill point."""
    x = sampler(cfg.samples, rng)
    diag = empirical_ntk_diag(cfg.net, params0, x)
    z_t, y_t = label.logits(x), label.hard(x)
    for dp, delta_star in zip(cfg.distill, deltas_star):
        norm = float(np.linalg.norm(delta_star - delta_zero))
        yield angle_distribution(lambda _: saturated_effective_logits(z_t, y_t, dp)[0],
                                 lambda _: diag, norm, lambda m, _: x, cfg.samples, rng, betas)


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


def _run_risk(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    sampler, label, targets = _perfect_teacher(cfg)
    # rows[d][rep] are written in distill -> repeat -> n order, also when a
    # later repeat fails
    rows = [[[] for _ in range(cfg.repeats)] for _ in cfg.distill]
    try:
        for rep in range(cfg.repeats):
            params0, delta_zero, deltas_star = _perfect_teacher_repeat(cfg, sampler, targets, rep)
            curves = list(_angle_curves(cfg, sampler, label, params0, delta_zero, deltas_star,
                                        unit_rng(cfg.seed, 92, rep), None))
            risks = [[] for _ in cfg.distill]
            for n in cfg.n_grid:
                point = _risk_point(cfg, params0, sampler, label, targets, rep, n,
                                    deltas_star, delta_zero)
                for d, (dp, curve, (a_n, est)) in enumerate(zip(cfg.distill, curves, point)):
                    rows[d][rep].extend(emit(
                        {"empirical_risk": est.risk, "risk_std_error": est.std_error,
                         "risk_bound": risk_bound(curve, a_n), "alpha_n": a_n},
                        seed=rep, n=int(n), rho=dp.soft_ratio, temperature=dp.temperature,
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
    sampler, label, targets = _perfect_teacher(cfg)
    params0, delta_zero, deltas_star = _perfect_teacher_repeat(cfg, sampler, targets, 0)
    curves = _angle_curves(cfg, sampler, label, params0, delta_zero, deltas_star,
                           unit_rng(cfg.seed, 95), default_beta_grid(cfg.beta_points))
    # each distill point's rows are written before the next curve is computed
    for dp, curve in zip(cfg.distill, curves):
        for beta, p in zip(curve.betas, curve.survival):
            records.extend(emit({"survival": float(p)}, rho=dp.soft_ratio,
                                temperature=dp.temperature, beta=float(beta)))


def _run_zero_norm(cfg: ExperimentConfig, threads: int, records: list) -> None:
    emit = _emitter(cfg)
    [dp] = cfg.distill
    sampler, _, targets = _perfect_teacher(cfg)
    _, delta_zero, [delta_star] = _perfect_teacher_repeat(cfg, sampler, targets, 0)
    norm_star = float(np.linalg.norm(delta_star))
    norm_zero = float(np.linalg.norm(delta_zero))
    records.extend(emit(
        {"norm_oracle": norm_star, "norm_zero": norm_zero, "norm_ratio": norm_zero / norm_star},
        rho=dp.soft_ratio, temperature=dp.temperature,
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
    epochs = recipe.epochs
    gt = _teacher_checkpoints(cfg, base, recipe.seed, epochs, [epochs])[epochs]
    gt_fn = lambda x: forward(gt.config, gt.params, x)
    swept = _teacher_checkpoints(cfg, _SignTask(base, gt_fn), recipe.seed + 1,
                                 max(recipe.stop_epochs), list(recipe.stop_epochs))
    # only the swept teachers' logits are read, so they carry no ground truth
    teachers = [(epoch, LabelSource(ckpt, recipe.reduction))
                for epoch, ckpt in sorted(swept.items()) if epoch > 0]

    for rep in range(cfg.repeats):
        params0 = init_params(cfg.net, unit_rng(cfg.seed, 80, rep))
        # ground-truth oracle norm from one online run on the true targets
        [delta_g] = _train_oracles(cfg, params0, [gt_fn], sampler, unit_rng(cfg.seed, 81, rep))
        norm_wg = float(np.linalg.norm(delta_g))
        for n in cfg.n_grid:
            x = sampler(int(n), unit_rng(cfg.seed, 82, rep, n))
            # one sweep of x gives both the initial logits and the Gram; one
            # ground-truth evaluation gives dz_g and the hard labels y_g that
            # every swept teacher is corrected with
            sweep = Sweep(cfg.net, params0, x)
            z0 = sweep.logits
            gram = KernelMatrix(sweep.gram())
            z_g = gt_fn(x)
            dz_g = z_g - z0
            y_g = (z_g > 0).astype(float)
            for epoch, label in teachers:
                z_t = label.logits(x)
                dz_t = z_t - z0
                dz_h = correction_logit(z_t, y_g, temp)
                proj = correction_projection(gram, dz_g, dz_t, dz_h)
                deriv = hard_label_derivative(gram, dz_g, dz_t, dz_h, norm_wg)
                records.extend(emit(
                    {"projection": proj, "derivative": deriv,
                     "projection_sign": float(np.sign(proj))},
                    seed=rep, n=int(n), temperature=temp, epoch=epoch,
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

EXPERIMENT_KINDS = tuple(_RUNNERS)


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
    import os

    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = int(seed)
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
