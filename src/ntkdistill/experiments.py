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

Per-record seeds derive from the root seed and the record's own grid
coordinates (see :func:`ntkdistill.metrics.unit_rng`), so extending a grid
never perturbs existing rows, and units may be dispatched concurrently
without affecting results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .distillation import DistillParams, UnboundedSolutionError, saturated_effective_logits
from .kernel import analytic_ntk_diag, analytic_ntk_gram, empirical_ntk_diag, empirical_ntk_gram
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
    weight_change_norm,
)
from .network import (
    DivergenceError,
    NetConfig,
    SquaredTargets,
    TrainConfig,
    forward,
    init_params,
    linear_logit,
    train_linearized,
    train_teacher,
    weighted_feature_sum,
)
from .tasks import Task, TaskSpec, teacher_labels

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

# kernel-solve work estimate (sum of n^3 over grid x repeats) above which
# validate() warns; roughly a laptop-hour
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
    """Rough kernel-solve flop count: sum of n^3 over grid x repeats x tasks."""
    grid = cfg.n_grid or [cfg.samples if cfg.experiment == "ntk-check" else 0]
    per_task = sum(float(n) ** 3 for n in grid) * cfg.repeats
    return per_task * max(len(cfg.tasks), 1) * max(len(cfg.distill), 1)


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
    lines.append(f"estimated kernel-solve cost: {cost:.2e} flop")
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


# --- experiment implementations -------------------------------------------


def _run_effective_logits(cfg: ExperimentConfig, threads: int, records: list) -> None:
    h = cfg.hash()
    dps = cfg.distill or [DistillParams(1.0, 1.0)]
    for dp in dps:
        t0 = time.perf_counter()
        for z_t in cfg.z_t_grid:
            for y_g in (0.0, 1.0):
                val, sat = saturated_effective_logits(z_t, y_g, dp)
                records.append(
                    RunRecord(
                        experiment=cfg.experiment,
                        config_hash=h,
                        seed=cfg.seed,
                        value_name=f"z_s_eff_y{int(y_g)}",
                        value=float(val),
                        rho=dp.soft_ratio,
                        temperature=dp.temperature,
                        beta=float(z_t),
                        flag="saturated" if sat else "",
                        wall_ms=(time.perf_counter() - t0) * 1e3,
                    )
                )


def _run_ntk_check(cfg: ExperimentConfig, threads: int, records: list) -> None:
    h = cfg.hash()
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
        return RunRecord(
            experiment=cfg.experiment,
            config_hash=h,
            seed=seed,
            value_name="frob_rel_err",
            value=err,
            n=width,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )

    units = [(w, r) for w in cfg.width_grid for r in range(cfg.repeats)]
    records.extend(_pmap(one, units, threads))
    for width in cfg.width_grid:
        errs = [
            r.value
            for r in records
            if r.n == width and r.value_name == "frob_rel_err"
        ]
        records.append(
            RunRecord(cfg.experiment, h, cfg.seed, "frob_rel_err_mean",
                      float(np.mean(errs)), n=width)
        )
    # kernel-diagonal growth against the squared input norm
    rng = unit_rng(cfg.seed, 2)
    for norm in cfg.norm_grid:
        direction = rng.normal(size=cfg.net.input_dim)
        point = norm * direction / np.linalg.norm(direction)
        ratio = float(analytic_ntk_diag(cfg.net, point[None, :])[0] / norm**2)
        records.append(
            RunRecord(cfg.experiment, h, cfg.seed, "diag_ratio", ratio, beta=float(norm))
        )


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
    h = cfg.hash()
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
        out = []
        is_mix = task_spec.kind in ("mixture", "flipped-mixture")
        for j, n in enumerate(curve.ns):
            common = dict(
                experiment=cfg.experiment,
                config_hash=h,
                seed=cfg.seed,
                n=int(n),
                rho=dp.soft_ratio if dp else None,
                temperature=dp.temperature if dp else None,
                q=task_spec.modes if is_mix else None,
                p_flip=task_spec.p_flip if task_spec.kind == "flipped-mixture" else None,
                flag=("unreliable" if curve.unreliable[j] else "")
                + (";saturated" if dp is not None and dp.soft_ratio == 0.0 else ""),
                wall_ms=wall / len(curve.ns),
            )
            out.append(RunRecord(value_name="inefficiency",
                                 value=float(curve.inefficiency[j]), **common))
            out.append(RunRecord(value_name="log_mean_norm",
                                 value=float(curve.log_mean_norm[j]), **common))
        return out

    units = [
        (ti, spec, di, dp)
        for ti, spec in enumerate(cfg.tasks)
        for di, dp in enumerate(dps)
    ]
    for chunk in _pmap(one, units, threads):
        records.extend(chunk)


@dataclass
class OracleBundle:
    """Trained reference weight changes for one (student, teacher) pairing."""

    params0: np.ndarray
    delta_star: np.ndarray
    delta_zero: np.ndarray
    eff_fn: object

    @property
    def norm_star(self) -> float:
        return float(np.linalg.norm(self.delta_star))

    @property
    def norm_zero(self) -> float:
        return float(np.linalg.norm(self.delta_zero))

    @property
    def norm_diff(self) -> float:
        return float(np.linalg.norm(self.delta_star - self.delta_zero))


def make_teacher_source(cfg: ExperimentConfig, task: Task, stop_epoch: int | None = None):
    """Train the teacher network on the task's hard labels and wrap it as a
    label source (reduced logits, ground truth from the task)."""
    recipe = cfg.teacher
    net = cfg.teacher_net or cfg.net
    epochs = recipe.epochs if stop_epoch is None else stop_epoch
    wanted = [epochs] if stop_epoch is not None else list(recipe.stop_epochs) or None
    ckpts = train_teacher(
        net,
        task,
        TrainConfig(recipe.learning_rate, recipe.batch_size, epochs),
        seed=recipe.seed,
        checkpoint_epochs=wanted,
    )
    return {
        c.epoch: teacher_labels(c, recipe.temperature, recipe.reduction,
                                ground_truth=lambda x: task.target_logits(x))
        for c in ckpts
    }


def train_zero_oracle(
    cfg: ExperimentConfig, params0: np.ndarray, sampler, key: int
) -> np.ndarray:
    """Online-batch run for the zero-function weight change.

    It depends only on ``params0`` and the stream ``unit_rng(seed, key, 2)``,
    never on the distill point, so one run serves every distill point that
    shares the initialization and key.
    """
    return train_linearized(
        cfg.net, params0, SquaredTargets(lambda x: np.zeros(len(x))),
        cfg.oracle.train_config(), sampler=sampler, rng=unit_rng(cfg.seed, key, 2),
    ).delta


def train_oracles(
    cfg: ExperimentConfig,
    params0: np.ndarray,
    eff_fn,
    sampler,
    key: int,
    delta_zero: np.ndarray,
) -> OracleBundle:
    """Online-batch run for the oracle weight change, bundled with the
    zero-function weight change.

    ``delta_zero`` comes from :func:`train_zero_oracle` with the same
    ``params0`` and ``key``.  It is shared across distill points: the
    runners train it once per initialization, not once per distill point.
    """
    res_star = train_linearized(
        cfg.net, params0, SquaredTargets(lambda x: eff_fn(x)), cfg.oracle.train_config(),
        sampler=sampler, rng=unit_rng(cfg.seed, key, 1),
    )
    return OracleBundle(
        params0=params0,
        delta_star=res_star.delta,
        delta_zero=delta_zero,
        eff_fn=eff_fn,
    )


def student_closed_form(net: NetConfig, params0, x, targets):
    """Kernel-solve weight change for fixed data (finite-width Gram)."""
    z0 = forward(net, params0, x)
    dz = np.asarray(targets, dtype=float) - z0
    gram = empirical_ntk_gram(net, params0, x)
    delta = weighted_feature_sum(net, params0, x, gram.solve(dz))
    return delta, dz, gram


def _fig2_label_source(cfg: ExperimentConfig):
    """The shared perfect-teacher setup: one task, one trained teacher."""
    task = Task(cfg.tasks[0])
    source = make_teacher_source(cfg, task)
    label = source[max(source)]
    return task, label


def _eff_fn_for(label, dp: DistillParams):
    def eff_fn(x, rng=None):
        z_t = label.logits(x)
        vals, _ = saturated_effective_logits(z_t, label.hard(x), dp)
        return vals

    return eff_fn


def _memo_ntk_diag(net: NetConfig, params0: np.ndarray):
    """``empirical_ntk_diag`` at ``params0``, recomputed only when the inputs change.

    Every distill point of a repeat draws the same Monte Carlo inputs for
    ``angle_distribution`` from one stream, so the diagonal on them is
    computed once per initialization instead of once per distill point.
    """
    last = []

    def ntk_diag(x):
        if not last or not np.array_equal(last[0], x):
            last[:] = [x, empirical_ntk_diag(net, params0, x)]
        return last[1]

    return ntk_diag


def _run_risk(cfg: ExperimentConfig, threads: int, records: list) -> None:
    h = cfg.hash()
    task, label = _fig2_label_source(cfg)
    sampler = task.sample_inputs
    inits = []
    for rep in range(cfg.repeats):
        params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, rep))
        inits.append((params0, train_zero_oracle(cfg, params0, sampler, key=91 + rep),
                      _memo_ntk_diag(cfg.net, params0)))
    for dp in cfg.distill:
        eff_fn = _eff_fn_for(label, dp)
        for rep, (params0, delta_zero, ntk_diag) in enumerate(inits):
            t0 = time.perf_counter()
            bundle = train_oracles(
                cfg, params0, eff_fn, sampler, key=91 + rep, delta_zero=delta_zero
            )
            curve = angle_distribution(
                lambda x: bundle.eff_fn(x),
                ntk_diag,
                bundle.norm_diff,
                sampler,
                cfg.samples,
                unit_rng(cfg.seed, 92, rep),
            )
            risks = []
            for n in cfg.n_grid:
                rng = unit_rng(cfg.seed, 93, rep, n)
                x = sampler(int(n), rng)
                delta_hat, dz, gram = student_closed_form(
                    cfg.net, bundle.params0, x, bundle.eff_fn(x)
                )
                a_n = alpha_n(delta_hat, bundle.delta_star, bundle.delta_zero)
                bound = risk_bound(curve, a_n)
                est = empirical_risk(
                    lambda xx: linear_logit(cfg.net, bundle.params0, delta_hat, xx),
                    label.logits,
                    sampler,
                    cfg.samples,
                    rng,
                )
                wall = (time.perf_counter() - t0) * 1e3
                common = dict(experiment=cfg.experiment, config_hash=h,
                              seed=rep, n=int(n), rho=dp.soft_ratio,
                              temperature=dp.temperature, wall_ms=wall)
                records.append(RunRecord(value_name="empirical_risk",
                                         value=est.risk, **common))
                records.append(RunRecord(value_name="risk_std_error",
                                         value=est.std_error, **common))
                records.append(RunRecord(value_name="risk_bound",
                                         value=bound, **common))
                records.append(RunRecord(value_name="alpha_n",
                                         value=a_n, **common))
                risks.append(max(est.risk, 1.0 / cfg.samples))
            fit = fit_power_law(cfg.n_grid, risks)
            records.append(
                RunRecord(cfg.experiment, h, rep, "risk_slope", fit.exponent,
                          rho=dp.soft_ratio, temperature=dp.temperature)
            )


def _run_angle_dist(cfg: ExperimentConfig, threads: int, records: list) -> None:
    h = cfg.hash()
    betas = default_beta_grid(cfg.beta_points)
    task, label = _fig2_label_source(cfg)
    sampler = task.sample_inputs
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, 0))
    delta_zero = train_zero_oracle(cfg, params0, sampler, key=91)
    ntk_diag = _memo_ntk_diag(cfg.net, params0)
    for dp in cfg.distill:
        t0 = time.perf_counter()
        eff_fn = _eff_fn_for(label, dp)
        bundle = train_oracles(
            cfg, params0, eff_fn, sampler, key=91, delta_zero=delta_zero
        )
        curve = angle_distribution(
            lambda x: bundle.eff_fn(x),
            ntk_diag,
            bundle.norm_diff,
            sampler,
            cfg.samples,
            unit_rng(cfg.seed, 95),
            betas=betas,
        )
        wall = (time.perf_counter() - t0) * 1e3
        for beta, p in zip(curve.betas, curve.survival):
            records.append(
                RunRecord(cfg.experiment, h, cfg.seed, "survival", float(p),
                          rho=dp.soft_ratio, temperature=dp.temperature,
                          beta=float(beta), wall_ms=wall / len(betas))
            )


def _run_zero_norm(cfg: ExperimentConfig, threads: int, records: list) -> None:
    h = cfg.hash()
    dp = cfg.distill[0] if cfg.distill else DistillParams(1.0, cfg.teacher.temperature)
    t0 = time.perf_counter()
    task, label = _fig2_label_source(cfg)
    params0 = init_params(cfg.net, unit_rng(cfg.seed, 90, 0))
    sampler = task.sample_inputs
    bundle = train_oracles(
        cfg, params0, _eff_fn_for(label, dp), sampler, key=91,
        delta_zero=train_zero_oracle(cfg, params0, sampler, key=91),
    )
    wall = (time.perf_counter() - t0) * 1e3
    common = dict(experiment=cfg.experiment, config_hash=h, seed=cfg.seed,
                  rho=dp.soft_ratio, temperature=dp.temperature, wall_ms=wall / 3)
    records.extend([
        RunRecord(value_name="norm_oracle", value=bundle.norm_star, **common),
        RunRecord(value_name="norm_zero", value=bundle.norm_zero, **common),
        RunRecord(value_name="norm_ratio",
                  value=bundle.norm_zero / bundle.norm_star, **common),
    ])


class _SignTask:
    """Hard labels from the sign of a fixed logit function."""

    def __init__(self, logits_fn, base_task: Task):
        self.logits_fn = logits_fn
        self._base = base_task
        self.subtract_init = True

    def sample_inputs(self, n, rng):
        return self._base.sample_inputs(n, rng)

    def target_logits(self, x, rng=None):
        return self.logits_fn(x)

    def hard_labels(self, x, rng=None):
        return (self.logits_fn(x) > 0).astype(float)


def ground_truth_chain(cfg: ExperimentConfig):
    """The imperfect-teacher setup: the ground truth is itself a trained
    network (fit long on the base task's labels), and the swept teacher
    trains on that network's signs with early-stopped checkpoints."""
    base = Task(cfg.tasks[0])
    net = cfg.teacher_net or cfg.net
    recipe = cfg.teacher
    gt_ckpt = train_teacher(
        net,
        base,
        TrainConfig(recipe.learning_rate, recipe.batch_size, recipe.epochs),
        seed=recipe.seed,
        checkpoint_epochs=[recipe.epochs],
    )[-1]
    gt_fn = lambda x: forward(gt_ckpt.config, gt_ckpt.params, x)
    sweep_task = _SignTask(gt_fn, base)
    epochs = max(recipe.stop_epochs) if recipe.stop_epochs else recipe.epochs
    ckpts = train_teacher(
        net,
        sweep_task,
        TrainConfig(recipe.learning_rate, recipe.batch_size, epochs),
        seed=recipe.seed + 1,
        checkpoint_epochs=list(recipe.stop_epochs) or None,
    )
    sources = {
        c.epoch: teacher_labels(c, recipe.temperature, recipe.reduction, ground_truth=gt_fn)
        for c in ckpts
        if c.epoch > 0
    }
    return sweep_task, gt_fn, sources


def _run_hard_label_effect(cfg: ExperimentConfig, threads: int, records: list) -> None:
    from .distillation import correction_logit
    from .hardlabel import correction_projection, hard_label_derivative

    h = cfg.hash()
    task, gt_fn, sources = ground_truth_chain(cfg)
    sampler = task.sample_inputs
    temp = cfg.teacher.temperature

    for rep in range(cfg.repeats):
        params0 = init_params(cfg.net, unit_rng(cfg.seed, 80, rep))
        # ground-truth oracle norm from one online run on the true targets
        res_g = train_linearized(
            cfg.net, params0,
            SquaredTargets(lambda x: task.target_logits(x)),
            cfg.oracle.train_config(),
            sampler=sampler, rng=unit_rng(cfg.seed, 81, rep),
        )
        norm_wg = float(np.linalg.norm(res_g.delta))
        for n in cfg.n_grid or [256]:
            rng = unit_rng(cfg.seed, 82, rep, n)
            x = sampler(int(n), rng)
            z0 = forward(cfg.net, params0, x)
            dz_g = task.target_logits(x) - z0
            gram = empirical_ntk_gram(cfg.net, params0, x)
            for epoch, label in sorted(sources.items()):
                t0 = time.perf_counter()
                z_t = label.logits(x)
                y_g = label.hard(x)
                dz_t = z_t - z0
                dz_h = correction_logit(z_t, y_g, temp)
                proj = correction_projection(gram, dz_g, dz_t, dz_h)
                deriv = hard_label_derivative(gram, dz_g, dz_t, dz_h, norm_wg)
                wall = (time.perf_counter() - t0) * 1e3
                common = dict(experiment=cfg.experiment, config_hash=h, seed=rep,
                              n=int(n), temperature=temp, epoch=epoch,
                              wall_ms=wall / 3)
                records.append(RunRecord(value_name="projection", value=proj, **common))
                records.append(RunRecord(value_name="derivative", value=deriv, **common))
                records.append(RunRecord(value_name="projection_sign",
                                         value=float(np.sign(proj)), **common))


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
