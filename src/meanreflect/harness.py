"""Error estimation, convergence sweeps, and constraint diagnostics.

The headline statistic is the replicated worst-grid-point squared coupling
error between a scheme particle and its exact-solution counterpart driven
by identical noise:

    E_hat = (1/L) * sum_l max_k |X_exact(T_k) - X_scheme(T_k)|^2 .

Replications use independent derived seeds; the tracked particle is fixed
at index 0 (the particles are exchangeable, and fixing the index keeps runs
reproducible). The same replication seeds are reused across sweep cells, a
common-random-numbers coupling that sharpens cell-to-cell comparisons
without touching the within-cell independence of replications.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from .errors import DegenerateAbscissae, ValidationError
from .model import Constraint, ModelSpec
from .parallel import map_ordered
from .scheme import GridSpec, TrajectoryRecord, noise_record, simulate
from .stochastics import DiracPoint, LogNormal, derive_seed

_REPLICATION_PURPOSE = 1

#: Particle lanes (rows x N) one batch of replications advances at once,
#: which bounds a batch's memory; a cell with N above it runs one row at a time.
BATCH_LANES = 2**17


# The custom case: required parameters (the affine coefficients are optional)
# and the mark laws, whose numeric config fields are their dataclass fields.
_CUSTOM_PARAMS = ("lambda", "x0")
_JUMP_LAWS = {"lognormal": LogNormal, "dirac": DiracPoint}


def _is_number(value) -> bool:
    """A finite float or an int within float range; booleans do not count."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _fields(where: str, given: dict, owner: str, required=(), optional=(), other=()):
    """The problems of the JSON object ``given`` at ``where``: each missing
    ``required`` field, each key outside the three tuples, and each
    required or optional field that is not a finite number."""
    numeric = (*required, *optional)
    return (
        [f"{where}.{key} is required for {owner}" for key in required if key not in given]
        + [f"{where}.{key} is not a parameter of {owner}"
           for key in given if key not in (*numeric, *other)]
        + [f"{where}.{key} must be a finite number"
           for key in numeric if key in given and not _is_number(given[key])]
    )


def _is_count(value) -> bool:
    """An int in 1..2**32-1; booleans do not count. Step, particle and
    replication indices share 32-bit Philox counter lanes, so larger counts
    would reuse noise."""
    return type(value) is int and 1 <= value < 2**32


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a model, a grid/particle menu, and replication count.

    ``grid_steps`` and ``particles`` are the sweep menus consumed by
    :func:`convergence_sweep`; single-run commands use ``base_steps`` and
    ``base_particles`` (which default to the first menu entries).
    Construction checks every field, however the config was built, and
    raises one :class:`ValidationError` naming each problem by its place in
    the JSON form (:meth:`from_json_dict`, :meth:`to_json_dict`)::

        {
          "model": {"case": <a key of model.CASES>|"custom", ...parameters...},
          "constraint": {"kind": <a key of model.KINDS>, ...},  # custom case only
          "grid": {"T": <float>, "n": <int>},
          "particles": <int>,
          "replications": <int>,            # default 1000
          "seed": <u64>,                    # optional; --seed overrides
          "sweep": {"n": [<int>...], "N": [<int>...]}     # optional
        }

    ``model``, ``model.jump`` and ``constraint`` get the same checks: each
    required field is present, each key is a field of the case, law or
    kind, and each parameter is a finite number. :func:`build_model` checks
    the rest, such as the initial condition h(x0) >= 0.
    """

    case: str
    model_params: dict
    horizon: float
    grid_steps: tuple[int, ...]
    particles: tuple[int, ...]
    replications: int = 1000
    seed: int | None = None
    constraint_params: dict | None = None
    base_steps: int | None = None
    base_particles: int | None = None

    def __post_init__(self):
        problems: list[str] = []
        cases = (*model_mod.CASES, "custom")
        case, constraint = self.case, self.constraint_params
        params = self.model_params if isinstance(self.model_params, dict) else {}
        if case not in cases:
            problems.append(f"model.case must be one of {cases}, got {case!r}")
        elif case != "custom":
            problems += _fields("model", params, f"case {case!r}",
                                model_mod.CASES[case].params)
            if constraint is not None:
                problems.append(
                    f"case {case!r} implies its constraint; remove the 'constraint' object"
                )
        else:
            problems += _fields("model", params, "case 'custom'", _CUSTOM_PARAMS,
                                model_mod.AFFINE_COEFFICIENTS, other=("jump",))
            jump = params.get("jump", {"law": "dirac"})
            law = jump.get("law") if isinstance(jump, dict) else None
            law_type = _JUMP_LAWS.get(law) if isinstance(law, str) else None
            if law_type is not None:
                fields = tuple(f.name for f in dataclasses.fields(law_type))
                problems += _fields("model.jump", jump, f"law {law!r}", (), fields, ("law",))
            else:
                problems.append(
                    f"model.jump must be an object with 'law' in {tuple(_JUMP_LAWS)}"
                )
            kind = constraint.get("kind", "linear") if isinstance(constraint, dict) else None
            record = model_mod.KINDS.get(kind) if isinstance(kind, str) else None
            if record is not None:
                problems += _fields("constraint", constraint, f"kind {kind!r}",
                                    record.params, other=("kind",))
            else:
                problems.append(
                    "custom case requires a 'constraint' object with 'kind' in "
                    f"{tuple(model_mod.KINDS)}"
                )
        if not (_is_number(self.horizon) and self.horizon > 0):
            problems.append(f"grid.T must be > 0, got {self.horizon!r}")
        if not _is_count(self.replications):
            problems.append(
                "replications must be an integer in 1..2**32-1, "
                f"got {self.replications!r}"
            )
        # The seed is the 64-bit Philox key; larger seeds would alias smaller ones.
        seed = self.seed
        if seed is not None and not (type(seed) is int and 0 <= seed < 2**64):
            problems.append(f"seed must be an integer in 0..2**64-1, got {seed!r}")
        for name, key, base, menu in (
            ("grid.n", "n", self.base_steps, self.grid_steps),
            ("particles", "N", self.base_particles, self.particles),
        ):
            if base is not None and not _is_count(base):
                problems.append(
                    f"{name} must be an integer in 1..2**32-1, got {base!r}"
                )
            # A menu that is just the single-run size was checked above.
            if (base is None or menu != (base,)) and not (
                isinstance(menu, (tuple, list)) and menu and all(map(_is_count, menu))
            ):
                problems.append(
                    f"sweep.{key} must be a nonempty list of ints in 1..2**32-1"
                )
        if problems:
            raise ValidationError("invalid config:\n  " + "\n  ".join(problems))

    @classmethod
    def from_json_dict(cls, doc) -> "ExperimentConfig":
        """The config a JSON document describes; the inverse of
        :meth:`to_json_dict`."""
        if not isinstance(doc, dict):
            raise ValidationError("top level must be a JSON object")
        model, grid = doc.get("model"), doc.get("grid")
        sweep = {} if doc.get("sweep") is None else doc["sweep"]
        for name, part in (("model", model), ("grid", grid), ("sweep", sweep)):
            if not isinstance(part, dict):
                raise ValidationError(f"'{name}' must be a JSON object")
        required = (("grid.n", grid.get("n")), ("particles", doc.get("particles")))
        for name, value in required:
            if value is None:
                raise ValidationError(f"{name} is required")

        def menu(key, single):
            values = sweep.get(key)
            if values is None:
                return (single,)
            return tuple(values) if isinstance(values, list) else values

        horizon = grid.get("T")
        return cls(
            case=model.get("case"),
            model_params={k: v for k, v in model.items() if k != "case"},
            horizon=float(horizon) if _is_number(horizon) else horizon,
            grid_steps=menu("n", grid["n"]),
            particles=menu("N", doc["particles"]),
            replications=doc.get("replications", 1000),
            seed=doc.get("seed"),
            constraint_params=doc.get("constraint"),
            base_steps=grid["n"],
            base_particles=doc["particles"],
        )

    def single_grid(self) -> GridSpec:
        n = self.base_steps if self.base_steps is not None else self.grid_steps[0]
        return GridSpec(self.horizon, n)

    def single_particle_count(self) -> int:
        if self.base_particles is not None:
            return self.base_particles
        return self.particles[0]

    def to_json_dict(self) -> dict:
        steps, particles = self.single_grid().steps, self.single_particle_count()
        doc = {
            "model": {"case": self.case, **self.model_params},
            "grid": {"T": self.horizon, "n": steps},
            "particles": particles,
            "replications": self.replications,
        }
        if self.constraint_params is not None:
            doc["constraint"] = dict(self.constraint_params)
        if (tuple(self.grid_steps), tuple(self.particles)) != ((steps,), (particles,)):
            doc["sweep"] = {"n": list(self.grid_steps), "N": list(self.particles)}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


def build_model(config: ExperimentConfig) -> tuple[ModelSpec, Constraint]:
    """Instantiate the model/constraint pair a config describes.

    Factory rejections (bad coefficients, a start with h(x0) < 0, custom
    configs included) surface as :class:`ValidationError` so config-driven
    callers can treat them uniformly.
    """
    p = config.model_params
    try:
        if config.case != "custom":
            case = model_mod.CASES[config.case]
            return case.factory(*(p[name] for name in case.params))
        jump = dict(p.get("jump", {"law": "dirac"}))
        law = _JUMP_LAWS[jump.pop("law")](**{k: float(v) for k, v in jump.items()})
        coefficients = {k: float(p[k]) for k in model_mod.AFFINE_COEFFICIENTS if k in p}
        spec = model_mod.affine_model(float(p["lambda"]), float(p["x0"]), law, **coefficients)
        kind = model_mod.KINDS[config.constraint_params.get("kind", "linear")]
        constraint = kind.factory(*(float(config.constraint_params[n]) for n in kind.params))
        model_mod.check_initial_mean(constraint, float(p["x0"]))
        return spec, constraint
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@dataclass(frozen=True)
class ResultRow:
    n: int
    N: int
    L: int
    e_hat: float
    runtime_sec: float


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class ResultTable:
    """Sweep results ordered by (n, N), plus the log-log regressions."""

    rows: list[ResultRow] = field(default_factory=list)
    regression_in_particles: dict[int, RegressionResult] = field(default_factory=dict)
    regression_in_steps: dict[int, RegressionResult] = field(default_factory=dict)


def require_coupled_path(model: ModelSpec, constraint: Constraint):
    """:func:`~meanreflect.oracle.coupled_path`; ValidationError if it is None."""
    path = oracle_mod.coupled_path(model, constraint)
    if path is None:
        given = ", ".join(f"{n} = {model.params.get(n)}"
                          for n in (*model_mod.AFFINE_COEFFICIENTS, "x0"))
        raise ValidationError(
            f"no exact coupled path for a {constraint.kind} constraint with {given} and "
            f"{model.jump_size_law!r} marks: a linear one needs a = gamma = theta = 0, or "
            "beta = sigma = eta = 0, a >= 0, x0 > 0 and Dirac marks v with 1 + theta*v > 0")
    return path


def l2_error(
    config: ExperimentConfig,
    n: int | None = None,
    n_particles: int | None = None,
    threads: int | None = None,
) -> float:
    """Replicated worst-grid-point squared coupling error for one cell, against
    the exact path :func:`~meanreflect.oracle.coupled_path` picks for its model.

    ``n`` and ``n_particles`` default to ``grid_steps[0]`` and ``particles[0]``,
    not to the single-run sizes (fig2.json: N=100, not ``particles`` = 2200).

    The replications advance in batches of ``max(1, min(L, BATCH_LANES // N))``
    rows, each batch one ``simulate`` call over a ``(rows, N)`` cloud. Each
    replication's exact path is then replayed from its own seed through
    :func:`~meanreflect.parallel.map_ordered`, and ``E_hat`` is the mean of
    the L errors in replication order: bit for bit the value of L separate
    runs, for any batch size and worker count.
    """
    if config.seed is None:
        raise ValidationError("error estimation needs an explicit seed")
    model, constraint = build_model(config)
    exact_path = require_coupled_path(model, constraint)
    params = {**model.params, **constraint.params}
    grid = GridSpec(config.horizon, config.grid_steps[0] if n is None else n)
    n_particles = config.particles[0] if n_particles is None else n_particles

    def tracked_paths(seeds: list[int]) -> np.ndarray:
        """Particle 0 of each seed's run, one row per seed."""
        x_scheme = np.empty((len(seeds), grid.steps + 1))

        def observe(k: int, X: np.ndarray) -> None:
            x_scheme[:, k] = X[:, 0]

        simulate(model, constraint, grid, n_particles, seeds, observe=observe,
                 threads=threads)
        return x_scheme

    def coupled_error(replication: tuple[int, np.ndarray]) -> float:
        seed, x_scheme = replication
        noise = noise_record(model, grid, n_particles, seed)
        path = exact_path(noise, params, grid, particle=0)
        diff = path.x_exact - x_scheme
        return float(np.max(diff * diff))

    L = config.replications
    seeds = [derive_seed(config.seed, l, _REPLICATION_PURPOSE) for l in range(L)]
    rows = max(1, min(L, BATCH_LANES // n_particles))
    errors: list[float] = []
    for lo in range(0, L, rows):
        batch = seeds[lo:lo + rows]
        errors += map_ordered(coupled_error, list(zip(batch, tracked_paths(batch))))
    return float(np.mean(errors))


def loglog_fit(points: Sequence[tuple[float, float]]) -> RegressionResult:
    """Ordinary least squares of log(y) on log(x)."""
    xs = np.asarray([float(p[0]) for p in points])
    ys = np.asarray([float(p[1]) for p in points])
    if np.unique(xs).size < 2:
        raise DegenerateAbscissae(
            f"need >= 2 distinct abscissae, got {np.unique(xs).size}"
        )
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs strictly positive coordinates")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionResult(float(slope), float(intercept), r2)


def convergence_sweep(
    config: ExperimentConfig, threads: int | None = None
) -> ResultTable:
    """E_hat over the (n, N) menu plus log-log regressions along each axis."""
    table = ResultTable()
    cells = sorted(
        {(int(n), int(N)) for n in config.grid_steps for N in config.particles}
    )
    for n, n_particles in cells:
        start = time.perf_counter()
        e_hat = l2_error(config, n=n, n_particles=n_particles, threads=threads)
        table.rows.append(
            ResultRow(n, n_particles, config.replications, e_hat,
                      time.perf_counter() - start)
        )
    for n in sorted({row.n for row in table.rows}):
        pts = [(row.N, row.e_hat) for row in table.rows if row.n == n]
        if len({p[0] for p in pts}) >= 2:
            table.regression_in_particles[n] = loglog_fit(pts)
    for n_particles in sorted({row.N for row in table.rows}):
        pts = [(row.n, row.e_hat) for row in table.rows if row.N == n_particles]
        if len({p[0] for p in pts}) >= 2:
            table.regression_in_steps[n_particles] = loglog_fit(pts)
    return table


@dataclass(frozen=True)
class SkorokhodReport:
    """Discrete complementarity diagnostics of one trajectory.

    Violations are normalized by 1 + |mean X| at the step. A step counts as
    active when its reflection increment exceeds the threshold; on those
    steps the constraint mean should sit at the boundary.
    """

    worst_negative_mean_h: float
    worst_active_mean_h: float
    active_fraction: float
    active_threshold: float


def skorokhod_report(
    trajectory: TrajectoryRecord, active_threshold: float = 1e-8
) -> SkorokhodReport:
    norm = 1.0 + np.abs(trajectory.mean_x)
    worst_negative = float(np.max(np.maximum(0.0, -trajectory.mean_h / norm)))
    active = trajectory.delta_k > active_threshold
    if active.any():
        worst_active = float(np.max(np.abs(trajectory.mean_h[active]) / norm[active]))
    else:
        worst_active = 0.0
    # Step 0 holds the initial push, not a dynamic step.
    dynamic = active[1:]
    fraction = float(np.mean(dynamic)) if dynamic.size else 0.0
    return SkorokhodReport(
        worst_negative_mean_h=worst_negative,
        worst_active_mean_h=worst_active,
        active_fraction=fraction,
        active_threshold=active_threshold,
    )
