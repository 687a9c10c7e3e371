"""Command-line entry point.

Subcommands: ``simulate`` (one scheme run), ``oracle`` (reference
solution, optionally noise-coupled), ``convergence`` (error sweep plus
log-log regressions), ``density`` (reflection-density diagnostic), and
``validate`` (config/model checks).

All numeric CSV output uses '.' decimals and 17 significant digits, which
round-trips 64-bit floats exactly; re-running any subcommand with the same
config and seed reproduces the files byte for byte, for any value of
MEANREFLECT_THREADS.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .errors import ConfigError, MeanReflectError, ParseError, ValidationError
from .harness import (
    ExperimentConfig,
    build_model,
    convergence_sweep,
    skorokhod_report,
)
from .model import validate as validate_model
from .parallel import worker_count
from .scheme import noise_record, simulate
from .stochastics import NoiseRecord

_CASES = (*oracle.CASES, "custom")

# The custom case: required parameters, optional affine coefficients, jump
# laws, and the numeric fields each constraint kind requires.
_CUSTOM_PARAMS = ("lambda", "x0")
_CUSTOM_COEFFICIENTS = ("beta", "a", "sigma", "gamma", "eta", "theta")
_JUMP_LAWS = ("lognormal", "dirac")
_CONSTRAINT_PARAMS = {"linear": ("p",), "sine": ("alpha", "p")}


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _is_number(value) -> bool:
    """A JSON number that is a finite float; booleans do not count."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    """A JSON integer >= 1; booleans do not count."""
    return type(value) is int and value >= 1


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Schema::

        {
          "model": {"case": <a key of oracle.CASES>|"custom", ...parameters...},
          "constraint": {"kind": "linear"|"sine", ...},   # custom case only
          "grid": {"T": <float>, "n": <int>},
          "particles": <int>,
          "replications": <int>,            # default 1000
          "seed": <u64>,                    # optional; --seed overrides
          "sweep": {"n": [<int>...], "N": [<int>...]}     # optional
        }
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")

    # A run manifest embeds the resolved config; accept it directly so a
    # finished run can be reproduced from its own manifest.
    if doc.get("tool") == "meanreflect" and isinstance(doc.get("config"), dict):
        inner = dict(doc["config"])
        if "seed" in doc and "seed" not in inner:
            inner["seed"] = doc["seed"]
        doc = inner

    problems: list[str] = []

    model = doc.get("model")
    if not isinstance(model, dict):
        problems.append("'model' object is required")
        model = {}
    case = model.get("case")
    if case not in _CASES:
        problems.append(f"model.case must be one of {_CASES}, got {case!r}")
        case = "custom"
    params = {k: v for k, v in model.items() if k != "case"}
    required = oracle.CASES[case].params if case in oracle.CASES else _CUSTOM_PARAMS
    optional = _CUSTOM_COEFFICIENTS if case == "custom" else ()
    for name in required:
        if name not in params:
            problems.append(f"model.{name} is required for case {case!r}")
    # Every field collected here must hold a finite number.
    numbers = {f"model.{n}": params[n] for n in (*required, *optional) if n in params}

    constraint = doc.get("constraint")
    if case == "custom":
        jump = params.get("jump", {"law": "dirac"})
        if isinstance(jump, dict) and jump.get("law") in _JUMP_LAWS:
            numbers.update((f"model.jump.{k}", v) for k, v in jump.items() if k != "law")
        else:
            problems.append(f"model.jump must be an object with 'law' in {_JUMP_LAWS}")
        kind = constraint.get("kind", "linear") if isinstance(constraint, dict) else None
        if kind in _CONSTRAINT_PARAMS:
            numbers.update(
                (f"constraint.{name}", constraint.get(name))
                for name in _CONSTRAINT_PARAMS[kind]
            )
        else:
            problems.append(
                "custom case requires a 'constraint' object with 'kind' in "
                f"{tuple(_CONSTRAINT_PARAMS)}"
            )
    elif constraint is not None:
        problems.append(
            f"case {case!r} implies its constraint; remove the 'constraint' object"
        )
    problems += [
        f"{where} must be a finite number"
        for where, value in numbers.items()
        if not _is_number(value)
    ]

    grid = doc.get("grid")
    if not isinstance(grid, dict):
        problems.append("'grid' object with T and n is required")
        grid = {"T": 1.0, "n": 1}
    horizon, steps = grid.get("T"), grid.get("n")
    particles = doc.get("particles")
    replications = doc.get("replications", 1000)
    seed = doc.get("seed")
    if not (_is_number(horizon) and horizon > 0):
        problems.append(f"grid.T must be > 0, got {horizon!r}")
    for name, value in (
        ("grid.n", steps), ("particles", particles), ("replications", replications)
    ):
        if not _is_count(value):
            problems.append(f"{name} must be an integer >= 1, got {value!r}")
    if seed is not None and type(seed) is not int:
        problems.append(f"seed must be an integer, got {seed!r}")

    sweep = {} if doc.get("sweep") is None else doc["sweep"]
    if not isinstance(sweep, dict):
        problems.append("'sweep' must be an object with 'n' and/or 'N' lists")
        sweep = {}
    menus = {"n": [steps], "N": [particles]}
    for key in menus:
        values = sweep.get(key)
        if values is None:
            continue
        if isinstance(values, list) and values and all(map(_is_count, values)):
            menus[key] = values
        else:
            problems.append(f"sweep.{key} must be a nonempty list of ints >= 1")

    if problems:
        raise ValidationError(
            f"{path}: invalid config:\n  " + "\n  ".join(problems)
        )

    return ExperimentConfig(
        case=case,
        model_params=params,
        horizon=float(horizon),
        grid_steps=tuple(menus["n"]),
        particles=tuple(menus["N"]),
        replications=replications,
        seed=seed,
        constraint_params=constraint if case == "custom" else None,
        base_steps=steps,
        base_particles=particles,
    )


def _resolve_seed(args, config: ExperimentConfig, required: bool) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if config.seed is not None:
        return config.seed
    if required:
        raise ValidationError(
            "a seed is mandatory for this subcommand (flag --seed or config 'seed')"
        )
    return 0


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in zip(*columns):
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(
    out_dir: Path, command: str, config: ExperimentConfig, seed: int,
    outputs: list[str],
) -> None:
    manifest = {
        "tool": "meanreflect",
        "version": __version__,
        "command": command,
        "seed": seed,
        "threads": worker_count(),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.to_json_dict(),
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _dump_noise(noise: NoiseRecord, path: Path) -> None:
    """Debug trace of every draw; intended for small runs."""
    steps = range(1, noise.n_steps + 1)
    if path.suffix == ".npz":
        gaussians = np.stack([noise.gaussians(k) for k in steps])
        counts = np.stack([noise.counts(k) for k in steps])
        values: list[float] = []
        for k in steps:
            row = counts[k - 1]
            for i in np.nonzero(row)[0]:
                values.extend(noise.particle_marks(int(i), k, int(row[i])))
        np.savez(
            path, gaussians=gaussians, counts=counts,
            jump_values=np.asarray(values),
        )
        return
    with open(path, "w", newline="") as handle:
        handle.write("step,particle,gaussian,count,sizes\n")
        for k in steps:
            g = noise.gaussians(k)
            c = noise.counts(k)
            for i in range(noise.n_particles):
                sizes = ""
                if c[i]:
                    marks = noise.particle_marks(i, k, int(c[i]))
                    sizes = ";".join(_fmt(v) for v in marks)
                handle.write(f"{k},{i},{_fmt(g[i])},{int(c[i])},{sizes}\n")


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    seed = _resolve_seed(args, config, required=False)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = ["path.csv"] + (["noise trace"] if args.dump_noise else [])
    _write_manifest(out_dir, "simulate", config, seed, outputs)
    model, constraint = build_model(config)
    grid = config.single_grid()
    traj = simulate(model, constraint, grid, config.single_particle_count(), seed)
    _write_csv(
        out_dir / "path.csv",
        ["t", "K_hat", "mean_h", "mean_X", "var_X"],
        [traj.times, traj.k_hat, traj.mean_h, traj.mean_x, traj.var_x],
    )
    if args.dump_noise:
        _dump_noise(traj.noise, Path(args.dump_noise))
    report = skorokhod_report(traj)
    print(
        f"simulate: K_hat(T) = {traj.k_hat[-1]:.6g}, "
        f"active fraction = {report.active_fraction:.3f}, wrote {out_dir / 'path.csv'}"
    )
    return 0


def _cmd_oracle(args) -> int:
    config = parse_config(args.config)
    case = args.case or config.case
    if case != config.case:
        raise ValidationError(
            f"--case {case} does not match config case {config.case!r}"
        )
    spec = oracle.CASES.get(case)
    if spec is None:
        raise ValidationError(f"no reference solution for case {case!r}")
    seed = _resolve_seed(args, config, required=False) if spec.coupled else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "oracle", config, seed, ["oracle.csv"])
    model, _ = build_model(config)
    grid = config.single_grid()
    if spec.coupled is None:
        path = spec.reference(model.params, grid)
    else:
        noise = noise_record(model, grid, config.single_particle_count(), seed)
        path = spec.coupled(noise, model.params, grid, particle=args.particle)
    header = ["t", "K_exact", "meanY"]
    columns = [path.times, path.k_exact, path.mean_y]
    if path.x_exact is not None:
        header.append("X_exact")
        columns.append(path.x_exact)
    _write_csv(out_dir / "oracle.csv", header, columns)
    tag = " (approximate)" if path.approximate else ""
    print(
        f"oracle{tag}: K_exact(T) = {path.k_exact[-1]:.6g}, "
        f"wrote {out_dir / 'oracle.csv'}"
    )
    return 0


def _cmd_convergence(args) -> int:
    config = parse_config(args.config)
    seed = _resolve_seed(args, config, required=True)
    config = dataclasses.replace(config, seed=seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir, "convergence", config, seed,
        ["convergence.csv", "regression.json", "timings.json"],
    )
    table = convergence_sweep(config)
    # Wall-clock readings go into timings.json: CSV outputs must be
    # byte-identical across reruns of the same config and seed.
    with open(out_dir / "convergence.csv", "w", newline="") as handle:
        handle.write("n,N,L,E_hat\n")
        for row in table.rows:
            handle.write(f"{row.n},{row.N},{row.L},{_fmt(row.e_hat)}\n")
    timings = [
        {"n": row.n, "N": row.N, "runtime_sec": row.runtime_sec}
        for row in table.rows
    ]
    with open(out_dir / "timings.json", "w") as handle:
        json.dump(timings, handle, indent=2)
        handle.write("\n")
    regression: dict = {
        "in_particles": {
            str(n): vars(reg) for n, reg in table.regression_in_particles.items()
        },
        "in_steps": {
            str(N): vars(reg) for N, reg in table.regression_in_steps.items()
        },
    }
    if len(table.regression_in_particles) == 1 and not table.regression_in_steps:
        only = next(iter(table.regression_in_particles.values()))
        regression.update(
            {"slope": only.slope, "intercept": only.intercept, "r2": only.r_squared}
        )
    with open(out_dir / "regression.json", "w") as handle:
        json.dump(regression, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for n, reg in table.regression_in_particles.items():
        print(
            f"convergence: slope of log E_hat vs log N at n={n}: "
            f"{reg.slope:.4f} (r2={reg.r_squared:.3f})"
        )
    if not table.regression_in_particles and not table.regression_in_steps:
        print("convergence: single cell, regression absent")
    print(f"convergence: wrote {out_dir / 'convergence.csv'}")
    return 0


def _cmd_density(args) -> int:
    config = parse_config(args.config)
    if config.case not in oracle.CASES:
        raise ValidationError(
            "the density diagnostic needs a built-in case with a reference path"
        )
    seed = _resolve_seed(args, config, required=False)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "density", config, seed, ["density.csv"])
    model, constraint = build_model(config)
    grid = config.single_grid()
    times, khat = oracle.density_series(
        model, constraint, grid, config.single_particle_count(), seed
    )
    k_path = oracle.exact_k_path(config.case, model.params, grid)
    k_exact = np.diff(k_path) / grid.dt
    _write_csv(out_dir / "density.csv", ["t", "k_hat", "k_exact"], [times, khat, k_exact])
    print(
        f"density: integral of k_hat dt = {float(np.sum(khat) * grid.dt):.6g}, "
        f"wrote {out_dir / 'density.csv'}"
    )
    return 0


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    model, constraint = build_model(config)
    report = validate_model(model, constraint)
    print(report.summary())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanreflect",
        description=(
            "Interacting-particle Euler engine for jump SDEs whose reflection "
            "constraint acts on the mean of the state law."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, want_out=True):
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        if want_out:
            p.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="run the particle scheme")
    add_common(p_sim)
    p_sim.add_argument(
        "--dump-noise", default=None,
        help="write the full noise trace (.csv or .npz); debug-sized runs only",
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_orc = sub.add_parser("oracle", help="reference-solution paths")
    add_common(p_orc)
    p_orc.add_argument("--case", choices=tuple(oracle.CASES), default=None)
    p_orc.add_argument(
        "--particle", type=int, default=0,
        help="particle index for the coupled exact path",
    )
    p_orc.set_defaults(fn=_cmd_oracle)

    p_conv = sub.add_parser("convergence", help="error sweep over (n, N)")
    add_common(p_conv)
    p_conv.set_defaults(fn=_cmd_convergence)

    p_den = sub.add_parser("density", help="reflection-density diagnostic")
    add_common(p_den)
    p_den.set_defaults(fn=_cmd_density)

    p_val = sub.add_parser("validate", help="check a config and its model")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MeanReflectError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
