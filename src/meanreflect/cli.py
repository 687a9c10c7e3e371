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


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load a JSON experiment config or run manifest; the schema and its
    checks are :class:`ExperimentConfig`'s."""
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

    # A run manifest embeds the resolved config; accept it directly so a
    # finished run can be reproduced from its own manifest.
    if (
        isinstance(doc, dict)
        and doc.get("tool") == "meanreflect"
        and isinstance(doc.get("config"), dict)
    ):
        inner = dict(doc["config"])
        if "seed" in doc and "seed" not in inner:
            inner["seed"] = doc["seed"]
        doc = inner
    try:
        return ExperimentConfig.from_json_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _resolve_seed(args, config: ExperimentConfig, required: bool) -> int:
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
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
    n_particles = config.single_particle_count()
    if not 0 <= args.particle < n_particles:
        raise ValidationError(
            f"--particle must be in 0..{n_particles - 1}, got {args.particle}"
        )
    seed = _resolve_seed(args, config, required=False) if spec.coupled else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "oracle", config, seed, ["oracle.csv"])
    model, _ = build_model(config)
    grid = config.single_grid()
    if spec.coupled is None:
        path = spec.reference(model.params, grid)
    else:
        noise = noise_record(model, grid, n_particles, seed)
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
