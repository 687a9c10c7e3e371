"""Command-line entry point.

Subcommands: ``simulate`` (one scheme run), ``oracle`` (reference
solution, optionally noise-coupled), ``convergence`` (error sweep plus
log-log regressions), ``density`` (reflection-density diagnostic), and
``validate`` (config/model checks).

All numeric CSV output uses '.' decimals and 17 significant digits, which
round-trips 64-bit floats exactly; re-running any subcommand with the same
config and seed reproduces the files byte for byte, for any value of
MEANREFLECT_THREADS. A run writes only into a new or empty ``--out`` (exit 1
if it cannot); its ``manifest.json``, written last and only when the run
succeeds, lists the other files and embeds the config with the seed it
used, so passing the manifest back to ``--config`` replays the run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, oracle
from .errors import ConfigError, MeanReflectError, ParseError, ValidationError
from .harness import (
    ExperimentConfig,
    build_model,
    convergence_sweep,
    require_coupled_path,
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


def _load(args, seed_required: bool = False):
    """Parse the config, fix its seed (``--seed``, else the config's, else 0)
    and build the model, writing nothing: a refused run leaves no output."""
    config = parse_config(args.config)
    seed = config.seed if getattr(args, "seed", None) is None else args.seed
    if seed is None and seed_required:
        raise ValidationError(
            "a seed is mandatory for this subcommand (flag --seed or config 'seed')"
        )
    config = dataclasses.replace(config, seed=0 if seed is None else seed)
    return (config, *build_model(config))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in zip(*columns):
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextlib.contextmanager
def _run_dir(out: str, command: str, config: ExperimentConfig, outputs: list[str]):
    """Create ``out``, which must be new or empty; write its ``manifest.json``
    only if the ``with`` body succeeds, so that it names no unwritten file."""
    out_dir = Path(out)
    # Files of an earlier run would sit beside a manifest that does not list them.
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise ValidationError(f"--out {out_dir} is not empty; give a new or empty directory")
    manifest = {
        "tool": "meanreflect",
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "threads": worker_count(),
        # Byte identity depends on them: numpy's uint64 arithmetic, scipy's ndtri.
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.to_json_dict(),
        "outputs": outputs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    yield out_dir
    _write_json(out_dir / "manifest.json", manifest)


def _dump_noise(noise: NoiseRecord, path: Path) -> None:
    """Debug trace of every draw; intended for small runs."""
    particles = np.arange(noise.n_particles)
    steps = np.arange(1, noise.n_steps + 1)[:, None]
    gaussians = noise.gaussians(particles, steps)
    cells, marks = noise.jumps(particles, steps)
    per_cell = np.split(marks, np.cumsum(np.bincount(cells, minlength=gaussians.size))[:-1])
    with open(path, "w", newline="") as handle:
        handle.write("step,particle,gaussian,count,sizes\n")
        for ((k, i), g), sizes in zip(np.ndenumerate(gaussians), per_cell):
            row = ";".join(_fmt(v) for v in sizes)
            handle.write(f"{k + 1},{i},{_fmt(g)},{sizes.size},{row}\n")


def _cmd_simulate(args) -> int:
    config, model, constraint = _load(args)
    outputs = ["path.csv"] + (["noise.csv"] if args.dump_noise else [])
    with _run_dir(args.out, "simulate", config, outputs) as out_dir:
        traj = simulate(model, constraint, config.single_grid(),
                        config.single_particle_count(), config.seed)
        _write_csv(
            out_dir / "path.csv",
            ["t", "K_hat", "mean_h", "mean_X", "var_X"],
            [traj.times, traj.k_hat, traj.mean_h, traj.mean_x, traj.var_x],
        )
        if args.dump_noise:
            _dump_noise(traj.noise, out_dir / "noise.csv")
    report = skorokhod_report(traj)
    print(
        f"simulate: K_hat(T) = {traj.k_hat[-1]:.6g}, "
        f"active fraction = {report.active_fraction:.3f}, wrote {out_dir / 'path.csv'}"
    )
    return 0


def _cmd_oracle(args) -> int:
    config, model, constraint = _load(args)
    n_particles = config.single_particle_count()
    if not 0 <= args.particle < n_particles:
        raise ValidationError(
            f"--particle must be in 0..{n_particles - 1}, got {args.particle}"
        )
    grid = config.single_grid()
    path = oracle.reference_path(model, constraint, grid)
    exact_path = oracle.coupled_path(model, constraint)
    with _run_dir(args.out, "oracle", config, ["oracle.csv"]) as out_dir:
        if exact_path is not None:
            noise = noise_record(model, grid, n_particles, config.seed)
            path = exact_path(noise, {**model.params, **constraint.params}, grid,
                              particle=args.particle)
        header = ["t", "K_exact", "meanY"]
        columns = [path.times, path.k_exact, path.mean_y]
        if path.x_exact is not None:
            header.append("X_exact")
            columns.append(path.x_exact)
        _write_csv(out_dir / "oracle.csv", header, columns)
    print(
        f"oracle: K_exact(T) = {path.k_exact[-1]:.6g}, wrote {out_dir / 'oracle.csv'}"
    )
    return 0


def _cmd_convergence(args) -> int:
    config, model, constraint = _load(args, seed_required=True)
    require_coupled_path(model, constraint)
    outputs = ["convergence.csv", "regression.json", "timings.json"]
    with _run_dir(args.out, "convergence", config, outputs) as out_dir:
        table = convergence_sweep(config)
        # Wall-clock readings go into timings.json: CSV outputs must be
        # byte-identical across reruns of the same config and seed.
        _write_csv(
            out_dir / "convergence.csv", ["n", "N", "L", "E_hat"],
            [[getattr(row, f) for row in table.rows] for f in ("n", "N", "L", "e_hat")],
        )
        _write_json(out_dir / "timings.json", [
            {"n": row.n, "N": row.N, "runtime_sec": row.runtime_sec} for row in table.rows
        ])
        _write_json(out_dir / "regression.json", {
            "in_particles": {str(n): vars(r) for n, r in table.regression_in_particles.items()},
            "in_steps": {str(N): vars(r) for N, r in table.regression_in_steps.items()},
        })
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
    config, model, constraint = _load(args)
    grid = config.single_grid()
    k_exact = np.diff(oracle.reference_path(model, constraint, grid).k_exact) / grid.dt
    with _run_dir(args.out, "density", config, ["density.csv"]) as out_dir:
        times, khat = oracle.density_series(
            model, constraint, grid, config.single_particle_count(), config.seed
        )
        _write_csv(out_dir / "density.csv", ["t", "k_hat", "k_exact"], [times, khat, k_exact])
    print(
        f"density: integral of k_hat dt = {float(np.sum(khat) * grid.dt):.6g}, "
        f"wrote {out_dir / 'density.csv'}"
    )
    return 0


def _cmd_validate(args) -> int:
    _, model, constraint = _load(args)
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
        "--dump-noise", action="store_true",
        help="also write noise.csv, every draw of the run; debug-sized runs only",
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_orc = sub.add_parser("oracle", help="reference-solution paths")
    add_common(p_orc)
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MeanReflectError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
