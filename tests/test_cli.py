"""Config parsing, subcommand dispatch, deterministic output files."""

import json
from pathlib import Path

import numpy as np
import pytest

from meanreflect import cli
from meanreflect.cli import main, parse_config
from meanreflect.errors import ParseError, ValidationError

MINIMAL = {
    "model": {
        "case": "i", "beta": 2.0, "sigma": 1.0, "eta": 1.0,
        "lambda": 5.0, "x0": 1.0, "p": 0.5,
    },
    "grid": {"T": 1.0, "n": 40},
    "particles": 500,
}

CUSTOM = {
    "model": {"case": "custom", "beta": 1.0, "sigma": 1.0, "lambda": 1.0, "x0": 1.0},
    "constraint": {"kind": "linear", "p": 0.5},
    "grid": {"T": 1.0, "n": 10},
    "particles": 10,
}


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.case == "i"
        assert cfg.replications == 1000
        assert cfg.grid_steps == (40,)
        assert cfg.particles == (500,)
        assert cfg.seed is None

    def test_fig2_shipped_config(self, config_dir):
        cfg = parse_config(config_dir / "fig2.json")
        assert cfg.case == "i"
        assert cfg.grid_steps == (100,)
        assert cfg.horizon == 1.0
        assert cfg.model_params == {
            "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0,
            "x0": 1.0, "p": 0.5,
        }
        assert cfg.replications == 1000
        assert cfg.particles == tuple(range(100, 2201, 300))

    def test_all_shipped_configs_parse(self, config_dir):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            cfg = parse_config(config_dir / f"{name}.json")
            assert cfg.horizon > 0

    def test_zero_steps_rejected(self, tmp_path):
        doc = dict(MINIMAL, grid={"T": 1.0, "n": 0})
        with pytest.raises(ValidationError, match="grid.n"):
            parse_config(write_config(tmp_path, doc))

    def test_missing_parameter_listed(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["model"]["beta"]
        with pytest.raises(ValidationError, match="model.beta"):
            parse_config(write_config(tmp_path, doc))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n  nope}')
        with pytest.raises(ParseError, match="line 2"):
            parse_config(path)

    def test_constraint_on_builtin_rejected(self, tmp_path):
        doc = dict(MINIMAL, constraint={"kind": "linear", "p": 0.5})
        with pytest.raises(ValidationError, match="implies"):
            parse_config(write_config(tmp_path, doc))

    def test_custom_requires_constraint(self, tmp_path):
        doc = {
            "model": {"case": "custom", "lambda": 1.0, "x0": 1.0},
            "grid": {"T": 1.0, "n": 10},
            "particles": 10,
        }
        with pytest.raises(ValidationError, match="constraint"):
            parse_config(write_config(tmp_path, doc))

    def test_sweep_validation(self, tmp_path):
        doc = dict(MINIMAL, sweep={"N": []})
        with pytest.raises(ValidationError, match="sweep.N"):
            parse_config(write_config(tmp_path, doc))

    def test_sweep_does_not_change_single_run_sizes(self, tmp_path):
        doc = dict(MINIMAL, sweep={"n": [5], "N": [10, 20]})
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.grid_steps == (5,)
        assert cfg.particles == (10, 20)
        assert cfg.single_grid().steps == 40
        assert cfg.single_particle_count() == 500

    def test_manifest_is_accepted_as_config(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "first"
        assert main(["simulate", "--config", cfg, "--seed", "9",
                     "--out", str(out)]) == 0
        rerun = parse_config(out / "manifest.json")
        assert rerun.seed == 9
        assert rerun.case == "i"
        assert rerun.model_params == {
            k: v for k, v in MINIMAL["model"].items() if k != "case"
        }
        out2 = tmp_path / "second"
        assert main(["simulate", "--config", str(out / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()


class TestSimulateCommand:
    def test_writes_path_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        header = (out / "path.csv").read_text().splitlines()[0]
        assert header == "t,K_hat,mean_h,mean_X,var_X"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["model"]["case"] == "i"

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        args = ["simulate", "--config", cfg, "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "path.csv").read_bytes()
        b = (tmp_path / "b" / "path.csv").read_bytes()
        assert a == b

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)])
        data = np.genfromtxt(out / "path.csv", delimiter=",", names=True)
        from meanreflect.harness import build_model
        from meanreflect.scheme import GridSpec, simulate as sim

        model, constraint = build_model(parse_config(cfg))
        traj = sim(model, constraint, GridSpec(1.0, 40), 500, seed=3)
        assert np.array_equal(data["K_hat"], traj.k_hat)
        assert np.array_equal(data["var_X"], traj.var_x)

    def test_dump_noise_csv(self, tmp_path):
        doc = dict(MINIMAL, grid={"T": 0.1, "n": 3}, particles=4)
        cfg = write_config(tmp_path, doc)
        trace = tmp_path / "noise.csv"
        main([
            "simulate", "--config", cfg, "--seed", "1",
            "--out", str(tmp_path / "o"), "--dump-noise", str(trace),
        ])
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,particle,gaussian,count,sizes"
        assert len(lines) == 1 + 3 * 4

    def test_dump_noise_npz(self, tmp_path):
        doc = dict(MINIMAL, grid={"T": 0.1, "n": 3}, particles=4)
        cfg = write_config(tmp_path, doc)
        trace = tmp_path / "noise.npz"
        main([
            "simulate", "--config", cfg, "--seed", "1",
            "--out", str(tmp_path / "o"), "--dump-noise", str(trace),
        ])
        bundle = np.load(trace)
        assert bundle["gaussians"].shape == (3, 4)
        assert bundle["counts"].shape == (3, 4)
        assert bundle["jump_values"].size == int(bundle["counts"].sum())


class TestOracleCommand:
    def test_coupled_output_has_exact_path(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "oracle"
        assert main([
            "oracle", "--case", "i", "--config", cfg, "--seed", "7",
            "--out", str(out),
        ]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,K_exact,meanY,X_exact"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == 1.5

    def test_case_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code = main([
            "oracle", "--case", "ii", "--config", cfg, "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("particle", [-1, 10])
    def test_particle_out_of_range_rejected(
        self, tmp_path, capsys, monkeypatch, particle
    ):
        monkeypatch.setattr(cli, "noise_record", None)  # no noise may be drawn
        cfg = write_config(tmp_path, dict(MINIMAL, particles=10))
        assert main([
            "oracle", "--config", cfg, "--seed", "7", "--particle", str(particle),
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert "--particle must be in 0..9" in capsys.readouterr().err

    def test_case_iii_uncoupled(self, tmp_path, config_dir):
        doc = json.loads((config_dir / "fig5.json").read_text())
        doc["grid"]["n"] = 30
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "oracle3"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,K_exact,meanY"
        k = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(k) >= -1e-12)


class TestConvergenceCommand:
    def test_requires_seed(self, tmp_path):
        doc = dict(MINIMAL, sweep={"N": [50, 100]}, replications=2)
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "c")]) == 1

    def test_writes_table_and_regression(self, tmp_path):
        doc = dict(
            MINIMAL, grid={"T": 1.0, "n": 20},
            sweep={"N": [50, 100, 200]}, replications=4,
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "conv"
        assert main([
            "convergence", "--config", cfg, "--seed", "5", "--out", str(out),
        ]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,N,L,E_hat"
        assert len(lines) == 4
        regression = json.loads((out / "regression.json").read_text())
        assert "slope" in regression
        assert "20" in regression["in_particles"]
        timings = json.loads((out / "timings.json").read_text())
        assert [t["N"] for t in timings] == [50, 100, 200]
        assert all(t["runtime_sec"] > 0 for t in timings)


class TestDensityCommand:
    def test_writes_density_csv(self, tmp_path):
        doc = dict(MINIMAL, grid={"T": 1.0, "n": 40}, particles=2000)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "den"
        assert main([
            "density", "--config", cfg, "--seed", "11", "--out", str(out),
        ]) == 0
        data = np.genfromtxt(out / "density.csv", delimiter=",", names=True)
        assert data["t"].size == 40
        # exact density for this model is 0 before onset and beta after,
        # and the onset t = 0.25 falls exactly on this grid
        assert np.all(
            (np.abs(data["k_exact"]) < 1e-12) | (np.abs(data["k_exact"] - 2.0) < 1e-12)
        )
        late = data["k_hat"][data["t"] >= 0.5]
        assert abs(late.mean() - 2.0) < 0.5


class TestValidateCommand:
    def test_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["validate", "--config", cfg]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_bad_model_exits_one(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["x0"] = 0.0  # below the threshold p
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    def validate_error(self, tmp_path, capsys, doc) -> str:
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        return capsys.readouterr().err

    def test_non_object_jump_rejected(self, tmp_path, capsys):
        doc = dict(CUSTOM, model=dict(CUSTOM["model"], jump=5))
        assert "model.jump must be an object" in self.validate_error(tmp_path, capsys, doc)

    def test_sine_constraint_without_alpha_rejected(self, tmp_path, capsys):
        doc = dict(CUSTOM, constraint={"kind": "sine", "p": 0.5})
        assert "constraint.alpha must be a finite number" in self.validate_error(
            tmp_path, capsys, doc
        )

    @pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "huge_int"])
    def test_non_float_parameter_rejected(self, tmp_path, capsys, value):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["beta"] = value
        assert "model.beta must be a finite number" in self.validate_error(
            tmp_path, capsys, doc
        )

    def test_boolean_horizon_rejected(self, tmp_path, capsys):
        doc = dict(MINIMAL, grid={"T": True, "n": 40})
        assert "grid.T must be > 0" in self.validate_error(tmp_path, capsys, doc)


@pytest.mark.parametrize("steps, seed", [
    (10**30, "7"), (40, "-1"), (40, str(2**64)),
], ids=["huge_n", "negative_seed", "seed_past_u64"])
def test_out_of_range_size_or_seed_exits_one(tmp_path, capsys, steps, seed):
    cfg = write_config(tmp_path, dict(MINIMAL, grid={"T": 1.0, "n": steps}))
    assert main(["simulate", "--config", cfg, "--seed", seed,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
