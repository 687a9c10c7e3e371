"""Config parsing, subcommand dispatch, deterministic output files."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from meanreflect import cli
from meanreflect.cli import main, parse_config
from meanreflect.errors import ParseError, ValidationError
from meanreflect.harness import ExperimentConfig, build_model

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

    def test_all_shipped_configs_parse(self, config_dir, capsys, tmp_path):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            cfg = parse_config(config_dir / f"{name}.json")
            assert cfg.horizon > 0
            assert main(["validate", "--config", str(config_dir / f"{name}.json")]) == 0
            assert "violations: 0," in capsys.readouterr().out, name
        for name in ("fig1", "fig3", "fig5"):
            assert main(["oracle", "--config", str(config_dir / f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0, name

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
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__

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
        main([
            "simulate", "--config", cfg, "--seed", "1",
            "--out", str(tmp_path / "o"), "--dump-noise",
        ])
        lines = (tmp_path / "o" / "noise.csv").read_text().splitlines()
        assert lines[0] == "step,particle,gaussian,count,sizes"
        assert len(lines) == 1 + 3 * 4


class TestOracleCommand:
    def test_coupled_output_has_exact_path(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "oracle"
        assert main([
            "oracle", "--config", cfg, "--seed", "7",
            "--out", str(out),
        ]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,K_exact,meanY,X_exact"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == 1.5

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
        assert not (tmp_path / "o").exists()

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

    def test_case_iii_fast_reversion_is_exact(self, tmp_path, config_dir, capsys):
        # the reference carries no small-speed caveat, even at a = 0.2
        doc = json.loads((config_dir / "fig5.json").read_text())
        doc["model"]["a"] = 0.2
        doc["grid"]["n"] = 30
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("oracle: K_exact(T) = ")
        assert "approximate" not in captured.out + captured.err


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
        assert set(regression) == {"in_particles", "in_steps"}
        assert isinstance(regression["in_particles"]["20"]["slope"], float)
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
        assert "constraint.alpha is required for kind 'sine'" in self.validate_error(
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

    @pytest.mark.parametrize("doc, problem", [
        (dict(CUSTOM, model=dict(CUSTOM["model"], sigam=1.0)),
         "model.sigam is not a parameter of case 'custom'"),
        (dict(CUSTOM, model=dict(CUSTOM["model"],
                                 jump={"law": "lognormal", "scael": 0.2})),
         "model.jump.scael is not a parameter of law 'lognormal'"),
        (dict(CUSTOM, constraint={"kind": "linear", "p": 0.5, "alpha": 0.3}),
         "constraint.alpha is not a parameter of kind 'linear'"),
        (dict(MINIMAL, model=dict(MINIMAL["model"], alpah=0.9)),
         "model.alpah is not a parameter of case 'i'"),
    ], ids=["model", "jump", "constraint", "builtin"])
    def test_unknown_field_rejected(self, tmp_path, capsys, doc, problem):
        assert problem in self.validate_error(tmp_path, capsys, doc)

    def test_wide_sine_alpha_rejected(self, tmp_path, capsys):
        doc = dict(CUSTOM, constraint={"kind": "sine", "alpha": 1.5, "p": 0.5})
        assert "|alpha| < 1" in self.validate_error(tmp_path, capsys, doc)
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("steps, seed", [
    (10**30, "7"), (40, "-1"), (40, str(2**64)),
], ids=["huge_n", "negative_seed", "seed_past_u64"])
def test_out_of_range_size_or_seed_exits_one(tmp_path, capsys, steps, seed):
    cfg = write_config(tmp_path, dict(MINIMAL, grid={"T": 1.0, "n": steps}))
    assert main(["simulate", "--config", cfg, "--seed", seed,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "two"])
def test_bad_thread_count_exits_one(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MEANREFLECT_THREADS", threads)
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MEANREFLECT_THREADS must be a positive integer")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "oracle", "convergence", "density"])
def test_bad_model_writes_no_manifest(tmp_path, capsys, command):
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["x0"] = 0.0  # below the threshold p
    assert main([command, "--config", write_config(tmp_path, doc), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert "h(x0) = -0.5 < 0: initial mean constraint violated" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["oracle", "density"])
def test_custom_case_without_reference_writes_nothing(tmp_path, capsys, command):
    sine = {"kind": "sine", "alpha": 0.5, "p": 0.5}
    for model, reason in (
        (dict(CUSTOM["model"], a=1.0, jump={"law": "lognormal"}), "LogNormal marks"),
        (dict(CUSTOM["model"], a=1.0, gamma=0.5), "gamma = 0.5"),
    ):
        doc = dict(CUSTOM, model=model, constraint=sine)
        assert main([command, "--config", write_config(tmp_path, doc), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no reference path for a sine constraint with ")
        assert reason in err
        assert not (tmp_path / "o").exists()


TWINS = [
    ({"case": "i", "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0, "x0": 1.0,
      "p": 0.5}, {"law": "lognormal"}, {"kind": "linear"}),
    ({"case": "ii", "a": 3.0, "gamma": 1.0, "theta": 1.0, "lambda": 2.0, "x0": 4.0,
      "p": 1.0}, {"law": "dirac"}, {"kind": "linear"}),
    ({"case": "iii", "beta": 0.01, "a": 0.01, "sigma": 1.0, "eta": 0.1, "lambda": 1.0,
      "x0": 0.97817754723285288, "p": 1.5707963267948966, "alpha": 0.9},
     {"law": "dirac"}, {"kind": "sine"}),
]


def _case_and_twin(builtin, marks, constraint):
    """The built-in case's config and a custom config with its coefficients,
    marks and constraint."""
    params = {k: v for k, v in builtin.items() if k not in ("case", "p", "alpha")}
    twin = {"case": "custom", **params, "jump": marks}
    constraint = dict(constraint, **{k: builtin[k] for k in ("p", "alpha") if k in builtin})
    return {"case": {"model": builtin}, "twin": {"model": twin, "constraint": constraint}}


@pytest.mark.parametrize("builtin, marks, constraint", TWINS, ids=["i", "ii", "iii"])
def test_custom_twin_has_the_case_reference(tmp_path, builtin, marks, constraint):
    # a custom config with a case's coefficients, marks and constraint is an
    # instance of the same reference and of the same coupled exact path
    files = []
    for name, doc in _case_and_twin(builtin, marks, constraint).items():
        doc.update(grid={"T": 15.0 if "alpha" in builtin else 1.0, "n": 30}, particles=20)
        out = tmp_path / name
        assert main(["oracle", "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--seed", "3", "--out", str(out)]) == 0
        files.append((out / "oracle.csv").read_bytes())
    assert files[0] == files[1]
    header = files[0].decode().splitlines()[0]
    assert header == ("t,K_exact,meanY" if "alpha" in builtin else "t,K_exact,meanY,X_exact")


@pytest.mark.parametrize("builtin, marks, constraint", TWINS, ids=["i", "ii", "iii"])
def test_custom_twin_records_the_case_params(builtin, marks, constraint):
    # one assembler builds both, so the twin's spec records p (and alpha) too
    specs = [build_model(ExperimentConfig.from_json_dict(dict(doc, grid={"T": 1.0, "n": 2},
                                                              particles=1)))[0]
             for doc in _case_and_twin(builtin, marks, constraint).values()]
    assert specs[0].params == specs[1].params


@pytest.mark.parametrize("builtin, marks, constraint", TWINS[:2], ids=["i", "ii"])
def test_custom_twin_has_the_case_convergence(tmp_path, builtin, marks, constraint):
    files = []
    for name, doc in _case_and_twin(builtin, marks, constraint).items():
        doc.update(grid={"T": 1.0, "n": 10}, particles=50, replications=3,
                   sweep={"N": [20, 50]})
        out = tmp_path / name
        assert main(["convergence", "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--seed", "3", "--out", str(out)]) == 0
        files.append((out / "convergence.csv").read_bytes())
    assert files[0] == files[1]


def test_dirac_mark_value_scales_theta(tmp_path):
    # multiplicative jumps of factor 1 + theta*v depend on theta*v alone
    files = []
    for theta, value in ((1.0, 1.0), (0.5, 2.0)):
        doc = {"model": {"case": "custom", "a": 3.0, "gamma": 1.0, "theta": theta,
                         "lambda": 2.0, "x0": 4.0, "jump": {"law": "dirac", "value": value}},
               "constraint": {"kind": "linear", "p": 1.0},
               "grid": {"T": 1.0, "n": 10}, "particles": 50, "replications": 3,
               "sweep": {"N": [20, 50]}}
        out = tmp_path / f"v{value}"
        assert main(["convergence", "--config", write_config(tmp_path, doc),
                     "--seed", "3", "--out", str(out)]) == 0
        files.append((out / "convergence.csv").read_bytes())
    assert files[0] == files[1]


def test_memory_error_exits_two_without_a_manifest(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB")

    monkeypatch.setattr(cli, "simulate", out_of_memory)
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_config(tmp_path, MINIMAL), "--seed", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "runtime error: Unable to allocate 29.8 GiB\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_lognormal_with_infinite_mean_exits_one(tmp_path, capsys, command):
    jump = {"law": "lognormal", "scale": 40}
    doc = dict(CUSTOM, model=dict(CUSTOM["model"], jump=jump))
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", write_config(tmp_path, doc)] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LogNormal mean overflows") and "scale=40.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_custom_start_below_constraint_exits_one(tmp_path, capsys, command):
    # the paper's initial condition E[h(X0)] >= 0 binds custom configs too
    doc = dict(CUSTOM, model={"case": "custom", "lambda": 1.0, "x0": 0.0, "sigma": 1.0})
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", write_config(tmp_path, doc)] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: h(x0) = -0.5 < 0") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_exits_one(tmp_path, capsys):
    (tmp_path / "o").write_text("not a directory")
    assert main(["simulate", "--config", write_config(tmp_path, MINIMAL), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_reused_out_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(MINIMAL, grid={"T": 0.1, "n": 3}, particles=4))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out),
                 "--dump-noise"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not empty" in captured.err
    assert not captured.out  # refused before any work
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", str(empty)]) == 0


@pytest.mark.parametrize("argv", [
    ["simulate"], ["simulate", "--dump-noise"], ["oracle"], ["density"], ["convergence"],
], ids=["simulate", "simulate_dump_noise", "oracle", "density", "convergence"])
def test_manifest_lists_every_output(tmp_path, argv):
    doc = dict(MINIMAL, grid={"T": 1.0, "n": 10}, particles=50, replications=2,
               sweep={"N": [20, 40]})
    out = tmp_path / "o"
    assert main([argv[0], "--config", write_config(tmp_path, doc), "--seed", "1",
                 "--out", str(out), *argv[1:]]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("command, output", [
    ("simulate", "path.csv"), ("oracle", "oracle.csv"), ("density", "density.csv"),
])
def test_manifest_replays_seed_override(tmp_path, command, output):
    doc = dict(MINIMAL, grid={"T": 1.0, "n": 20}, particles=200, seed=5)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--config", write_config(tmp_path, doc), "--seed", "1",
                 "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert main([command, "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert (first / output).read_bytes() == (second / output).read_bytes()


@pytest.mark.parametrize("case", ["iii", "custom"])
def test_convergence_without_coupled_path_writes_nothing(tmp_path, capsys, config_dir, case):
    if case == "iii":
        configs = [(str(config_dir / "fig5.json"), "a sine constraint with beta = 0.01")]
    else:
        lognormal = {"case": "custom", "a": 1.0, "gamma": 0.5, "lambda": 1.0, "x0": 1.0,
                     "jump": {"law": "lognormal"}}
        configs = [
            # mixed noise: a multiplicative gamma beside an additive sigma
            (write_config(tmp_path, dict(CUSTOM, model=dict(CUSTOM["model"], a=1.0,
                                                            gamma=0.5))),
             "a linear constraint with beta = 1.0, a = 1.0, sigma = 1.0, gamma = 0.5"),
            # multiplicative noise with lognormal marks
            (write_config(tmp_path, dict(CUSTOM, model=lognormal), "lognormal.json"),
             "theta = 0.0, x0 = 1.0 and LogNormal(location=0.0, scale=1.0) marks"),
        ]
    for cfg, reason in configs:
        assert main(["convergence", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no exact coupled path for ") and reason in err
        assert "a linear one needs a = gamma = theta = 0, or beta = sigma = eta = 0" in err
        assert not (tmp_path / "o").exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
