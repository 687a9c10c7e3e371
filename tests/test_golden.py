"""Byte identity of the CLI output files at toy sizes.

Each case writes one file through ``cli.main`` and compares its SHA-256
with a pinned value. These hashes are the contract that lets engine code be
restructured or deleted safely: any change to a computed bit fails here.
Re-pin a hash only with a change that is meant to alter numeric output, and
record the reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from meanreflect.cli import main

from conftest import FIG5_P, FIG5_X0

FIG1 = {"case": "i", "beta": 2.0, "sigma": 1.0, "eta": 1.0, "lambda": 5.0,
        "x0": 1.0, "p": 0.5}
FIG3 = {"case": "ii", "a": 3.0, "gamma": 1.0, "theta": 1.0, "lambda": 2.0,
        "x0": 4.0, "p": 1.0}
CUSTOM = {"case": "custom", "beta": 0.5, "a": 1.0, "sigma": 0.3, "gamma": 0.1,
          "eta": 0.2, "theta": 0.1, "lambda": 2.0, "x0": 1.0,
          "jump": {"law": "lognormal", "location": 0.0, "scale": 0.5}}
FIG5 = {"case": "iii", "beta": 0.01, "a": 0.01, "sigma": 1.0, "eta": 0.1,
        "lambda": 1.0, "x0": FIG5_X0, "p": FIG5_P, "alpha": 0.9}


def _doc(model, horizon, steps, particles, **extra):
    return {"model": model, "grid": {"T": horizon, "n": steps},
            "particles": particles, **extra}


# (command, config, output file, SHA-256 of that file)
GOLDEN = {
    "path-i": ("simulate", _doc(FIG1, 1.0, 20, 200), "path.csv",
               "97984c6c5df72f6a0502ba4dae14eb2b099a456f0d37c3dcf049b6c501926678"),
    "path-ii": ("simulate", _doc(FIG3, 1.0, 20, 200), "path.csv",
                "46f32948bf13ae9ef038605e70eec824517b0b0e1b060722202e65c231c78d6f"),
    "path-iii": ("simulate", _doc(FIG5, 15.0, 30, 200), "path.csv",
                 "9f9971575df1419ff6c2f14cab391d5f0124bc8eed65248113b3b7f64953d44a"),
    "path-custom": ("simulate",
                    _doc(CUSTOM, 1.0, 20, 200,
                         constraint={"kind": "sine", "alpha": 0.5, "p": 0.8}),
                    "path.csv",
                    "e48eccd907bf19641bc85daec05eeca605592a071adec35601c56ad656735662"),
    "oracle-i": ("oracle", _doc(FIG1, 1.0, 20, 200), "oracle.csv",
                 "f78f9d57b4ac395f6cc52590e78e1ebc43bce5fbe31d9bbecfe0dc7c93141cd7"),
    "oracle-ii": ("oracle", _doc(FIG3, 1.0, 20, 200), "oracle.csv",
                  "bc5cf3fe0927b17083229138ed628040bb8eb92d7f915771ba25d3c9661c06f6"),
    "oracle-iii": ("oracle", _doc(FIG5, 15.0, 30, 200), "oracle.csv",
                   "803a2094738c13cec159819a96ab999bbe986181d6cd86fc3c7c2f1bf2287f52"),
    "density-i": ("density", _doc(FIG1, 1.0, 20, 500), "density.csv",
                  "470faf994087f5f0d8e9f5f677fb646a4d85f78d4e20503db3bc116df61d276f"),
    "convergence-fig2": (
        "convergence",
        _doc(FIG1, 1.0, 10, 100, replications=3, sweep={"N": [50, 100]}),
        "convergence.csv",
        "7726ada4572d9e774213f24c515ef30c1eb903978aaf0a2c0c8e6414d41ed599",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(name, tmp_path):
    command, doc, filename, want = GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--seed", "7",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == want
