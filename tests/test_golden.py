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
CUSTOM_SINE = {"case": "custom", "beta": 0.5, "a": 1.0, "sigma": 0.3, "eta": 0.2,
               "lambda": 2.0, "x0": 1.0, "jump": {"law": "dirac", "value": 1.5}}
# lambda * dt = 3: most cells of a 20-step run draw 3 or more marks.
MANY_MARKS = {**CUSTOM, "lambda": 60.0}
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
                    "8e3702e9ce72d7283b8bd7785a8205b7cf814a5f328e5993ad4eb948c378c464"),
    "path-many-marks": ("simulate",
                        _doc(MANY_MARKS, 1.0, 20, 50,
                             constraint={"kind": "sine", "alpha": 0.5, "p": 0.8}),
                        "path.csv",
                        "7c69cd04fed3a6e6359252dd9e93241631b67a71f62e584921e1264a82de58f9"),
    "noise-many-marks": ("simulate --dump-noise",
                         _doc(MANY_MARKS, 1.0, 20, 50,
                              constraint={"kind": "sine", "alpha": 0.5, "p": 0.8}),
                         "noise.csv",
                         "1aa8d06ae152a7d87cdacd6e767f02d0f37f707e8e818237b9a5d3774d399c14"),
    "oracle-i": ("oracle", _doc(FIG1, 1.0, 20, 200), "oracle.csv",
                 "f78f9d57b4ac395f6cc52590e78e1ebc43bce5fbe31d9bbecfe0dc7c93141cd7"),
    "oracle-ii": ("oracle", _doc(FIG3, 1.0, 20, 200), "oracle.csv",
                  "bc5cf3fe0927b17083229138ed628040bb8eb92d7f915771ba25d3c9661c06f6"),
    "oracle-iii": ("oracle", _doc(FIG5, 15.0, 30, 200), "oracle.csv",
                   "823fc2eee7a538349ac9a8c2151b0c5b325b71f0705bcd4298ba8d575fcb8459"),
    "oracle-custom-linear": ("oracle",
                             _doc(CUSTOM, 1.0, 20, 200,
                                  constraint={"kind": "linear", "p": 0.5}),
                             "oracle.csv",
                             "ca380a5554ae857de27778bf7c1f6bad5ada31b3545f85deb423eb7e36b024c1"),
    "density-i": ("density", _doc(FIG1, 1.0, 20, 500), "density.csv",
                  "470faf994087f5f0d8e9f5f677fb646a4d85f78d4e20503db3bc116df61d276f"),
    "density-iii": ("density", _doc(FIG5, 15.0, 30, 500), "density.csv",
                    "19a1582a564e80cbdee477a7c99e9c1797d82f369829c0c8e3ff3860a3dbf6d8"),
    "density-custom-sine": ("density",
                            _doc(CUSTOM_SINE, 1.0, 20, 500,
                                 constraint={"kind": "sine", "alpha": 0.5, "p": 0.8}),
                            "density.csv",
                            "16c2fa6de3868c29db7c99feed4eb23e2c3b308a8b68e7e9902441da603a611d"),
    "convergence-fig2": (
        "convergence",
        _doc(FIG1, 1.0, 10, 100, replications=3, sweep={"N": [50, 100]}),
        "convergence.csv",
        "7726ada4572d9e774213f24c515ef30c1eb903978aaf0a2c0c8e6414d41ed599",
    ),
    "convergence-fig4": (
        "convergence",
        _doc(FIG3, 1.0, 10, 100, replications=3, sweep={"N": [50, 100]}),
        "convergence.csv",
        "5fb80125aa5fabfe06e9bf2f0d906fa58994cc980035037e5dca652f25cef8c4",
    ),
}


# Above parallel.MIN_CHUNK_ITEMS particles, so each step's noise is drawn in
# chunks on worker threads when more than one is allowed; the same bytes are
# pinned under one and two threads.
THREADED = {
    "path-i-N20000": ("simulate", _doc(FIG1, 1.0, 5, 20000), "path.csv",
                      "9c2eaa589b911d3774bae01076ae6575d8180d800ca288d71dccacb833a6d5fe"),
    "path-iii-N20000": ("simulate", _doc(FIG5, 15.0, 5, 20000), "path.csv",
                        "d155d35e839179d6cfd02e4bf264af38204f5e4df07d50686ee7d43b216ff2b6"),
}


def _run(case, tmp_path):
    command, doc, filename, want = case
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(config), "--seed", "7",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == want


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(name, tmp_path):
    _run(GOLDEN[name], tmp_path)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(THREADED))
def test_threaded_output_bytes_pinned(name, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("MEANREFLECT_THREADS", threads)
    _run(THREADED[name], tmp_path)
