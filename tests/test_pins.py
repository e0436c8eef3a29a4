"""Pinned outputs of one small CLI session: every data file, byte for byte.

The session generates a 120-document, 5-label synthetic corpus, samples
it, runs all five training modes, ``ablate``, ``tune``, ``evaluate`` and
``stats``, each in its own output directory under one working directory,
so every path an output records is relative.  Manifests are left out:
they hold wall time and peak RSS.

BLAS kernels round differently on other CPU cores and library builds, so
the digests hold only where the environment key (numpy's and scipy's
versions and the OpenBLAS core name) equals the pinned one.  Elsewhere
every F1 field and ``tune``'s best score must still equal the pinned
values to within 1e-9.

After a change that alters an output on purpose, rewrite the pins with

    PYTHONPATH=src python tests/test_pins.py --write
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mldistill import cli, parallel

PINS = Path(__file__).with_name("pins.json")
MODES = (
    "sequential_kd",
    "binary_relevance_kd",
    "sequential_kd_contrastive",
    "binary_relevance_kd_contrastive",
    "classifier_chains_baseline",
)
CORPUS = ["--corpus", "data/corpus.jsonl", "--vocab", "data/vocab.txt"]
TRAIN = ["--run.preset", "trial_and_error", "--distill.epochs", "2"]
# (output directory, command line), run in order in one working directory.
SESSION = (
    ("data", ["generate-synthetic", "--docs", "120", "--labels", "5", "--seed", "3"]),
    ("sample", ["sample", *CORPUS, "--size", "60", "--seed", "3"]),
    *((f"run-{mode}", ["run", *CORPUS, "--mode", mode, *TRAIN]) for mode in MODES),
    ("ablate", ["ablate", *CORPUS, *TRAIN]),
    ("tune", ["tune", *CORPUS, "--pso.n", "2", "--pso.max_iters", "2"]),
    ("evaluate", ["evaluate", "--predictions", "run-sequential_kd/predictions.jsonl"]),
    ("stats", ["stats", "--replications", "replications.txt"]),
)


def environment_key() -> dict[str, str | None]:
    """numpy's and scipy's versions and the core numpy's OpenBLAS runs on."""
    core = None
    for path in parallel._openblas_paths():
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            get_core = lib.scipy_openblas_get_corename64_
            get_core.restype = ctypes.c_char_p
            core = get_core().decode()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas_core": core}


def _f1_fields(tree: dict, prefix: str) -> dict[str, float]:
    """Every number in ``tree`` whose key ends in ``f1``, by dotted path."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_f1_fields(value, f"{prefix}{key}."))
        elif key.endswith("f1"):
            out[prefix + key] = value
    return out


def run_session(root: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Run the session in ``root``; return the sha256 of every data output
    and the F1 values, each keyed by its path under ``root``."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for out, argv in SESSION:
            if out == "stats":
                # the four F1 fields of each ablation row are its replications
                rows = Path("ablate/ablation.tsv").read_text(encoding="utf-8").splitlines()[2:]
                lines = [f"{name} {v}" for name, *values in map(str.split, rows) for v in values]
                Path("replications.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert cli.main([*argv, "--out", out]) == 0, argv
    finally:
        os.chdir(cwd)
    digests, values = {}, {}
    for path in sorted(root.glob("*/*")):
        name = path.relative_to(root).as_posix()
        if path.name == "manifest.json":
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        text = path.read_text(encoding="utf-8")
        if path.name == "metrics.json":
            values.update(_f1_fields(json.loads(text), f"{name}:"))
        elif path.name == "ablation.tsv":
            header, *rows = [line.split("\t") for line in text.splitlines()[1:]]
            values.update({f"{name}:{row[0]}.{h}": float(v) for row in rows for h, v in zip(header[1:], row[1:])})
        elif path.name == "best_config.txt":
            values[f"{name}:best_score"] = float(text.splitlines()[1].rsplit(" ", 1)[1])
    return digests, values


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_session(tmp_path_factory.mktemp("pins"))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_data_output_is_pinned(session, pins):
    digests, values = session
    assert sorted(digests) == sorted(pins["sha256"])
    assert sorted(values) == sorted(pins["values"])


def test_outputs_equal_pins(session, pins):
    digests, values = session
    if pins["key"] == environment_key():
        assert digests == pins["sha256"]
    else:
        assert values == pytest.approx(pins["values"], rel=0.0, abs=1e-9)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests, values = run_session(Path(tmp))
    pinned = {"key": environment_key(), "sha256": digests, "values": values}
    PINS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests and {len(values)} values to {PINS}")
