"""CLI subcommands end to end on a tiny synthetic corpus."""

import builtins
import ctypes
import errno
import io
import json
import math
import os
import re
import resource
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mldistill
from mldistill import cli, distill, experiment, parallel
from mldistill.cli import main
from mldistill.config import KEY_REGISTRY, MODE_VARIANTS, PRESETS, parse_config_file, resolve_config
from mldistill.corpus import HashingTfidfVectorizer
from mldistill.errors import UsageError
from mldistill.hypertune import default_space, space_to_json


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data")
    code = main(
        ["generate-synthetic", "--docs", "48", "--labels", "2", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    return out


FAST = [
    "--run.k", "3",
    "--run.feature_dim", "512",
    "--distill.epochs", "2",
    "--distill.batch_size", "8",
]


FLOAT_KEYS = [key for key, (_, default) in KEY_REGISTRY.items() if isinstance(default, float)]


def run_cli(args) -> int:
    return main([str(a) for a in args])


class TestGenerateAndSample:
    def test_generate_outputs(self, data_dir):
        assert (data_dir / "corpus.jsonl").exists()
        assert (data_dir / "vocab.txt").exists()
        manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["documents"] == 48
        assert "prevalence" in manifest

    def test_sample_sizes_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "samp"
        code = run_cli(
            ["sample", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--size", 24, "--out", out, "--seed", 5]
        )
        assert code == 0
        lines = [l for l in (out / "sample.jsonl").read_text(encoding="utf-8").splitlines() if l.strip()]
        assert len(lines) == 24
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["sample_documents"] == 24

    def test_sample_size_zero_is_usage_error(self, data_dir, tmp_path):
        code = run_cli(
            ["sample", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--size", 0, "--out", tmp_path / "x"]
        )
        assert code == 1

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "f").write_text("", encoding="utf-8")
        code = run_cli(["generate-synthetic", "--docs", 4, "--out", tmp_path / "f"])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_out_below_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "f").write_text("", encoding="utf-8")
        code = run_cli(["generate-synthetic", "--docs", 4, "--out", tmp_path / "f" / "sub"])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_identity_sample(self, data_dir, tmp_path):
        out = tmp_path / "full"
        code = run_cli(
            ["sample", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--size", 48, "--out", out]
        )
        assert code == 0
        sampled = (out / "sample.jsonl").read_text(encoding="utf-8")
        assert sampled == (data_dir / "corpus.jsonl").read_text(encoding="utf-8")


class TestRun:
    def test_run_and_rerun_byte_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run_cli(
                ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                 "--out", out, "--seed", 11, *FAST]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "predictions.jsonl").read_bytes() == (outs[1] / "predictions.jsonl").read_bytes()
        assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()

    def test_run_workers_byte_identical(self, data_dir, tmp_path):
        for mode in MODE_VARIANTS:
            outs = []
            for workers in (1, 2, 3):
                out = tmp_path / f"{mode}-w{workers}"
                code = run_cli(
                    ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                     "--out", out, "--seed", 11, "--mode", mode, "--workers", workers, *FAST]
                )
                assert code == 0
                outs.append(out)
            for out in outs[1:]:
                assert (out / "predictions.jsonl").read_bytes() == (outs[0] / "predictions.jsonl").read_bytes()
                assert (out / "metrics.json").read_bytes() == (outs[0] / "metrics.json").read_bytes()

    @pytest.mark.parametrize("mode", ["sequential_kd", "binary_relevance_kd_contrastive"])
    def test_first_layer_holds_fold_columns(self, data_dir, tmp_path, monkeypatch, mode):
        # folds run serially at --workers 1: each featurizes its training,
        # then its validation documents at full hashed width, then draws its models
        features, models = [], []
        transform, init_model = HashingTfidfVectorizer.transform, distill.init_model

        def recording_transform(self, docs_tokens):
            X = transform(self, docs_tokens)
            features.append(set(X.indices.tolist()))
            return X

        def recording_init(*args, **kwargs):
            model = init_model(*args, **kwargs)
            models.append((len(features), model.layers[0][0].shape[0]))
            return model

        monkeypatch.setattr(HashingTfidfVectorizer, "transform", recording_transform)
        monkeypatch.setattr(distill, "init_model", recording_init)
        code = run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt", "--out", tmp_path / "o",
             "--mode", mode, "--workers", 1, *FAST, "--run.feature_dim", 32768]
        )
        assert code == 0
        assert len(features) == 2 * 3
        fold_columns = [len(features[i] | features[i + 1]) for i in range(0, 6, 2)]
        assert all(0 < c < 32768 for c in fold_columns)
        per_fold = 2 if mode == "sequential_kd" else 2 * 2  # teacher and student, once or per label
        assert models == [(2 * fold + 2, fold_columns[fold]) for fold in range(3) for _ in range(per_fold)]

    def test_corpus_without_tokens_runs(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "corpus.jsonl").write_text(
            "".join(json.dumps({"text": "!!! ?", "labels": ["ab"[i % 2]]}) + "\n" for i in range(12)),
            encoding="utf-8",
        )
        for mode in MODE_VARIANTS:
            out = tmp_path / mode
            code = run_cli(
                ["run", "--corpus", tmp_path / "corpus.jsonl", "--vocab", tmp_path / "vocab.txt", "--out", out,
                 "--mode", mode, "--run.k", 2, "--distill.epochs", 1]
            )
            assert code == 0
            assert len((out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()) == 1 + 12 * 2

    @pytest.mark.parametrize(
        "vocab, corpus, message",
        [
            ("a\nb\n", ['{"id": "x", "text": "t", "labels": []}', "", '{"id": "x", "text": "u", "labels": []}'],
             "--corpus {corpus}: line 2: duplicate document id 'x' (first on line 0)"),
            ("a\nb\n\n a\n", ['{"text": "t", "labels": ["a"]}'],
             "--vocab {vocab}: line 3: duplicate label 'a' (first on line 0)"),
        ],
        ids=["document-id", "label"],
    )
    def test_duplicate_name_is_data_error_naming_it(self, tmp_path, capsys, vocab, corpus, message):
        (tmp_path / "vocab.txt").write_text(vocab, encoding="utf-8")
        (tmp_path / "corpus.jsonl").write_text("\n".join(corpus) + "\n", encoding="utf-8")
        code = run_cli(
            ["run", "--corpus", tmp_path / "corpus.jsonl", "--vocab", tmp_path / "vocab.txt",
             "--out", tmp_path / "o", *FAST]
        )
        assert code == 2
        expected = message.format(corpus=tmp_path / "corpus.jsonl", vocab=tmp_path / "vocab.txt")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader",
        ["predictions_with_header", "predictions", "sample_corpus", "run_corpus", "space", "space_float_range"],
    )
    def test_integer_past_digit_limit_is_data_error(self, data_dir, tmp_path, capsys, reader):
        # Python parses no integer literal of more than 4,300 digits.
        big = "1" + "0" * 5000
        corpus, vocab = data_dir / "corpus.jsonl", data_dir / "vocab.txt"
        if reader.startswith("predictions"):
            path = tmp_path / "pred.jsonl"
            lines = ['{"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}',
                     '{"doc_id": "y", "label": "a", "prob": 0.5, "true": 1, "fold": %s}' % big]
            if reader == "predictions_with_header":
                lines.insert(0, '{"_meta": {"labels": ["a"]}}')
            args = ["evaluate", "--predictions", path]
            expected = f"line {len(lines) - 1}: malformed prediction record (Exceeds the limit"
        elif reader.startswith("space"):
            path = tmp_path / "space.json"
            # max_length's upper bound; 400 digits parse, but exceed the float range
            bound = big if reader == "space" else big[:400]
            lines = [space_to_json(default_space()).replace('"upper": 512', f'"upper": {bound}')]
            args = ["tune", "--corpus", corpus, "--vocab", vocab, "--space", path, "--run.k", 2]
            expected = "malformed space file: Exceeds the limit" if reader == "space" else "space file dimension 5"
        else:
            path = tmp_path / "corpus.jsonl"
            lines = [*corpus.read_text(encoding="utf-8").splitlines(), '{"id": %s, "text": "t", "labels": []}' % big]
            args = ["sample", "--size", 1] if reader == "sample_corpus" else ["run"]
            args += ["--corpus", path, "--vocab", vocab]
            expected = f"line {len(lines) - 1}: malformed record (Exceeds the limit"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli([*args, "--out", tmp_path / "o"])
        assert code == 2
        assert expected in capsys.readouterr().err

    def test_manifest_peak_counts_workers(self, data_dir, tmp_path, monkeypatch):
        # RUSAGE_SELF cannot see forked workers; the manifest adds their peaks.
        monkeypatch.setattr(parallel, "_workers_peak_kb", 0)
        out = tmp_path / "w2"
        code = run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--workers", 2, *FAST]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["peak_rss_kb"] > resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def test_baseline_mode_shares_report_schema(self, data_dir, tmp_path):
        out_seq = tmp_path / "seq"
        out_base = tmp_path / "base"
        for out, mode in ((out_seq, "sequential_kd"), (out_base, "classifier_chains_baseline")):
            code = run_cli(
                ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                 "--out", out, "--mode", mode, *FAST]
            )
            assert code == 0
        a = json.loads((out_seq / "metrics.json").read_text(encoding="utf-8"))
        b = json.loads((out_base / "metrics.json").read_text(encoding="utf-8"))
        assert set(a) == set(b)
        assert set(a["labels"]) == set(b["labels"])

    def test_manifest_embeds_version_and_config(self, data_dir, tmp_path):
        out = tmp_path / "m"
        run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, *FAST]
        )
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["version"]
        assert manifest["config"]["run.k"] == 3
        assert "wall_clock_seconds" in manifest and "peak_rss_kb" in manifest
        header = json.loads((out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert header["_meta"]["config"]["run.k"] == 3

    def test_missing_corpus_is_data_error(self, data_dir, tmp_path):
        code = run_cli(
            ["run", "--corpus", data_dir / "nope.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", tmp_path / "x", *FAST]
        )
        assert code == 2

    def test_failed_run_leaves_no_partial_outputs(self, data_dir, tmp_path):
        out = tmp_path / "fail"
        # unbounded activations at this step size diverge during training
        code = run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--model.activation", "relu", "--run.lr_scale", 1e150, "--run.feature_dim", 512]
        )
        assert code == 3
        assert not (out / "predictions.jsonl").exists()
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["run", "ablate", "tune"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("run.k", 49),
            ("run.k", 1),
            ("run.mode", "magic"),
            ("run.preset", "bogus"),
            ("run.workers", 0),
            ("run.feature_dim", 1),
            ("run.lr_scale", 0),
            ("model.activation", "sigmoid"),
            ("run.label_order", "0,0"),
            ("model.student_hidden", "0"),
            ("model.teacher_hidden", "64,-3"),
            ("distill.batch_size", 0),
            ("distill.epochs", 0),
            ("distill.max_length", 0),
            ("pso.n", 0),
            ("pso.max_iters", 0),
            ("pso.patience", 0),
            ("pso.w", -1),
            ("pso.c1", -0.5),
            ("run.contrastive_weight", 2),
            ("run.contrastive_weight", -1),
            *[(key, value) for key in FLOAT_KEYS for value in ("nan", "inf")],
        ],
    )
    def test_bad_setting_is_usage_error_naming_key(self, data_dir, tmp_path, capsys, command, key, value):
        out = tmp_path / "bad"
        code = run_cli(
            [command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, *FAST, f"--{key}", value]
        )
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestEvaluate:
    def test_round_trip_equals_run_report(self, data_dir, tmp_path):
        run_out = tmp_path / "run"
        run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", run_out, "--seed", 2, *FAST]
        )
        eval_out = tmp_path / "eval"
        code = run_cli(["evaluate", "--predictions", run_out / "predictions.jsonl", "--out", eval_out])
        assert code == 0
        got = json.loads((eval_out / "metrics.json").read_text(encoding="utf-8"))
        expected = json.loads((run_out / "metrics.json").read_text(encoding="utf-8"))
        got.pop("_meta"), expected.pop("_meta")
        assert got == expected

    def test_malformed_predictions_rejected_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "label": "x", "prob": 0.2, "true": 0, "fold": 0}\ngarbage\n', encoding="utf-8")
        code = run_cli(["evaluate", "--predictions", bad, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_number_value_is_data_error_naming_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "label": "x", "prob": 0.2, "true": "yes", "fold": 0}\n', encoding="utf-8")
        code = run_cli(["evaluate", "--predictions", bad, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 0: true must be a number, got 'yes'" in capsys.readouterr().err


class TestInputFaults:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["run", "ablate", "tune", "evaluate"])
    def test_bad_out_fails_before_any_work(self, data_dir, tmp_path, capsys, monkeypatch, command, below):
        def fail(*args, **kwargs):
            raise AssertionError("work started before --out was checked")  # exit 3

        for name in ("load_corpus", "read_predictions", "run_experiment", "run_ablation", "run_tuning"):
            monkeypatch.setattr(cli, name, fail)
        (tmp_path / "f").write_text("", encoding="utf-8")
        out = tmp_path / "f" / "sub" if below else tmp_path / "f"
        if command == "evaluate":
            inputs = ["--predictions", tmp_path / "pred.jsonl"]
        else:
            inputs = ["--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt"]
        code = run_cli([command, *inputs, "--out", out])
        assert code == 1
        reason = "Not a directory" if below else "File exists"
        assert f"usage error: --out {out}: cannot make a directory there ({reason})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [
            *(("generate-synthetic", name) for name in ("corpus.jsonl", "vocab.txt", "manifest.json")),
            *(("sample", name) for name in ("sample.jsonl", "vocab.txt", "manifest.json")),
            *(("run", name) for name in ("predictions.jsonl", "metrics.json", "manifest.json")),
            *(("tune", name) for name in ("space.json", "trace.jsonl", "best_config.txt", "manifest.json")),
            ("evaluate", "metrics.json"),
            *(("ablate", name) for name in ("ablation.tsv", "manifest.json")),
            ("stats", "stats.txt"),
        ],
    )
    def test_directory_in_place_of_output_is_usage_error(
        self, data_dir, tmp_path, capsys, monkeypatch, command, name
    ):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the outputs were checked")  # exit 3

        for work in ("generate_synthetic", "load_corpus", "read_predictions", "read_replications",
                     "run_experiment", "run_ablation", "run_tuning"):
            monkeypatch.setattr(cli, work, fail)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        (out / name / "kept.txt").write_text("x", encoding="utf-8")
        before = sorted(out.rglob("*"))
        corpus, vocab = data_dir / "corpus.jsonl", data_dir / "vocab.txt"
        inputs = {
            "generate-synthetic": ["--docs", 4],
            "sample": ["--corpus", corpus, "--vocab", vocab, "--size", 4],
            "evaluate": ["--predictions", tmp_path / "pred.jsonl"],
            "stats": ["--replications", tmp_path / "reps.txt"],
        }.get(command, ["--corpus", corpus, "--vocab", vocab])
        code = run_cli([command, *inputs, "--out", out])
        assert code == 1
        assert f"usage error: --out {out}: cannot write {name} there (Is a directory)" in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before and (out / name / "kept.txt").read_text(encoding="utf-8") == "x"

    def test_failed_command_makes_no_out_directory(self, tmp_path):
        out = tmp_path / "new" / "out"
        assert run_cli(["evaluate", "--predictions", tmp_path / "missing.jsonl", "--out", out]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("role", ["predictions", "corpus"])
    def test_fault_before_non_utf8_bytes_is_reported_first(self, data_dir, tmp_path, capsys, role):
        # Both faults lie in the first 8 KB, which the text layer decodes at once.
        path = tmp_path / "input"
        if role == "predictions":
            good = b'{"doc_id": "d%d", "label": "a", "prob": 0.5, "true": 1, "fold": 0}'
            lines = [b'{"_meta": {"labels": ["a"]}}', *(good % i for i in range(5)), b"\xe9"]
            lines[3] = b'{"doc_id": "d2", "label": "a"'
            args = ["evaluate", "--predictions", path]
            message = "line 3: malformed prediction record"
        else:
            lines = [*data_dir.joinpath("corpus.jsonl").read_bytes().splitlines()[:6], b"\xe9"]
            lines[3] = b"[1]"
            args = ["run", "--corpus", path, "--vocab", data_dir / "vocab.txt"]
            message = "line 3: record is not an object"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert len(lines[-1]) + path.stat().st_size < 8192
        code = run_cli([*args, "--out", tmp_path / "o"])
        assert code == 2
        assert f"data error: --{role} {path}: {message}" in capsys.readouterr().err


# Every input's flag, and the arguments (all but --out) of a command that
# reads it from PATH, its other inputs valid.
INPUT_ROLES = {
    "corpus": ("corpus", ["run", "--corpus", "PATH", "--vocab", "VOCAB", *FAST]),
    "sample_corpus": ("corpus", ["sample", "--corpus", "PATH", "--vocab", "VOCAB", "--size", 1]),
    "vocab": ("vocab", ["run", "--corpus", "CORPUS", "--vocab", "PATH", *FAST]),
    "config": ("config", ["run", "--corpus", "CORPUS", "--vocab", "VOCAB", "--config", "PATH", *FAST]),
    "space": ("space", ["tune", "--corpus", "CORPUS", "--vocab", "VOCAB", "--space", "PATH", *FAST]),
    "predictions": ("predictions", ["evaluate", "--predictions", "PATH"]),
    "replications": ("replications", ["stats", "--replications", "PATH"]),
}
MAIN_ROLES = [role for role in INPUT_ROLES if role != "sample_corpus"]

# A fault while opening the input: how to make PATH, and the errno it raises.
OPEN_FAULTS = {
    "missing": (lambda path: None, errno.ENOENT),
    "directory": (lambda path: path.mkdir(), errno.EISDIR),
    "below_file": (None, errno.ENOTDIR),
    "symlink_loop": (lambda path: path.symlink_to(path), errno.ELOOP),
    "long_name": (lambda path: None, errno.ENAMETOOLONG),
}

BIG = "1" + "0" * 5000  # Python parses no integer literal of more than 4,300 digits
DEEP = "[" * 100_000 + "]" * 100_000  # deeper than json's recursion limit
DOC = '{"text": "t", "labels": %s}\n'
RECORD = '{"doc_id": "x", "label": "a", "prob": %s, "true": %s, "fold": %s}\n'
GOOD_RECORD = RECORD % (0.5, 1, 0)


def space_text(change=None, old=None, new=None):
    """The default space file, with ``change`` applied to its dimensions or
    the text ``old`` replaced by ``new``."""
    dims = json.loads(space_to_json(default_space()))
    if change:
        change(dims)
    text = json.dumps(dims, indent=2) + "\n"
    return text if old is None else text.replace(old, new)


def with_bound(name, bound, value):
    return lambda dims: next(d for d in dims if d["name"] == name).update({bound: value})


# (role, fault, file content, exit code, the message after "--FLAG PATH: ",
# or a key the usage error names).  The code is the one each cell gave
# before the flag and path were named; an empty corpus is a usage error
# (run.k exceeds its size), and an empty config is valid.  A content is
# written with surrogateescape, so "\udce9" is the lone byte 0xe9.
CONTENT_FAULTS = [
    ("corpus", "not_utf8", DOC % "[]" + '{"text": "caf\udce9", "labels": []}\n', 2,
     "line 1: not valid UTF-8 (byte 0xe9)"),
    ("sample_corpus", "not_utf8", DOC % "[]" + '{"text": "caf\udce9", "labels": []}\n', 2,
     "line 1: not valid UTF-8 (byte 0xe9)"),
    ("corpus", "empty", "", 1, "run.k"),
    ("corpus", "malformed", DOC % "[]" + '{"text": "t"\n', 2, "line 1: malformed record (Expecting"),
    ("corpus", "wrong_type", DOC % "[]" + DOC % '"topic_00"', 2, "line 1: 'labels' must be a list of strings"),
    ("corpus", "out_of_range", DOC % "[]" + DOC % '["zz"]', 2, "line 1: unknown label 'zz'"),
    ("corpus", "duplicate", '{"id": "x", "text": "t", "labels": []}\n' * 2, 2,
     "line 1: duplicate document id 'x' (first on line 0)"),
    ("corpus", "huge_int", DOC % "[]" + '{"id": %s, "text": "t", "labels": []}\n' % BIG, 2,
     "line 1: malformed record (Exceeds the limit"),
    ("corpus", "deep_nesting", DOC % "[]" + DEEP + "\n", 2, "line 1: malformed record (maximum recursion depth"),
    ("vocab", "not_utf8", "topic_00\ncaf\udce9\n", 2, "line 1: not valid UTF-8 (byte 0xe9)"),
    ("vocab", "empty", "", 2, "label vocabulary is empty"),
    ("vocab", "duplicate", "topic_00\ntopic_01\n\n topic_00\n", 2,
     "line 3: duplicate label 'topic_00' (first on line 0)"),
    ("config", "not_utf8", "run.k = 3\n# caf\udce9\n", 2, "line 1: not valid UTF-8 (byte 0xe9)"),
    ("config", "empty", "", 0, None),
    ("config", "malformed", "run.k 3\n", 2, "line 0: expected 'key = value'"),
    ("config", "unknown_key", "# tuned\nrun.bogus = 1\n", 2, "line 1: unknown key 'run.bogus'"),
    ("config", "wrong_type", "distill.temperature = abc\n", 1, "distill.temperature"),
    ("config", "non_finite", "distill.alpha = nan\n", 1, "distill.alpha"),
    ("config", "out_of_range", "distill.alpha = 2\n", 1, "distill.alpha"),
    ("config", "huge_int", f"distill.max_length = {BIG}\n", 1, "distill.max_length"),
    ("space", "not_utf8", space_text(old='"temperature"', new='"temp\udce9rature"'), 2,
     "line 2: not valid UTF-8 (byte 0xe9)"),
    ("space", "empty", "", 2, "malformed space file: Expecting value"),
    ("space", "malformed", "[{\n", 2, "malformed space file: Expecting"),
    ("space", "wrong_type", space_text(with_bound("alpha", "lower", "x")), 2,
     "space file dimension 1: could not convert string to float: 'x'"),
    ("space", "non_finite", space_text(with_bound("epochs", "upper", math.inf)), 2,
     "space file dimension 4: dimension 'epochs' needs finite bounds"),
    ("space", "out_of_range", space_text(with_bound("temperature", "lower", -4.0)), 2,
     "space file: distill.temperature must be positive"),
    ("space", "duplicate", space_text(lambda dims: dims.append(dims[1])), 2,
     "space file: dimension 'alpha' is unknown or repeated"),
    ("space", "huge_int", space_text(old='"upper": 512', new=f'"upper": {BIG}'), 2,
     "malformed space file: Exceeds the limit"),
    ("space", "deep_nesting", DEEP + "\n", 2, "malformed space file: maximum recursion depth"),
    ("predictions", "not_utf8", GOOD_RECORD + GOOD_RECORD.replace('"x"', '"caf\udce9"'), 2,
     "line 1: not valid UTF-8 (byte 0xe9)"),
    ("predictions", "not_utf8_after_header",
     '{"_meta": {"labels": ["a"]}}\n' + GOOD_RECORD + GOOD_RECORD.replace('"x"', '"caf\udce9"'), 2,
     "line 2: not valid UTF-8 (byte 0xe9)"),
    ("predictions", "empty", "", 2, "prediction file contains no records"),
    ("predictions", "malformed", GOOD_RECORD + "garbage\n", 2, "line 1: malformed prediction record (Expecting value"),
    ("predictions", "wrong_type", RECORD % (0.5, '"yes"', 0), 2, "line 0: true must be a number, got 'yes'"),
    ("predictions", "non_finite", RECORD % ("NaN", 1, 0), 2, "line 0: probability nan outside [0, 1] for doc 'x'"),
    ("predictions", "out_of_range", RECORD % (1.5, 1, 0), 2, "line 0: probability 1.5 outside [0, 1] for doc 'x'"),
    ("predictions", "duplicate", GOOD_RECORD * 2, 2, "line 1: duplicate prediction for doc 'x', label index 0"),
    ("predictions", "huge_int", GOOD_RECORD + RECORD % (0.5, 1, BIG), 2,
     "line 1: malformed prediction record (Exceeds the limit"),
    ("predictions", "deep_nesting", GOOD_RECORD + DEEP + "\n", 2,
     "line 1: malformed prediction record (maximum recursion depth"),
    ("predictions", "deep_nesting_after_header", '{"_meta": {"labels": ["a"]}}\n' + GOOD_RECORD + DEEP + "\n", 2,
     "line 2: malformed prediction record (maximum recursion depth"),
    # No header lists labels and no record has one: a corpus file, or
    # records that lack the field.
    ("predictions", "corpus_file", '{"id": "0", "text": "t", "labels": ["a"]}\n', 2, "line 0: missing field 'label'"),
    ("predictions", "no_label", '{"doc_id": "a", "prob": 0.5}\n', 2, "line 0: missing field 'label'"),
    ("predictions", "header_lists_no_label", '{"_meta": {"labels": []}}\n' + GOOD_RECORD, 2,
     "line 1: label 'a' not in header label list"),
    ("replications", "not_utf8", "A 0.82\nA 0.83\ncaf\udce9 0.7\n", 2, "line 2: not valid UTF-8 (byte 0xe9)"),
    ("replications", "empty", "", 2, "replication file contains no scores"),
    ("replications", "malformed", "OnlyName\n", 2, "line 0: expected '<approach> <score>'"),
    ("replications", "wrong_type", "A abc\n", 2, "line 0: score 'abc' is not a number"),
    ("replications", "non_finite", "A 0.8\nA nan\n", 2, "line 1: score 'nan' is not a finite number"),
    # float() reads any number of digits: this one overflows to inf.
    ("replications", "huge_int", f"A {BIG}\n", 2, f"line 0: score '{BIG}' is not a finite number"),
]


class TestInputMatrix:
    """Each input of each command, and each fault in it: a data error that
    begins with the input's flag and path and names the line where there is
    one, and no --out."""

    def run_role(self, data_dir, tmp_path, role, path):
        flag, args = INPUT_ROLES[role]
        names = {"PATH": path, "CORPUS": data_dir / "corpus.jsonl", "VOCAB": data_dir / "vocab.txt"}
        out = tmp_path / "o"
        return flag, out, run_cli([*(names.get(a, a) for a in args), "--out", out])

    @pytest.mark.parametrize("fault", list(OPEN_FAULTS))
    @pytest.mark.parametrize("role", MAIN_ROLES)
    def test_fault_opening_input_is_data_error_naming_it(self, data_dir, tmp_path, capsys, role, fault):
        make, code = OPEN_FAULTS[fault]
        if fault == "below_file":
            (tmp_path / "f").write_text("", encoding="utf-8")
            path = tmp_path / "f" / "input"
        else:
            path = tmp_path / ("x" * 256 if fault == "long_name" else "input")
            make(path)
        flag, out, exit_code = self.run_role(data_dir, tmp_path, role, path)
        assert exit_code == 2
        assert capsys.readouterr().err == f"data error: --{flag} {path}: cannot read it ({os.strerror(code)})\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "role, fault, content, code, message",
        CONTENT_FAULTS,
        ids=[f"{role}-{fault}" for role, fault, *_ in CONTENT_FAULTS],
    )
    def test_fault_in_input_keeps_its_exit_code(self, data_dir, tmp_path, capsys, role, fault, content, code, message):
        path = tmp_path / "input"
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
        flag, out, exit_code = self.run_role(data_dir, tmp_path, role, path)
        err = capsys.readouterr().err
        assert exit_code == code, err
        if code == 2:
            assert err.startswith(f"data error: --{flag} {path}: {message}"), err
        elif code == 1:
            assert err.startswith("usage error: ") and message in err, err
        assert out.exists() == (code == 0)

    def test_fault_in_work_after_inputs_is_internal_error(self, command_args, tmp_path, capsys, monkeypatch):
        # A path fault from the work itself, not from reading an input, is no data error.
        def missing(*args, **kwargs):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "scratch")

        monkeypatch.setattr(cli, "full_report", missing)
        out = tmp_path / "out"
        assert run_cli(["evaluate", *command_args["evaluate"], "--out", out]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")
        assert not out.exists()


# The call that does each command's work; the commit follows it.
WORK_CALLS = {
    "generate-synthetic": "generate_synthetic",
    "sample": "stratified_sample",
    "run": "run_experiment",
    "tune": "run_tuning",
    "evaluate": "full_report",
    "ablate": "run_ablation",
    "stats": "read_replications",
}
OUTPUT_FILES = [(command, name) for command, (_, names) in cli._COMMANDS.items() for name in names]


@pytest.fixture(scope="module")
def command_args(data_dir, tmp_path_factory):
    """Arguments, all but --out, that make each command succeed quickly."""
    inputs = tmp_path_factory.mktemp("inputs")
    corpus, vocab = data_dir / "corpus.jsonl", data_dir / "vocab.txt"
    assert run_cli(["run", "--corpus", corpus, "--vocab", vocab, "--out", inputs / "run", *FAST]) == 0
    (inputs / "reps.txt").write_text("A 0.82\nA 0.83\nA 0.81\nB 0.70\nB 0.71\nB 0.72\n", encoding="utf-8")
    train = ["--corpus", corpus, "--vocab", vocab, "--seed", 4, *FAST]
    return {
        "generate-synthetic": ["--docs", 12, "--labels", 2, "--seed", 1],
        "sample": ["--corpus", corpus, "--vocab", vocab, "--size", 12, "--seed", 1],
        "run": train,
        "tune": [*train, "--pso.n", 2, "--pso.max_iters", 1],
        "evaluate": ["--predictions", inputs / "run" / "predictions.jsonl"],
        "ablate": train,
        "stats": ["--replications", inputs / "reps.txt"],
    }


def fail_writes(monkeypatch, name):
    """Opening ``name``, or a temporary name made from it, for writing raises ENOSPC."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        base = os.path.basename(file) if isinstance(file, (str, os.PathLike)) else ""
        if "w" in mode and (base == name or base.startswith(name + ".")):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(builtins, "open", open_)


class TestOutputCommit:
    @pytest.mark.parametrize("fault", ["directory", "no_space"])
    @pytest.mark.parametrize("command, name", OUTPUT_FILES)
    def test_fault_while_writing_leaves_out_as_it_was(
        self, command_args, tmp_path, capsys, monkeypatch, command, name, fault
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        work = getattr(cli, WORK_CALLS[command])
        listed = []

        def work_then_fault(*args, **kwargs):
            result = work(*args, **kwargs)
            if fault == "directory":
                (out / name).mkdir()
            else:
                fail_writes(monkeypatch, name)
            listed.extend(sorted(out.iterdir()))
            return result

        monkeypatch.setattr(cli, WORK_CALLS[command], work_then_fault)
        capsys.readouterr()
        code = run_cli([command, *command_args[command], "--out", out])
        captured = capsys.readouterr()
        reason = os.strerror(errno.EISDIR if fault == "directory" else errno.ENOSPC)
        assert code == 1
        assert f"usage error: --out {out}: cannot write {name} there ({reason})" in captured.err
        assert captured.out == ""
        assert listed and sorted(out.iterdir()) == listed
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"

    def test_failed_commit_removes_the_directories_it_made(self, command_args, tmp_path, monkeypatch):
        out = tmp_path / "new" / "out"
        fail_writes(monkeypatch, "metrics.json")
        assert run_cli(["evaluate", *command_args["evaluate"], "--out", out]) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_rerun_replaces_every_output(self, command_args, tmp_path, command):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        args = [command, *command_args[command]]
        names = cli._COMMANDS[command][1]
        assert run_cli([*args, "--out", out]) == 0
        for name in names:
            (out / name).write_text("stale\n", encoding="utf-8")
        assert run_cli([*args, "--out", out]) == 0
        assert run_cli([*args, "--out", fresh]) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        for name in names:
            got, want = (out / name).read_bytes(), (fresh / name).read_bytes()
            if name == "manifest.json":  # wall clock and peak RSS vary from run to run
                got, want = ({**json.loads(text), "wall_clock_seconds": 0, "peak_rss_kb": 0} for text in (got, want))
            assert got == want, name

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_outputs_are_owner_only(self, command_args, tmp_path, command):
        # Outputs may hold sensitive text: each is made by mkstemp, mode 0600, whatever the umask.
        out = tmp_path / "out"
        names = cli._COMMANDS[command][1]
        assert run_cli([command, *command_args[command], "--out", out]) == 0
        assert {name: stat.S_IMODE((out / name).stat().st_mode) for name in names} == dict.fromkeys(names, 0o600)

    def test_run_writes_predictions_through_experiment(self, command_args, tmp_path, monkeypatch):
        # perfbench times predictions.write_s by rebinding this name.
        calls = []
        write = experiment.write_predictions
        monkeypatch.setattr(experiment, "write_predictions", lambda *a, **k: calls.append(a[1]) or write(*a, **k))
        assert run_cli(["run", *command_args["run"], "--out", tmp_path / "out"]) == 0
        assert len(calls) == 1



# Common flags that a command does not read, so its parser does not take them.
UNREAD_FLAGS = [
    *((command, flag) for command in ("generate-synthetic", "sample", "evaluate", "stats")
      for flag in ("workers", "config")),
    ("evaluate", "seed"),
    ("stats", "seed"),
]


def readme_commands():
    """Each ``mldistill`` command of the README's CLI walkthrough, as argv without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = re.search(r"^## CLI walkthrough\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = walkthrough.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mldistill ")]


class TestSurface:
    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_is_usage_error(self, command_args, tmp_path, capsys, command, flag):
        value = {"workers": 2, "config": tmp_path / "run.cfg", "seed": 3}[flag]
        out = tmp_path / "out"
        code = run_cli([command, *command_args[command], f"--{flag}", value, "--out", out])
        assert code == 1
        assert f"usage error: unrecognized arguments: --{flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_walkthrough_parses(self):
        commands = readme_commands()
        assert sorted(argv[0] for argv in commands) == sorted(cli._COMMANDS)
        for argv in commands:
            cli._build_parser().parse_args(argv)  # a rejected flag raises UsageError

    @pytest.mark.parametrize("below", [False, True], ids=["name", "below_name"])
    def test_out_name_too_long_is_usage_error(self, tmp_path, capsys, below):
        out = tmp_path / ("x" * 300)
        out = out / "sub" if below else out
        assert run_cli(["generate-synthetic", "--docs", 4, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"usage error: --out {out}: cannot make a directory there (File name too long)" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["2", "nan"])
    def test_label_correlation_out_of_range_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run_cli(["generate-synthetic", "--docs", 10, "--label-correlation", value, "--out", out]) == 1
        assert "usage error: --label-correlation must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestTune:
    def test_tune_outputs_and_trace_monotone(self, data_dir, tmp_path):
        out = tmp_path / "tune"
        code = run_cli(
            ["tune", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 4, "--run.k", 2, "--run.feature_dim", 256,
             "--pso.n", 2, "--pso.max_iters", 2, "--pso.threshold", 0]
        )
        assert code == 0
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["_meta"]["format"] == "mldistill-trace/1"
        records = [json.loads(l) for l in lines[1:]]
        scores = [r["gbest_score"] for r in records]
        assert scores == sorted(scores)
        assert all(set(r["gbest_config"]) == {
            "temperature", "alpha", "learning_rate", "batch_size", "epochs", "max_length"
        } for r in records)
        best = (out / "best_config.txt").read_text(encoding="utf-8")
        assert "distill.temperature" in best
        # the emitted best config parses back through the config loader
        values = parse_config_file(out / "best_config.txt")
        assert set(values) == {
            "distill.temperature", "distill.alpha", "distill.learning_rate",
            "distill.batch_size", "distill.epochs", "distill.max_length",
        }

    def test_tune_rerun_byte_identical_across_workers(self, data_dir, tmp_path):
        outs = []
        for name, workers in (("t1", 1), ("t2", 2)):
            out = tmp_path / name
            code = run_cli(
                ["tune", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                 "--out", out, "--seed", 4, "--workers", workers, "--run.k", 2,
                 "--run.feature_dim", 256, "--pso.n", 2, "--pso.max_iters", 2]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()
        assert (outs[0] / "best_config.txt").read_bytes() == (outs[1] / "best_config.txt").read_bytes()

    @pytest.mark.parametrize(
        "name, bound, value",
        [("batch_size", "upper", math.inf), ("temperature", "upper", math.inf), ("batch_size", "lower", -math.inf)],
    )
    def test_non_finite_space_bound_is_data_error(self, data_dir, tmp_path, capsys, name, bound, value):
        dims = json.loads(space_to_json(default_space()))
        for dim in dims:
            if dim["name"] == name:
                dim[bound] = value
        space = tmp_path / "space.json"
        space.write_text(json.dumps(dims), encoding="utf-8")  # writes Infinity / -Infinity
        out = tmp_path / "t"
        code = run_cli(
            ["tune", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--space", space, "--run.k", 2, "--run.feature_dim", 256,
             "--pso.n", 2, "--pso.max_iters", 1]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "finite" in err
        assert not out.exists() or not any(out.iterdir())


def _blas_threads() -> int:
    """Threads of numpy's bundled OpenBLAS, as loaded in this process."""
    maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    path = next(line.split()[-1] for line in maps if "libscipy_openblas64_" in line)
    return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()


class TestWorkersCap:
    """--workers N caps the whole concurrency: at most min(N, items) forked
    workers, one Python thread and one BLAS thread in each, no nested pools."""

    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        import mldistill.distill as distill

        log = tmp_path / "calls.log"

        def record(kind):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{kind} {os.getpid()} {threading.active_count()} {_blas_threads()}\n")

        train_student, serve = distill.train_student, parallel._serve

        def counting_train(*args, **kwargs):
            record("train")
            return train_student(*args, **kwargs)

        def counting_serve(*args):
            record("start")
            return serve(*args)

        monkeypatch.setattr(distill, "train_student", counting_train)
        monkeypatch.setattr(parallel, "_serve", counting_serve)

        def read():
            rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
            return {kind: [tuple(map(int, row[1:])) for row in rows if row[0] == kind] for kind in ("train", "start")}

        return read

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("run", FAST),
            ("tune", ["--run.k", 2, "--run.feature_dim", 256, "--pso.n", 4, "--pso.max_iters", 1]),
        ],
        ids=["run", "tune"],
    )
    def test_workers_train_in_at_most_n_processes(self, data_dir, tmp_path, calls, command, extra):
        code = run_cli(
            [command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", tmp_path / "o", "--seed", 4, "--workers", 2, *extra]
        )
        assert code == 0
        seen = calls()
        pids = {pid for pid, _, _ in seen["train"]}
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids
        assert {pid for pid, _, _ in seen["start"]} >= pids and len(seen["start"]) <= 2
        assert all(threads == 1 and blas == 1 for _, threads, blas in seen["train"])
        assert _blas_threads() == 1

    # units: one per fold when labels are chained, one per (fold, label) in
    # binary relevance; k = 2 folds of the fixture's 2 labels
    @pytest.mark.parametrize("mode, units", [("sequential_kd", 2), ("binary_relevance_kd", 2 * 2)])
    def test_workers_above_units_start_one_process_per_unit(self, data_dir, tmp_path, calls, mode, units):
        outs = []
        for workers in (8, 1):
            out = tmp_path / f"w{workers}"
            code = run_cli(
                ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                 "--out", out, "--mode", mode, "--workers", workers, *FAST, "--run.k", 2]
            )
            assert code == 0
            outs.append(out)
        assert len(calls()["start"]) == min(8, units)
        for name in ("predictions.jsonl", "metrics.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestAblate:
    def test_four_rows_and_shared_folds(self, data_dir, tmp_path):
        out = tmp_path / "abl"
        code = run_cli(
            ["ablate", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 6, *FAST]
        )
        assert code == 0
        text = (out / "ablation.tsv").read_text(encoding="utf-8")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0].split("\t") == ["approach", "f1", "micro_f1", "macro_f1", "weighted_f1"]
        rows = lines[1:]
        assert len(rows) == 4
        variants = [r.split("\t")[0] for r in rows]
        assert set(variants) == {
            "binary_relevance_kd", "binary_relevance_kd_contrastive",
            "sequential_kd_contrastive", "sequential_kd",
        }
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(set(manifest["row_fold_hashes"])) == 1
        assert manifest["row_fold_hashes"][0] == manifest["fold_hash"]

    @pytest.fixture(scope="class")
    def serial_table(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("abl-w1")
        code = run_cli(
            ["ablate", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 6, "--workers", 1, *FAST]
        )
        assert code == 0
        return (out / "ablation.tsv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ablate_workers_byte_identical(self, data_dir, tmp_path, serial_table, workers):
        out = tmp_path / f"w{workers}"
        code = run_cli(
            ["ablate", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 6, "--workers", workers, *FAST]
        )
        assert code == 0
        assert (out / "ablation.tsv").read_bytes() == serial_table

    def test_each_teacher_trains_once(self, tmp_path, monkeypatch):
        """On the pinned session's corpus (120 documents, 5 labels, 5 folds),
        ``ablate`` trains 50 teachers, a fold's and label's once in each of its
        two fits, and featurizes each fold once per fit.  One fit per variant
        made 100 and 20."""
        data = tmp_path / "data"
        assert run_cli(["generate-synthetic", "--docs", 120, "--labels", 5, "--seed", 3, "--out", data]) == 0
        train, fold_features = distill.train_student, distill._fold_features
        calls = {"teacher": 0, "features": 0}

        def counting_train(X, y, label, student, teacher, *args, **kwargs):
            calls["teacher"] += teacher is None
            return train(X, y, label, student, teacher, *args, **kwargs)

        def counting_features(*args):
            calls["features"] += 1
            return fold_features(*args)

        monkeypatch.setattr(distill, "train_student", counting_train)
        monkeypatch.setattr(distill, "_fold_features", counting_features)
        code = run_cli(
            ["ablate", "--corpus", data / "corpus.jsonl", "--vocab", data / "vocab.txt", "--out", tmp_path / "abl",
             "--run.preset", "trial_and_error", "--distill.epochs", 2, "--workers", 1]
        )
        assert code == 0
        assert calls == {"teacher": 50, "features": 10}


class TestAblateOneLabel:
    def test_sequential_and_binary_relevance_rows_identical(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(["generate-synthetic", "--docs", 30, "--labels", 1, "--out", data, "--seed", 8]) == 0
        out = tmp_path / "abl1"
        code = run_cli(
            ["ablate", "--corpus", data / "corpus.jsonl", "--vocab", data / "vocab.txt",
             "--out", out, "--seed", 2, "--run.k", 2, "--run.feature_dim", 256, "--distill.epochs", 2]
        )
        assert code == 0
        rows = {}
        for line in (out / "ablation.tsv").read_text(encoding="utf-8").splitlines():
            if line and not line.startswith(("#", "approach")):
                name, *values = line.split("\t")
                rows[name] = values
        assert rows["sequential_kd"] == rows["binary_relevance_kd"]
        assert rows["sequential_kd_contrastive"] == rows["binary_relevance_kd_contrastive"]


class TestDataCommandDeterminism:
    def test_generate_and_sample_byte_identical(self, tmp_path):
        corpora = []
        samples = []
        for attempt in ("a", "b"):
            data = tmp_path / f"gen-{attempt}"
            assert run_cli(["generate-synthetic", "--docs", 30, "--labels", 2, "--out", data, "--seed", 9]) == 0
            corpora.append((data / "corpus.jsonl").read_bytes())
            samp = tmp_path / f"samp-{attempt}"
            assert run_cli(
                ["sample", "--corpus", data / "corpus.jsonl", "--vocab", data / "vocab.txt",
                 "--size", 15, "--out", samp, "--seed", 1]
            ) == 0
            samples.append((samp / "sample.jsonl").read_bytes())
        assert corpora[0] == corpora[1]
        assert samples[0] == samples[1]

    def test_evaluate_byte_identical(self, data_dir, tmp_path):
        run_out = tmp_path / "run"
        run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", run_out, "--seed", 2, *FAST]
        )
        reports = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run_cli(["evaluate", "--predictions", run_out / "predictions.jsonl", "--out", out]) == 0
            reports.append((out / "metrics.json").read_bytes())
        assert reports[0] == reports[1]


class TestStatsCommand:
    def test_stats_report(self, tmp_path):
        reps = tmp_path / "reps.txt"
        reps.write_text("A 0.82\nA 0.83\nA 0.81\nB 0.70\nB 0.71\nB 0.72\n", encoding="utf-8")
        out = tmp_path / "stats"
        code = run_cli(["stats", "--replications", reps, "--out", out])
        assert code == 0
        text = (out / "stats.txt").read_text(encoding="utf-8")
        assert "[descriptive]" in text and "[anova]" in text

    def test_zero_variance_groups(self, tmp_path):
        reps = tmp_path / "reps.txt"
        reps.write_text("A 0.0\nA 0.0\nB 1.0\nB 1.0\n", encoding="utf-8")
        out = tmp_path / "stats"
        code = run_cli(["stats", "--replications", reps, "--out", out])
        assert code == 0
        assert "eta_squared\t1.000000" in (out / "stats.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_data_error(self, tmp_path, capsys, score):
        reps = tmp_path / "reps.txt"
        reps.write_text(f"A 0.82\nA 0.83\nB {score}\nB 0.71\n", encoding="utf-8")
        code = run_cli(["stats", "--replications", reps, "--out", tmp_path / "stats"])
        assert code == 2
        assert f"line 2: score {score!r} is not a finite number" in capsys.readouterr().err


class TestConfigResolution:
    def test_presets_expand_exactly(self):
        trial = PRESETS["trial_and_error"]
        assert (trial.temperature, trial.alpha, trial.learning_rate) == (2.0, 0.5, 2e-5)
        assert (trial.batch_size, trial.epochs, trial.max_length) == (16, 5, 128)
        pso = PRESETS["pso_selected"]
        assert (pso.temperature, pso.alpha, pso.learning_rate) == (2.79, 0.1, 1e-5)
        assert (pso.batch_size, pso.epochs, pso.max_length) == (8, 5, 512)

    def test_preset_resolution_with_override(self):
        config = resolve_config(overrides={"run.preset": "pso_selected", "distill.batch_size": "32"})
        assert config.distill.temperature == 2.79
        assert config.distill.batch_size == 32  # explicit override wins

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.k = 7\ndistill.alpha = 0.3\n# comment\n", encoding="utf-8")
        config = resolve_config(parse_config_file(path), {"distill.alpha": "0.9"})
        assert config.run.k == 7
        assert config.distill.alpha == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.bogus = 1\n", encoding="utf-8")
        from mldistill.errors import DataError

        with pytest.raises(DataError):
            parse_config_file(path)

    def test_resolved_defaults_pinned(self):
        expected = {
            "distill.alpha": 0.5, "distill.batch_size": 16, "distill.epochs": 5, "distill.learning_rate": 2e-05,
            "distill.max_length": 128, "distill.temperature": 2.0,
            "model.activation": "tanh", "model.student_hidden": [32], "model.teacher_hidden": [128, 64],
            "pso.c1": 1.5, "pso.c2": 1.5, "pso.max_iters": 10, "pso.n": 10, "pso.patience": 1,
            "pso.relative_threshold": False, "pso.threshold": 0.001, "pso.w": 0.7,
            "run.contrastive_weight": 0.5, "run.feature_dim": 32768, "run.k": 5, "run.label_order": None,
            "run.lr_scale": 5000.0, "run.mode": "sequential_kd", "run.preset": "custom", "run.seed": 0,
        }
        got = resolve_config().audit_dict()
        assert got == expected
        assert {key: type(value) for key, value in got.items()} == {key: type(v) for key, v in expected.items()}
        # one value through each parser: str, int, float, bool, tuple and optional tuple
        raw = {
            "model.activation": "relu", "run.k": "7", "run.lr_scale": "250", "pso.relative_threshold": "yes",
            "model.teacher_hidden": "64 32", "run.label_order": "",
        }
        parsed = {key: resolve_config(overrides=raw).audit_dict()[key] for key in raw}
        expected = {
            "model.activation": "relu", "run.k": 7, "run.lr_scale": 250.0, "pso.relative_threshold": True,
            "model.teacher_hidden": [64, 32], "run.label_order": None,
        }
        assert parsed == expected
        assert {key: type(value) for key, value in parsed.items()} == {key: type(v) for key, v in expected.items()}

    def test_bool_key_parses_yes(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pso.relative_threshold = yes\n", encoding="utf-8")
        assert resolve_config(parse_config_file(path)).pso.relative_threshold is True

    def test_int_key_rejects_fraction(self, data_dir, tmp_path, capsys):
        code = run_cli(
            ["tune", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", tmp_path / "t", "--pso.n", "2.5"]
        )
        assert code == 1
        assert "pso.n" in capsys.readouterr().err

    def test_config_is_a_leaf_and_package_serves_readme_names(self):
        names = {
            "DistillConfig": "config", "default_space": "hypertune", "distill_sequential": "distill",
            "example_f1": "metrics", "full_report": "metrics", "pso_optimize": "hypertune",
            "stratified_kfold": "splits",
        }
        script = f"""
import importlib, sys
import mldistill
import mldistill.config
assert not {{"numpy", "scipy"}} & set(sys.modules), "numpy or scipy loaded"
for name, module in {names!r}.items():
    assert getattr(mldistill, name) is getattr(importlib.import_module("mldistill." + module), name), name
try:
    mldistill.teacher_cv_predictions
except AttributeError:
    pass
else:
    raise AssertionError("a name outside the README is served")
"""
        src = str(Path(mldistill.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, encoding="utf-8", timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_bad_preset_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(overrides={"run.preset": "grid_search"})

    def test_unknown_flag_is_usage_error(self, data_dir, tmp_path):
        code = run_cli(["run", "--corpus", "x", "--vocab", "y", "--out", tmp_path, "--bogus"])
        assert code == 1
