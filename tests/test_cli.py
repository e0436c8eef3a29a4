"""CLI subcommands end to end on a tiny synthetic corpus."""

import ctypes
import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mldistill
from mldistill import cli, distill, parallel
from mldistill.cli import main
from mldistill.config import KEY_REGISTRY, MODE_VARIANTS, PRESETS, parse_config_file, resolve_config
from mldistill.corpus import HashingTfidfVectorizer
from mldistill.errors import UsageError
from mldistill.hypertune import default_space, space_to_json
from mldistill.metrics import read_report


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
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["documents"] == 48
        assert "prevalence" in manifest

    def test_sample_sizes_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "samp"
        code = run_cli(
            ["sample", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--size", 24, "--out", out, "--seed", 5]
        )
        assert code == 0
        lines = [l for l in (out / "sample.jsonl").read_text().splitlines() if l.strip()]
        assert len(lines) == 24
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sample_documents"] == 24

    def test_sample_size_zero_is_usage_error(self, data_dir, tmp_path):
        code = run_cli(
            ["sample", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--size", 0, "--out", tmp_path / "x"]
        )
        assert code == 1

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        code = run_cli(["generate-synthetic", "--docs", 4, "--out", tmp_path / "f"])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_out_below_a_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
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
        assert (out / "sample.jsonl").read_text() == (data_dir / "corpus.jsonl").read_text()


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
        (tmp_path / "vocab.txt").write_text("a\nb\n")
        (tmp_path / "corpus.jsonl").write_text(
            "".join(json.dumps({"text": "!!! ?", "labels": ["ab"[i % 2]]}) + "\n" for i in range(12))
        )
        for mode in MODE_VARIANTS:
            out = tmp_path / mode
            code = run_cli(
                ["run", "--corpus", tmp_path / "corpus.jsonl", "--vocab", tmp_path / "vocab.txt", "--out", out,
                 "--mode", mode, "--run.k", 2, "--distill.epochs", 1]
            )
            assert code == 0
            assert len((out / "predictions.jsonl").read_text().splitlines()) == 1 + 12 * 2

    @pytest.mark.parametrize(
        "vocab, corpus, message",
        [
            ("a\nb\n", ['{"id": "x", "text": "t", "labels": []}', "", '{"id": "x", "text": "u", "labels": []}'],
             "line 2: duplicate document id 'x' (first on line 0)"),
            ("a\nb\n\n a\n", ['{"text": "t", "labels": ["a"]}'],
             "vocabulary line 3: duplicate label 'a' (first on line 0)"),
        ],
        ids=["document-id", "label"],
    )
    def test_duplicate_name_is_data_error_naming_it(self, tmp_path, capsys, vocab, corpus, message):
        (tmp_path / "vocab.txt").write_text(vocab)
        (tmp_path / "corpus.jsonl").write_text("\n".join(corpus) + "\n")
        code = run_cli(
            ["run", "--corpus", tmp_path / "corpus.jsonl", "--vocab", tmp_path / "vocab.txt",
             "--out", tmp_path / "o", *FAST]
        )
        assert code == 2
        assert message in capsys.readouterr().err

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
            lines = [*corpus.read_text().splitlines(), '{"id": %s, "text": "t", "labels": []}' % big]
            args = ["sample", "--size", 1] if reader == "sample_corpus" else ["run"]
            args += ["--corpus", path, "--vocab", vocab]
            expected = f"line {len(lines) - 1}: malformed record (Exceeds the limit"
        path.write_text("\n".join(lines) + "\n")
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
        manifest = json.loads((out / "manifest.json").read_text())
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
        a = read_report(out_seq / "metrics.json")
        b = read_report(out_base / "metrics.json")
        assert set(a) == set(b)
        assert set(a["labels"]) == set(b["labels"])

    def test_manifest_embeds_version_and_config(self, data_dir, tmp_path):
        out = tmp_path / "m"
        run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, *FAST]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"]["run.k"] == 3
        assert "wall_clock_seconds" in manifest and "peak_rss_kb" in manifest
        header = json.loads((out / "predictions.jsonl").read_text().splitlines()[0])
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
        got = read_report(eval_out / "metrics.json")
        expected = read_report(run_out / "metrics.json")
        got.pop("_meta"), expected.pop("_meta")
        assert got == expected

    def test_malformed_predictions_rejected_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "label": "x", "prob": 0.2, "true": 0, "fold": 0}\ngarbage\n')
        code = run_cli(["evaluate", "--predictions", bad, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_number_value_is_data_error_naming_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "label": "x", "prob": 0.2, "true": "yes", "fold": 0}\n')
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
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "sub" if below else tmp_path / "f"
        if command == "evaluate":
            inputs = ["--predictions", tmp_path / "pred.jsonl"]
        else:
            inputs = ["--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt"]
        code = run_cli([command, *inputs, "--out", out])
        assert code == 1
        reason = "Not a directory" if below else "File exists"
        assert f"usage error: --out {out}: cannot make a directory there ({reason})" in capsys.readouterr().err

    def test_failed_command_makes_no_out_directory(self, tmp_path):
        out = tmp_path / "new" / "out"
        assert run_cli(["evaluate", "--predictions", tmp_path / "missing.jsonl", "--out", out]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "role, message",
        [
            ("predictions_with_header", "line 2: not valid UTF-8 (byte 0xe9)"),
            ("predictions", "line 1: not valid UTF-8 (byte 0xe9)"),
            ("run_corpus", "line 48: not valid UTF-8 (byte 0xe9)"),
            ("sample_corpus", "line 48: not valid UTF-8 (byte 0xe9)"),
            ("vocab", "vocabulary line 1: not valid UTF-8 (byte 0xe9)"),
            ("config", "config line 1: not valid UTF-8 (byte 0xe9)"),
            ("replications", "line 2: not valid UTF-8 (byte 0xe9)"),
        ],
    )
    def test_non_utf8_bytes_are_data_error_naming_line(self, data_dir, tmp_path, capsys, role, message):
        corpus, vocab = data_dir / "corpus.jsonl", data_dir / "vocab.txt"
        path = tmp_path / "input"
        if role.startswith("predictions"):
            lines = [b'{"doc_id": "x", "label": "a", "prob": 0.5, "true": 1, "fold": 0}',
                     b'{"doc_id": "caf\xe9", "label": "a", "prob": 0.5, "true": 1, "fold": 0}']
            if role == "predictions_with_header":
                lines.insert(0, b'{"_meta": {"labels": ["a"]}}')
            args = ["evaluate", "--predictions", path]
        elif role.endswith("corpus"):
            lines = [*corpus.read_bytes().splitlines(), b'{"text": "caf\xe9", "labels": []}']
            args = ["sample", "--size", 1] if role == "sample_corpus" else ["run"]
            args += ["--corpus", path, "--vocab", vocab]
        elif role == "vocab":
            lines = [b"a", b"caf\xe9"]
            args = ["run", "--corpus", corpus, "--vocab", path]
        elif role == "config":
            lines = [b"run.k = 3", b"# caf\xe9"]
            args = ["run", "--corpus", corpus, "--vocab", vocab, "--config", path]
        else:
            lines = [b"A 0.82", b"A 0.83", b"caf\xe9 0.7"]
            args = ["stats", "--replications", path]
        path.write_bytes(b"\n".join(lines) + b"\n")
        code = run_cli([*args, "--out", tmp_path / "o"])
        assert code == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert f"data error: {message}" in capsys.readouterr().err


class TestTune:
    def test_tune_outputs_and_trace_monotone(self, data_dir, tmp_path):
        out = tmp_path / "tune"
        code = run_cli(
            ["tune", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 4, "--run.k", 2, "--run.feature_dim", 256,
             "--pso.n", 2, "--pso.max_iters", 2, "--pso.threshold", 0]
        )
        assert code == 0
        lines = (out / "trace.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["_meta"]["format"] == "mldistill-trace/1"
        records = [json.loads(l) for l in lines[1:]]
        scores = [r["gbest_score"] for r in records]
        assert scores == sorted(scores)
        assert all(set(r["gbest_config"]) == {
            "temperature", "alpha", "learning_rate", "batch_size", "epochs", "max_length"
        } for r in records)
        best = (out / "best_config.txt").read_text()
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
        space.write_text(json.dumps(dims))  # writes Infinity / -Infinity
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
    maps = Path("/proc/self/maps").read_text().splitlines()
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
            with open(log, "a") as fh:
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
            rows = [line.split() for line in log.read_text().splitlines()]
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

    def test_workers_above_folds_start_one_process_per_fold(self, data_dir, tmp_path, calls):
        code = run_cli(
            ["run", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", tmp_path / "o", "--workers", 8, *FAST, "--run.k", 2]
        )
        assert code == 0
        assert len(calls()["start"]) <= 2


class TestAblate:
    def test_four_rows_and_shared_folds(self, data_dir, tmp_path):
        out = tmp_path / "abl"
        code = run_cli(
            ["ablate", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
             "--out", out, "--seed", 6, *FAST]
        )
        assert code == 0
        lines = [l for l in (out / "ablation.tsv").read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0].split("\t") == ["approach", "f1", "micro_f1", "macro_f1", "weighted_f1"]
        rows = lines[1:]
        assert len(rows) == 4
        variants = [r.split("\t")[0] for r in rows]
        assert set(variants) == {
            "binary_relevance_kd", "binary_relevance_kd_contrastive",
            "sequential_kd_contrastive", "sequential_kd",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(set(manifest["row_fold_hashes"])) == 1
        assert manifest["row_fold_hashes"][0] == manifest["fold_hash"]

    def test_ablate_workers_byte_identical(self, data_dir, tmp_path):
        tables = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            code = run_cli(
                ["ablate", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.txt",
                 "--out", out, "--seed", 6, "--workers", workers, *FAST]
            )
            assert code == 0
            tables.append((out / "ablation.tsv").read_bytes())
        assert tables[0] == tables[1]


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
        for line in (out / "ablation.tsv").read_text().splitlines():
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
        reps.write_text("A 0.82\nA 0.83\nA 0.81\nB 0.70\nB 0.71\nB 0.72\n")
        out = tmp_path / "stats"
        code = run_cli(["stats", "--replications", reps, "--out", out])
        assert code == 0
        text = (out / "stats.txt").read_text()
        assert "[descriptive]" in text and "[anova]" in text

    def test_zero_variance_groups(self, tmp_path):
        reps = tmp_path / "reps.txt"
        reps.write_text("A 0.0\nA 0.0\nB 1.0\nB 1.0\n")
        out = tmp_path / "stats"
        code = run_cli(["stats", "--replications", reps, "--out", out])
        assert code == 0
        assert "eta_squared\t1.000000" in (out / "stats.txt").read_text()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_data_error(self, tmp_path, capsys, score):
        reps = tmp_path / "reps.txt"
        reps.write_text(f"A 0.82\nA 0.83\nB {score}\nB 0.71\n")
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
        path.write_text("run.k = 7\ndistill.alpha = 0.3\n# comment\n")
        config = resolve_config(parse_config_file(path), {"distill.alpha": "0.9"})
        assert config.k == 7
        assert config.distill.alpha == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.bogus = 1\n")
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

    def test_bool_key_parses_yes(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pso.relative_threshold = yes\n")
        assert resolve_config(parse_config_file(path)).resolved["pso.relative_threshold"] is True

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
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_bad_preset_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(overrides={"run.preset": "grid_search"})

    def test_unknown_flag_is_usage_error(self, data_dir, tmp_path):
        code = run_cli(["run", "--corpus", "x", "--vocab", "y", "--out", tmp_path, "--bogus"])
        assert code == 1
