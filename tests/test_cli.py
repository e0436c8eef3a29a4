"""CLI subcommands end to end on a tiny synthetic corpus."""

import ctypes
import json
import math
import os
import resource
import threading
from pathlib import Path

import pytest

from mldistill import parallel
from mldistill.cli import main
from mldistill.config import KEY_REGISTRY, PRESETS, parse_config_file, resolve_config
from mldistill.distill import MODE_VARIANTS
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

    def test_bad_preset_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(overrides={"run.preset": "grid_search"})

    def test_unknown_flag_is_usage_error(self, data_dir, tmp_path):
        code = run_cli(["run", "--corpus", "x", "--vocab", "y", "--out", tmp_path, "--bogus"])
        assert code == 1
