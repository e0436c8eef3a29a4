"""Command-line front door.

Subcommands: generate-synthetic, sample, run, tune, evaluate, ablate,
stats.  Every key of the config registry can be set in a config file or
overridden with a flag of the same dotted name.  Exit codes: 0 success,
1 usage error, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import resource
import sys
import time
from pathlib import Path

import mldistill
from mldistill import parallel
from mldistill.config import KEY_REGISTRY, RunConfig, parse_config_file, resolve_config
from mldistill.corpus import Corpus, load_corpus, save_corpus, save_vocab
from mldistill.errors import DataError, UsageError
from mldistill.experiment import (
    base_meta,
    render_ablation_table,
    render_best_config,
    render_trace,
    run_ablation,
    run_experiment,
    run_tuning,
    save_run_outputs,
    write_text_atomic,
)
from mldistill.hypertune import default_space, load_space, space_to_json
from mldistill.metrics import full_report, render_report
from mldistill.predictions import read_predictions
from mldistill.splits import stratified_sample
from mldistill.stats import interval_self_check, read_replications, render_stats_report
from mldistill.synthetic import generate_synthetic


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="run seed (overrides run.seed)")
    parser.add_argument("--workers", type=int, default=None, help="total concurrency cap (overrides run.workers)")
    parser.add_argument("--config", type=Path, default=None, help="flat key=value configuration file")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides (same names as config-file keys)")
    for key in KEY_REGISTRY:
        group.add_argument(f"--{key}", type=str, default=None, dest=key, metavar="VALUE")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mldistill", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mldistill {mldistill.__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("generate-synthetic", help="write a keyword-separable synthetic corpus")
    _add_common(p)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--labels", type=int, default=10)
    p.add_argument("--label-correlation", type=float, default=0.0)

    p = sub.add_parser("sample", help="stratified subset preserving label prevalence")
    _add_common(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("run", help="train the selected mode end to end and report metrics")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--mode", type=str, default=None, help="training mode (overrides run.mode)")
    p.add_argument("--preset", type=str, default=None, help="hyperparameter preset (overrides run.preset)")

    p = sub.add_parser("tune", help="particle-swarm search over the hyperparameter space")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--space", type=Path, default=None, help="space description file (default: built-in ranges)")
    p.add_argument("--mode", type=str, default=None)

    p = sub.add_parser("evaluate", help="metrics report for an existing predictions file")
    _add_common(p)
    p.add_argument("--predictions", type=Path, required=True)

    p = sub.add_parser("ablate", help="all four training variants on shared folds")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)

    p = sub.add_parser("stats", help="replication statistics report")
    _add_common(p)
    p.add_argument("--replications", type=Path, required=True)

    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    values = vars(args)
    for key in KEY_REGISTRY:
        if values.get(key) is not None:
            overrides[key] = values[key]
    if values.get("seed") is not None:
        overrides["run.seed"] = str(values["seed"])
    if values.get("workers") is not None:
        overrides["run.workers"] = str(values["workers"])
    if values.get("mode") is not None:
        overrides["run.mode"] = values["mode"]
    if values.get("preset") is not None:
        overrides["run.preset"] = values["preset"]
    return overrides


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    return resolve_config(file_values, _collect_overrides(args))


def _load_inputs(args: argparse.Namespace) -> Corpus:
    return load_corpus(args.corpus, args.vocab)


def _out_error(out: Path, code: int) -> UsageError:
    return UsageError(f"--out {out}: cannot make a directory there ({os.strerror(code)})")


def _check_out(out: Path) -> None:
    """Fail before any work if ``out`` names a file or lies below one; the
    directory itself is made only when the outputs are written."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise _out_error(out, errno.EEXIST if path == out else errno.ENOTDIR)
            return


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise _out_error(out, exc.errno) from exc
    return out


def _simple_manifest(command: str, seed: int, started: float, extra: dict) -> dict:
    return {
        "version": mldistill.__version__,
        "command": command,
        "seed": seed,
        "wall_clock_seconds": time.perf_counter() - started,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **extra,
    }


def _cmd_generate_synthetic(args: argparse.Namespace) -> int:
    if args.docs < 1:
        raise UsageError("--docs must be >= 1")
    if args.labels < 1:
        raise UsageError("--labels must be >= 1")
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    corpus = generate_synthetic(args.docs, num_labels=args.labels, seed=seed, label_correlation=args.label_correlation)
    out = _out_dir(args)
    save_corpus(corpus, out / "corpus.jsonl")
    save_vocab(corpus.vocab, out / "vocab.txt")
    manifest = _simple_manifest(
        "generate-synthetic",
        seed,
        started,
        {
            "documents": len(corpus),
            "labels": list(corpus.vocab.labels),
            "label_correlation": args.label_correlation,
            "prevalence": {name: float(p) for name, p in zip(corpus.vocab.labels, corpus.prevalence())},
        },
    )
    write_text_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} documents to {out / 'corpus.jsonl'}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.size < 1:
        raise UsageError("--size must be >= 1")
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    corpus = _load_inputs(args)
    if args.size > len(corpus):
        raise UsageError(f"--size {args.size} exceeds corpus size {len(corpus)}")
    sample = stratified_sample(corpus, args.size, seed)
    out = _out_dir(args)
    save_corpus(sample, out / "sample.jsonl")
    save_vocab(corpus.vocab, out / "vocab.txt")
    manifest = _simple_manifest(
        "sample",
        seed,
        started,
        {
            "source_documents": len(corpus),
            "sample_documents": len(sample),
            "source_prevalence": {n: float(p) for n, p in zip(corpus.vocab.labels, corpus.prevalence())},
            "sample_prevalence": {n: float(p) for n, p in zip(corpus.vocab.labels, sample.prevalence())},
        },
    )
    write_text_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(sample)} documents to {out / 'sample.jsonl'}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve(args)
    corpus = _load_inputs(args)
    result = run_experiment(corpus, config)
    paths = save_run_outputs(result, _out_dir(args), config)
    print(f"example_f1 {result.report.example_f1:.6f}  micro_f1 {result.report.micro_f1:.6f}")
    print(f"wrote {paths['predictions']}, {paths['metrics']}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _resolve(args)
    corpus = _load_inputs(args)
    space = load_space(args.space) if args.space else default_space()
    result = run_tuning(corpus, config, space)
    out = _out_dir(args)
    meta = base_meta(config)
    write_text_atomic(out / "space.json", space_to_json(space))
    write_text_atomic(out / "trace.jsonl", render_trace(result.trace, space, meta=meta))
    write_text_atomic(out / "best_config.txt", render_best_config(result, meta=meta))
    write_text_atomic(out / "manifest.json", json.dumps(result.manifest, indent=2, sort_keys=True) + "\n")
    print(f"best example_f1 {result.best_score:.6f} after {len(result.trace)} iterations")
    print(f"wrote {out / 'trace.jsonl'}, {out / 'best_config.txt'}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = read_predictions(args.predictions)
    report = full_report(predictions)
    out = _out_dir(args)
    meta = {"version": mldistill.__version__, "source": str(args.predictions)}
    write_text_atomic(out / "metrics.json", render_report(report, meta=meta))
    print(f"example_f1 {report.example_f1:.6f}")
    print(f"wrote {out / 'metrics.json'}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _resolve(args)
    corpus = _load_inputs(args)
    rows, manifest = run_ablation(corpus, config)
    out = _out_dir(args)
    write_text_atomic(out / "ablation.tsv", render_ablation_table(rows, meta=base_meta(config)))
    write_text_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for row in rows:
        print(f"{row.variant}\t{row.example_f1:.6f}")
    print(f"wrote {out / 'ablation.tsv'}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    interval_self_check()
    groups = read_replications(args.replications)
    out = _out_dir(args)
    meta = {"version": mldistill.__version__, "source": str(args.replications)}
    write_text_atomic(out / "stats.txt", render_stats_report(groups, meta=meta))
    print(f"wrote {out / 'stats.txt'}")
    return 0


_COMMANDS = {
    "generate-synthetic": _cmd_generate_synthetic,
    "sample": _cmd_sample,
    "run": _cmd_run,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        # Forked workers inherit the pin, so --workers N caps the whole concurrency.
        parallel.pin_blas_threads()
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
