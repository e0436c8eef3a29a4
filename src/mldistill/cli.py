"""Command-line front door.

Subcommands: generate-synthetic, sample, run, tune, evaluate, ablate,
stats.  Every key of the config registry can be set in a config file or
overridden with a flag of the same dotted name.  Exit codes: 0 success,
1 usage error, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import mldistill
from mldistill import parallel
from mldistill.config import KEY_REGISTRY, RunConfig, parse_config_file, resolve_config
from mldistill.corpus import Corpus, load_corpus, load_vocab, save_corpus, save_vocab
from mldistill.errors import DataError, UsageError
from mldistill.experiment import (
    base_meta,
    manifest,
    render_ablation_table,
    render_best_config,
    render_trace,
    run_ablation,
    run_experiment,
    run_outputs,
    run_tuning,
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


def _command(sub, name: str, summary: str, *, seed: bool = False, config: bool = False) -> _Parser:
    """A subcommand with ``--out``, plus the common flags it reads: ``--seed``,
    and where it resolves a config, ``--workers``, ``--config`` and a flag per key."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if seed or config:
        p.add_argument("--seed", type=int, default=None, help="seed (overrides run.seed where --config is taken)")
    if config:
        p.add_argument("--workers", type=int, default=None, help="total concurrency cap (overrides run.workers)")
        p.add_argument("--config", type=Path, default=None, help="flat key=value configuration file")
        group = p.add_argument_group("config overrides (same names as config-file keys)")
        for key in KEY_REGISTRY:
            group.add_argument(f"--{key}", type=str, default=None, dest=key, metavar="VALUE")
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="mldistill", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mldistill {mldistill.__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = _command(sub, "generate-synthetic", "write a keyword-separable synthetic corpus", seed=True)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--labels", type=int, default=10)
    p.add_argument("--label-correlation", type=float, default=0.0)

    p = _command(sub, "sample", "stratified subset preserving label prevalence", seed=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--size", type=int, required=True)

    p = _command(sub, "run", "train the selected mode end to end and report metrics", config=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--mode", type=str, default=None, help="training mode (overrides run.mode)")
    p.add_argument("--preset", type=str, default=None, help="hyperparameter preset (overrides run.preset)")

    p = _command(sub, "tune", "particle-swarm search over the hyperparameter space", config=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--space", type=Path, default=None, help="space description file (default: built-in ranges)")
    p.add_argument("--mode", type=str, default=None)

    p = _command(sub, "evaluate", "metrics report for an existing predictions file")
    p.add_argument("--predictions", type=Path, required=True)

    p = _command(sub, "ablate", "all four training variants on shared folds", config=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)

    p = _command(sub, "stats", "replication statistics report")
    p.add_argument("--replications", type=Path, required=True)

    return parser


# Flags that set a run.* key under a shorter name; they win over the key's own flag.
_SHORT_FLAGS = {"seed": "run.seed", "workers": "run.workers", "mode": "run.mode", "preset": "run.preset"}


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    values = vars(args)
    dests = [*((key, key) for key in KEY_REGISTRY), *_SHORT_FLAGS.items()]
    return {key: str(values[dest]) for dest, key in dests if values.get(dest) is not None}


def _read(flag: str, path: Path, reader, *args):
    """``reader(path, *args)``; an OSError or DataError from it becomes a DataError naming ``--flag path``."""
    try:
        return reader(path, *args)
    except OSError as exc:
        raise DataError(f"--{flag} {path}: cannot read it ({exc.strerror or exc})") from exc
    except DataError as exc:
        raise DataError(f"--{flag} {path}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = _read("config", args.config, parse_config_file) if args.config else None
    return resolve_config(file_values, _collect_overrides(args))


def _corpus(args: argparse.Namespace) -> Corpus:
    return _read("corpus", args.corpus, load_corpus, _read("vocab", args.vocab, load_vocab))


def _out_error(out: Path, name: str | None, reason: str) -> UsageError:
    target = "make a directory" if name is None else f"write {name}"
    return UsageError(f"--out {out}: cannot {target} there ({reason})")


def _check_out(out: Path, names: tuple[str, ...]) -> None:
    """Fail before any work if ``out`` names a file or lies below one, or if
    a directory stands where one of the output ``names`` goes; the
    directory itself is made only when the outputs are committed.  A path
    that cannot be probed (a name too long, say) fails the same way."""
    name = None
    try:
        for path in (out, *out.parents):
            if path.exists():
                if not path.is_dir():
                    raise _out_error(out, None, os.strerror(errno.EEXIST if path == out else errno.ENOTDIR))
                break
        for name in names:
            if (out / name).is_dir():
                raise _out_error(out, name, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _out_error(out, name, exc.strerror or str(exc)) from exc


def _commit(out: Path, files: dict) -> None:
    """Write each output file in ``out`` under a temporary name, then rename
    them all into place.  A file's content is a text, a manifest dict, or a
    writer called with the path.  On any failure, remove every file and
    directory this call made, so ``out`` gets all of the outputs or none."""
    new_dirs = [path for path in (out, *out.parents) if not path.exists()]
    temps: list[Path] = []
    renamed: list[Path] = []
    name = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            fd, path = tempfile.mkstemp(dir=out, prefix=name + ".", suffix=".tmp")
            os.close(fd)
            tmp = Path(path)
            temps.append(tmp)
            if isinstance(content, dict):
                content = json.dumps(content, indent=2, sort_keys=True) + "\n"
            if isinstance(content, str):
                tmp.write_text(content, encoding="utf-8")
            else:
                content(tmp)
        for tmp, name in zip(temps, files):
            os.replace(tmp, out / name)
            renamed.append(out / name)
    except BaseException as exc:
        for path in (*temps, *renamed):
            with contextlib.suppress(OSError):
                path.unlink()
        for path in new_dirs:
            with contextlib.suppress(OSError):
                path.rmdir()
        if isinstance(exc, OSError):
            raise _out_error(out, name, exc.strerror or str(exc)) from exc
        raise


Outputs = tuple[list, list[str]]  # see _COMMANDS


def _cmd_generate_synthetic(args: argparse.Namespace) -> Outputs:
    if args.docs < 1:
        raise UsageError("--docs must be >= 1")
    if args.labels < 1:
        raise UsageError("--labels must be >= 1")
    if not 0.0 <= args.label_correlation < 1.0:
        raise UsageError("--label-correlation must lie in [0, 1)")
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    corpus = generate_synthetic(args.docs, num_labels=args.labels, seed=seed, label_correlation=args.label_correlation)
    files = [
        partial(save_corpus, corpus),
        partial(save_vocab, corpus.vocab),
        manifest(
            "generate-synthetic",
            seed,
            started,
            documents=len(corpus),
            labels=list(corpus.vocab.labels),
            label_correlation=args.label_correlation,
            prevalence={name: float(p) for name, p in zip(corpus.vocab.labels, corpus.prevalence())},
        ),
    ]
    return files, [f"wrote {len(corpus)} documents to {args.out / 'corpus.jsonl'}"]


def _cmd_sample(args: argparse.Namespace) -> Outputs:
    if args.size < 1:
        raise UsageError("--size must be >= 1")
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    corpus = _corpus(args)
    if args.size > len(corpus):
        raise UsageError(f"--size {args.size} exceeds corpus size {len(corpus)}")
    sample = stratified_sample(corpus, args.size, seed)
    files = [
        partial(save_corpus, sample),
        partial(save_vocab, corpus.vocab),
        manifest(
            "sample",
            seed,
            started,
            source_documents=len(corpus),
            sample_documents=len(sample),
            source_prevalence={n: float(p) for n, p in zip(corpus.vocab.labels, corpus.prevalence())},
            sample_prevalence={n: float(p) for n, p in zip(corpus.vocab.labels, sample.prevalence())},
        ),
    ]
    return files, [f"wrote {len(sample)} documents to {args.out / 'sample.jsonl'}"]


def _cmd_run(args: argparse.Namespace) -> Outputs:
    config = _resolve(args)
    corpus = _corpus(args)
    result = run_experiment(corpus, config)
    return run_outputs(result, config), [
        f"example_f1 {result.report.example_f1:.6f}  micro_f1 {result.report.micro_f1:.6f}",
        f"wrote {args.out / 'predictions.jsonl'}, {args.out / 'metrics.json'}",
    ]


def _cmd_tune(args: argparse.Namespace) -> Outputs:
    config = _resolve(args)
    corpus = _corpus(args)
    space = _read("space", args.space, load_space) if args.space else default_space()
    result = run_tuning(corpus, config, space)
    meta = base_meta(config)
    files = [
        space_to_json(space),
        render_trace(result.trace, space, meta=meta),
        render_best_config(result, meta=meta),
        result.manifest,
    ]
    return files, [
        f"best example_f1 {result.best_score:.6f} after {len(result.trace)} iterations",
        f"wrote {args.out / 'trace.jsonl'}, {args.out / 'best_config.txt'}",
    ]


def _cmd_evaluate(args: argparse.Namespace) -> Outputs:
    predictions = _read("predictions", args.predictions, read_predictions)
    report = full_report(predictions)
    meta = {"version": mldistill.__version__, "source": str(args.predictions)}
    lines = [f"example_f1 {report.example_f1:.6f}", f"wrote {args.out / 'metrics.json'}"]
    return [render_report(report, meta=meta)], lines


def _cmd_ablate(args: argparse.Namespace) -> Outputs:
    config = _resolve(args)
    corpus = _corpus(args)
    rows, audit = run_ablation(corpus, config)
    lines = [*(f"{row.variant}\t{row.example_f1:.6f}" for row in rows), f"wrote {args.out / 'ablation.tsv'}"]
    return [render_ablation_table(rows, meta=base_meta(config)), audit], lines


def _cmd_stats(args: argparse.Namespace) -> Outputs:
    interval_self_check()
    groups = _read("replications", args.replications, read_replications)
    meta = {"version": mldistill.__version__, "source": str(args.replications)}
    return [render_stats_report(groups, meta=meta)], [f"wrote {args.out / 'stats.txt'}"]


# Each command and the files it writes in --out, which main checks first.
# A command returns the contents of these files, in this order, and the
# lines to print once main has committed them.
_COMMANDS = {
    "generate-synthetic": (_cmd_generate_synthetic, ("corpus.jsonl", "vocab.txt", "manifest.json")),
    "sample": (_cmd_sample, ("sample.jsonl", "vocab.txt", "manifest.json")),
    "run": (_cmd_run, ("predictions.jsonl", "metrics.json", "manifest.json")),
    "tune": (_cmd_tune, ("space.json", "trace.jsonl", "best_config.txt", "manifest.json")),
    "evaluate": (_cmd_evaluate, ("metrics.json",)),
    "ablate": (_cmd_ablate, ("ablation.tsv", "manifest.json")),
    "stats": (_cmd_stats, ("stats.txt",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command, outputs = _COMMANDS[args.command]
        _check_out(args.out, outputs)
        # Forked workers inherit the pin, so --workers N caps the whole concurrency.
        parallel.pin_blas_threads()
        contents, lines = command(args)
        _commit(args.out, dict(zip(outputs, contents, strict=True)))
        for line in lines:
            print(line)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
