"""mldistill benchmark: the real CLI on seeded synthetic inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
One client drives a closed loop: each command runs in its own child
process and the next starts after the previous one exits.

--trace 0 runs the workload's command at least its `min_commands` times,
and again while the next command is expected to end within S seconds, and
reports the end-to-end metrics as medians.  --trace 1
runs it once untraced and once with the span tracer, and reports the
per-layer metrics of the traced command plus the tracing overhead.  Every
command's outputs are checked; the data files must also be byte-identical
to those of every earlier command of the same workload, seed and source.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, Trace, layer_metrics
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "predictions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "example_f1": "ratio",
}
BASELINE_NOTE = (
    "ROADMAP Baseline row sequential_kd at workers=1 reads 12.7 s (corpus seed 1); "
    "16.6 s was measured when this benchmark was specified; compare run-seq wall_s with both"
)


@dataclass
class Command:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    failures: list = field(default_factory=list)
    f1: float | None = None


class Bench:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = root / WORK_DIR / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = Inputs(workload, seed, self.dir / "input")
        self.out = self.dir / "out"
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.source = source_digest(root)
        self.runs = 0

    def spawn(self, cli_args, trace_file=None):
        """Run one child to completion; (wall, setup, peak RSS MB, exit code, stdout)."""
        self.runs += 1
        ready_file = self.dir / "ready"
        stdout_file = self.dir / "stdout"
        ready_file.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(ready_file), str(trace_file or "-"),
                f"{self.workload.name}/{self.seed}/{self.runs}", "--", *cli_args]
        with open(stdout_file, "wb") as out, open(self.dir / "stderr", "ab") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - started), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ready = float(ready_file.read_text()) if ready_file.exists() else ended
        stdout = stdout_file.read_text(encoding="utf-8", errors="replace")
        return ended - started, ready - started, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def probe(self):
        """Set-up time of one child that imports the program and exits."""
        return self.spawn([])[1]

    def command(self, trace_file=None):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cmd = Command(*self.spawn(self.inputs.cli_args(self.out.relative_to(self.root)), trace_file))
        cmd.failures, data_files, cmd.f1 = self.inputs.check(cmd.exit_code, cmd.stdout, self.out)
        cmd.failures += self._compare_bytes(data_files)
        if cmd.exit_code != 0:
            stderr = (self.dir / "stderr").read_text(encoding="utf-8", errors="replace").strip()
            cmd.failures.append("stderr: " + (stderr.splitlines() or [""])[-1])
        return cmd

    def _compare_bytes(self, data_files):
        """Compare data-file digests with the first command of the same
        source, workload and seed ever run in this checkout."""
        store = self.root / WORK_DIR / "digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        key = f"{self.source}/{self.workload.name}/{self.seed}"
        digests = {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest() for name in data_files}
        if not digests:
            return []
        if key not in known:
            known[key] = digests
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, store)
            return []
        return [f"{name} differs from an earlier run of this seed"
                for name, digest in digests.items() if known[key].get(name) != digest]


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(root):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_digest": source_digest(root),
    }


def end_to_end(bench, commands, setups):
    wall = statistics.median(c.wall_s for c in commands)
    f1s = [c.f1 for c in commands if c.f1 is not None]
    return {
        "wall_s": wall,
        "predictions_per_s": bench.inputs.predictions_per_command / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in commands),
        "example_f1": f1s[-1] if f1s else 0.0,
    }


def per_layer(commands, trace_file):
    untraced, traced = commands
    try:
        trace = Trace(trace_file)
    except (OSError, ValueError, KeyError) as exc:
        traced.failures.append(f"trace unreadable: {exc!r}")
        return dict.fromkeys(PER_LAYER, 0.0), []
    return layer_metrics(trace, traced.wall_s - untraced.wall_s), trace.missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "mldistill" / "cli.py").is_file():
        print(f"no mldistill source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import mldistill

    if not Path(mldistill.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"mldistill imported from {mldistill.__file__}, not from ./src", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    bench = Bench(root, workload, args.seed, deadline)
    bench.probe()  # compiles the bytecode, so no timed child pays for it
    trace_file = bench.dir / "spans.json"
    missing = []
    if args.trace:
        commands = [bench.command(), bench.command(trace_file)]
        metrics, missing = per_layer(commands, trace_file)
        units = PER_LAYER
    else:
        setups = [bench.probe() for _ in range(SETUP_PROBES)]
        commands = []
        started = time.monotonic()
        while True:
            commands.append(bench.command())
            elapsed = time.monotonic() - started
            if len(commands) >= workload.min_commands and elapsed + statistics.median(
                    c.wall_s for c in commands) > args.seconds:
                break
        metrics = end_to_end(bench, commands, setups + [c.setup_s for c in commands])
        units = END_TO_END

    failed = sum(1 for c in commands if c.failures)
    facts = machine_facts(root)
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "commands": [{"wall_s": c.wall_s, "setup_s": c.setup_s, "peak_rss_mb": c.peak_rss_mb,
                      "exit_code": c.exit_code, "failures": c.failures} for c in commands],
        "error_rate": failed / len(commands),
        "unmeasured": missing,
        "result": result,
    }
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for c in commands:
        for failure in c.failures:
            print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'error_rate':34s} {failed / len(commands):14.6f} ratio  ({failed} of {len(commands)} commands failed)")
    print(f"  samples: {len(commands)} command(s)" + ("" if args.trace else f", {SETUP_PROBES} set-up probes"))
    if missing:
        print("  not measured, name absent from the program: " + ", ".join(missing))
    if workload.name == "run-seq" and not args.trace:
        print(f"  note: {BASELINE_NOTE}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
