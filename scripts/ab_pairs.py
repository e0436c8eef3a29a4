"""Alternating A/B pairs of benchmark runs, a parent checkout against a change.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B[,C,...] --out BENCH_N.json

Both directories are checkouts holding `src/`, `perfbench/` and
`BENCHMARK.json`.  The script byte-compiles both trees, then runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree per seed, T being the change's `run_seconds`.  The parent runs first on
the 1st, 3rd, ... pair and second on the others.

The workload's entry in `--out` records every pair, each side's median and
quartiles (inclusive method) of every end-to-end metric with the bound
`BENCHMARK.json` fixes for it, and the claim on `wall_s`: the change wins at
least nine tenths of the pairs, ties counting for neither, and the medians
differ by more than the parent's quartile distance.  Entries of other
workloads already in `--out` are kept.  The entry is rewritten after
every pair, so an interrupted run keeps the pairs it finished.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_METRIC = "wall_s"
WIN_SHARE = 0.9


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_run(tree, workload, seed, seconds):
    """One perfbench run in ``tree``: its result line plus its machine facts."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[len("machine "):])
    side = {name: m["value"] for name, m in result["metrics"].items()}
    side.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                failures=[line for line in lines if line.startswith("FAILED: ")])
    return side, machine


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(pairs, end_to_end):
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {}
        for side in ("parent", "change"):
            median, q1, q3 = spread([p[side][name] for p in pairs])
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        base, new = sides["parent"]["median"], sides["change"]["median"]
        worse = (new - base if lower else base - new) / base if base else 0.0
        summary[name] = {**sides, "better": metric["better"], "bound": metric["bound"],
                         "relative_worsening": worse, "within_bound": worse <= metric["bound"]}
    return summary


def claim(pairs, summary):
    diffs = [p["parent"][CLAIM_METRIC] - p["change"][CLAIM_METRIC] for p in pairs]
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    parent = summary[CLAIM_METRIC]["parent"]
    gap = parent["median"] - summary[CLAIM_METRIC]["change"]["median"]
    quartile_distance = parent["q3"] - parent["q1"]
    return {"metric": CLAIM_METRIC, "pairs": len(pairs), "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses, "median_gap": gap, "parent_quartile_distance": quartile_distance,
            "met": wins >= WIN_SHARE * len(pairs) and gap > quartile_distance}


def write_entry(out, workload, seconds, end_to_end, pairs, machines):
    """Write the workload's entry, from the pairs run so far, into ``out``."""
    summary = summarize(pairs, end_to_end)
    entry = {
        "command": f"perfbench/run.py --workload {workload} --seconds {seconds} --trace 0",
        "source_digest": {side: facts["source_digest"] for side, facts in machines.items()},
        "pairs": pairs,
        "failed_commands": {side: sum(p[side]["failed"] for p in pairs) for side in machines},
        "attempted_commands": {side: sum(p[side]["attempted"] for p in pairs) for side in machines},
        "summary": summary,
        "claim": claim(pairs, summary),
    }
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record["machine"] = {k: v for k, v in machines["change"].items() if k not in ("git_commit", "source_digest")}
    record.setdefault("workloads", {})[workload] = entry
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1761-1770,1746")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)

    pairs, machines = [], {}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], machines[side] = bench_run(trees[side], args.workload, seed, seconds)
        pair["example_f1_equal"] = pair["parent"]["example_f1"] == pair["change"]["example_f1"]
        pairs.append(pair)
        print(f"{args.workload} seed {seed} ({order[0]} first): {CLAIM_METRIC} "
              f"{pair['parent'][CLAIM_METRIC]:.3f} -> {pair['change'][CLAIM_METRIC]:.3f}", flush=True)
        entry = write_entry(args.out, args.workload, seconds, benchmark["end_to_end"], pairs, machines)
    print(json.dumps(entry["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
