"""The A/B pairing of ``scripts/ab_pairs.py``, with its benchmark runs stubbed."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_balanced_run_order_and_side_means(tmp_path, monkeypatch):
    ab_pairs = load_ab_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {}
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        sides[tree.resolve()] = side
    runs = []

    def stub_run(tree, workload, seed, seconds):
        """Run n (from 1) reads 2 ** n on every metric and fails once."""
        runs.append((seed, sides[tree]))
        value = 2.0 ** len(runs)
        result = {metric["name"]: value for metric in end_to_end}
        result.update(correct=False, attempted=2, failed=1, failures=[f"FAILED: run {len(runs)}"])
        return result, {"source_digest": sides[tree]}

    monkeypatch.setattr(ab_pairs, "bench_run", stub_run)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seeds", "4-5", "--out", str(out)]
    assert ab_pairs.main(argv) == 0

    assert runs == [
        (4, "parent"), (4, "change"), (4, "change"), (4, "parent"),
        (5, "change"), (5, "parent"), (5, "parent"), (5, "change"),
    ]
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    even, odd = entry["pairs"]
    assert even["order"] == ["parent", "change", "change", "parent"]
    assert odd["order"] == ["change", "parent", "parent", "change"]
    assert [(run["side"], run["wall_s"]) for run in even["runs"] + odd["runs"]] == [
        (side, 2.0 ** n) for n, (_, side) in enumerate(runs, start=1)
    ]
    # seed 4: the parent ran 1st and 4th, the change 2nd and 3rd; seed 5 the reverse
    for pair, parent, change in ((even, (2 + 16) / 2, (4 + 8) / 2), (odd, (64 + 128) / 2, (32 + 256) / 2)):
        for metric in end_to_end:
            assert (pair["parent"][metric["name"]], pair["change"][metric["name"]]) == (parent, change)
        for side in ("parent", "change"):
            assert pair[side]["attempted"] == 4 and pair[side]["failed"] == 2 and pair[side]["correct"] is False
            assert len(pair[side]["failures"]) == 2
    assert entry["attempted_commands"] == {"parent": 8, "change": 8}
    assert entry["summary"]["wall_s"]["parent"]["median"] == (9.0 + 96.0) / 2
    claim = entry["claim"]
    assert (claim["pairs"], claim["wins"], claim["losses"], claim["met"]) == (2, 1, 1, False)


def test_metric_resolved_unless_parent_spread_exceeds_bound(tmp_path, monkeypatch):
    """A metric whose parent quartile distance is wider than its bound times the
    parent median is unresolved, unless every change pair beats every parent pair."""
    ab_pairs = load_ab_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    wide = [1.0, 2.0, 3.0, 4.0]  # quartile distance 1.5 around a median of 2.5
    values = {  # per metric, each side's value at seeds 1 to 4
        "wall_s": {"parent": wide, "change": [1.5, 2.5, 3.5, 4.5]},  # wide, overlapping
        "setup_s": {"parent": wide, "change": [5.0, 6.0, 7.0, 8.0]},  # wide, every change pair worse
        "predictions_per_s": {"parent": wide, "change": [5.0, 6.0, 7.0, 8.0]},  # wide, every change pair better
        "peak_rss_mb": {"parent": [100.0, 101.0, 102.0, 103.0], "change": wide},  # narrow
        "example_f1": {"parent": [0.5] * 4, "change": [0.5] * 4},  # no spread
    }
    assert set(values) == {metric["name"] for metric in end_to_end}
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        trees[tree.resolve()] = side

    def stub_run(tree, workload, seed, seconds):
        side = trees[tree]
        result = {name: sides[side][seed - 1] for name, sides in values.items()}
        result.update(correct=True, attempted=1, failed=0, failures=[])
        return result, {"source_digest": side}

    monkeypatch.setattr(ab_pairs, "bench_run", stub_run)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seeds", "1-4", "--out", str(out)]
    assert ab_pairs.main(argv) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]["summary"]
    assert {name: summary[name]["resolved"] for name in values} == {
        "wall_s": False, "setup_s": False, "predictions_per_s": True, "peak_rss_mb": True, "example_f1": True,
    }
