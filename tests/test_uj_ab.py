"""tools/uj_ab.py, the A/B runner of perfbench/run.py on two trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def uj_ab():
    spec = importlib.util.spec_from_file_location("uj_ab", ROOT / "tools" / "uj_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_on_two_copies_of_one_tree(uj_ab, tmp_path):
    out = tmp_path / "ab.json"
    assert uj_ab.main(["--parent", str(ROOT), "--change", str(ROOT), "--smoke", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == record["change"] == f"directory {ROOT}"
    pair = record["runs"]["smoke"]["0"]["1"]
    assert pair == {"parent": {"ran_first": True, "smoke": "ok", "problems": []},
                    "change": {"ran_first": False, "smoke": "ok", "problems": []}}
    assert record["summary"] == {"smoke": {"0": {}}}
    assert record["uj_digest"] is None


def test_the_first_side_alternates_from_pair_to_pair_across_cells(uj_ab, monkeypatch):
    order = []
    monkeypatch.setattr(uj_ab, "run_once", lambda tree, argv: order.append((tree, *argv)) or {})
    trees = {"parent": "p", "change": "c"}
    runs = uj_ab.run_pairs(trees, [("oracle", 1), ("cli", 11)], 3, lambda w, s: [w, str(s)])
    assert [tree for tree, *_ in order] == ["p", "c", "c", "p", "p", "c", "c", "p", "p", "c", "c", "p"]
    assert order[6:8] == [("c", "cli", "11"), ("p", "cli", "11")]
    assert [runs["oracle"]["1"][str(k)]["parent"]["ran_first"] for k in (1, 2, 3)] == [True, False, True]
    assert [runs["cli"]["11"][str(k)]["parent"]["ran_first"] for k in (1, 2, 3)] == [False, True, False]


def test_summary_reads_each_metric_in_its_direction(uj_ab):
    def run(ops, p50):
        return {"metrics": {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}}

    parent = [(100.0, 2.0), (101.0, 2.1), (102.0, 2.2), (103.0, 2.3)]
    change = [(110.0, 2.1), (111.0, 2.2), (99.0, 2.3), (112.0, 2.4)]
    runs = {"oracle": {"1": {str(k): {"parent": run(*p), "change": run(*c)}
                             for k, (p, c) in enumerate(zip(parent, change), 1)}}}
    summary = uj_ab.summarize(runs, {"ops_per_s": "higher", "op_p50_ms": "lower"})["oracle"]["1"]
    ops, p50 = summary["ops_per_s"], summary["op_p50_ms"]
    assert (ops["parent_q1"], ops["parent_median"], ops["parent_q3"]) == (100.75, 101.5, 102.25)
    assert ops["change_median"] == 110.5
    assert ops["pairs_change_better"] == "3/4"
    assert ops["median_gap_exceeds_parent_iqr"] is True
    assert p50["pairs_change_better"] == "0/4"
    assert p50["change_median"] - p50["parent_median"] == pytest.approx(0.1)
    assert p50["median_gap_exceeds_parent_iqr"] is False


def test_the_digest_comparison_names_the_lines_that_moved(uj_ab):
    parent = [f"{'a' * 64}  101 jm-oracle-0", *(f"{'b' * 64}  line {k}" for k in range(8))]
    change = [f"{'c' * 64}  101 jm-oracle-0", *parent[1:-1], f"{'d' * 64}  line 7"]
    result = uj_ab.compare_digests(parent, change)
    assert result == {"parent": parent[-8:], "change": change[-8:], "moved": ["101 jm-oracle-0", "line 7"]}
