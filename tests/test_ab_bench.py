"""tools/ab_bench.py's summary of interleaved runs, on synthetic run.json records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def record(wall_s, rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 2, "failed": failed, "errors": [],
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def test_summary_gives_quartiles_and_wins_in_each_metric_direction():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 4.0, 4.5]     # lower in pairs 1, 3 and 5; a tie in 4
    pairs = [(record(p, p), record(c, c)) for p, c in zip(parent, change)]
    wall, rate = ab_bench.summarize(pairs, END_TO_END)
    assert wall["name"] == "wall_s" and wall["unit"] == "s"
    assert wall["parent"] == (2.0, 3.0, 4.0)
    assert wall["change"] == (2.0, 2.5, 4.0)
    assert wall["wins"] == 3                 # lower is better; the tie counts for neither
    assert rate["wins"] == 1                 # higher is better: pair 2 only
    table = ab_bench.format_rows([wall, rate], len(pairs))
    assert "3/5" in table and "0.833" in table


def test_one_pair_is_its_own_quartiles():
    (wall, _) = ab_bench.summarize([(record(2.0, 1.0), record(1.0, 1.0))], END_TO_END)
    assert wall["parent"] == (2.0, 2.0, 2.0)
    assert wall["wins"] == 1


STEADY = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]   # Q3 - Q1 = 0.045


@pytest.mark.parametrize("change, verdict", [
    ([p - 0.1 for p in STEADY], "gain"),                    # 10/10 wins, gap 0.1 > 0.045
    ([p - 0.1 for p in STEADY[:9]] + [1.2], "gain"),        # 9/10 is enough
    ([p - 0.1 for p in STEADY[:8]] + [1.2, 1.2], "neutral"),  # 8/10 is not
    ([p - 0.03 for p in STEADY], "neutral"),                # 10/10 wins, gap 0.03 < 0.045
    ([p + 0.2 for p in STEADY], "neutral"),                 # 19 % slower: inside the 24 % bound
    ([p + 0.3 for p in STEADY], "worse"),                   # 29 % slower
])
def test_verdict_of_a_lower_is_better_metric_on_a_steady_parent(change, verdict):
    pairs = [(record(p, 1.0), record(c, 1.0)) for p, c in zip(STEADY, change)]
    wall, rate = ab_bench.summarize(pairs, END_TO_END)
    assert wall["verdict"] == verdict
    assert rate["verdict"] == "neutral"                    # every pair ties
    assert wall["verdict"] in ab_bench.format_rows([wall, rate], len(pairs))


def test_verdict_follows_a_higher_is_better_metric_and_a_wide_parent_is_unresolved():
    wide = [1.0, 2.0, 3.0, 4.0, 5.0]       # Q3 - Q1 = 2 of median 3, past both bounds
    pairs = [(record(p, p), record(p - 0.5, p + 0.5)) for p in STEADY]
    _, rate = ab_bench.summarize(pairs, END_TO_END)
    assert rate["verdict"] == "gain"       # higher rate in every pair, by 0.5 > 0.045
    pairs = [(record(p, p), record(p + 0.5, p - 0.2)) for p in wide]
    wall, rate = ab_bench.summarize(pairs, END_TO_END)
    assert wall["verdict"] == rate["verdict"] == "unresolved"   # 17 % and 7 %: inside
    pairs = [(record(p, p), record(p + 1.0, p - 0.5)) for p in wide]
    wall, rate = ab_bench.summarize(pairs, END_TO_END)
    assert wall["verdict"] == rate["verdict"] == "worse"        # 33 % and 17 %: worse first


@pytest.mark.parametrize("bad, problem", [
    (record(1.0, 1.0, correct=False), "correct is false"),
    (record(1.0, 1.0, failed=2), "2 operations failed"),
])
def test_a_run_that_is_not_correct_or_failed_operations_is_flagged(bad, problem):
    assert ab_bench.run_problems(record(1.0, 1.0)) == []
    assert problem in ab_bench.run_problems(bad)


def test_json_records_hold_the_summary_rows(tmp_path):
    pairs = [(record(p, 2.0), record(c, 1.0)) for p, c in [(1.0, 0.5), (2.0, 2.5), (3.0, 2.0)]]
    path = tmp_path / "bench.json"
    for seed in (3, 17):
        ab_bench.append_record(path, ab_bench.summary_record("spectrum", seed, ("abc", None),
                                                             pairs, END_TO_END))
    first, second = json.loads(path.read_text())
    rows = json.loads(json.dumps(ab_bench.summarize(pairs, END_TO_END)))
    assert first == {"workload": "spectrum", "seed": 3, "pairs": 3,
                     "heads": {"parent": "abc", "change": None}, "rows": rows}
    assert second["seed"] == 17 and second["rows"] == rows
    assert rows[0]["parent"] == [1.5, 2.0, 2.5] and rows[0]["wins"] == 2
    assert ab_bench.tree_head(tmp_path / "no such tree") is None
