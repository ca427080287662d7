"""tools/ab_bench.py's summary of interleaved runs, on synthetic run.json records."""

import importlib.util
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


@pytest.mark.parametrize("bad, problem", [
    (record(1.0, 1.0, correct=False), "correct is false"),
    (record(1.0, 1.0, failed=2), "2 operations failed"),
])
def test_a_run_that_is_not_correct_or_failed_operations_is_flagged(bad, problem):
    assert ab_bench.run_problems(record(1.0, 1.0)) == []
    assert problem in ab_bench.run_problems(bad)
