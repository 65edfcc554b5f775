"""The pure summary of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(failed=0, **metrics):
    return {"metrics": metrics or None, "failed": failed}


def test_summary_of_fixed_pairs():
    runs = {
        "parent": [run(wall_s=1.0, rate=1.0), run(wall_s=2.0, rate=2.0),
                   run(wall_s=3.0, rate=3.0), run(wall_s=4.0, rate=4.0),
                   run(failed=2, wall_s=9.0, rate=9.0)],
        "change": [run(wall_s=0.5, rate=0.5), run(wall_s=2.0, rate=2.0),
                   run(wall_s=3.5, rate=3.5), run(wall_s=3.0, rate=3.0),
                   run(failed=1)],
    }
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.24},
               {"name": "rate", "better": "higher", "bound": 0.1}]
    got = bench_pairs.summarize(runs, metrics)
    # the fifth pair has no change result: it counts as failed, not as a pair
    assert got["failed"] == {"parent": 2, "change": 1}
    assert got["failed_runs"] == {"parent": 0, "change": 1}
    wall, rate = got["metrics"]["wall_s"], got["metrics"]["rate"]
    assert wall["pairs"] == rate["pairs"] == 4 and wall["bound"] == 0.24
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 2, 3, 3.5
    assert wall["parent"] == pytest.approx({"median": 2.5, "q1": 1.75, "q3": 3.25})
    assert wall["change"] == pytest.approx({"median": 2.5, "q1": 1.625, "q3": 3.125})
    # lower wins pairs 1 and 4, higher wins pair 3; pair 2 ties
    assert (wall["wins"], wall["ties"]) == (2, 1)
    assert (rate["wins"], rate["ties"]) == (1, 1)
