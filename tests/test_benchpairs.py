"""`scripts/benchpairs.py`'s summary (wins, the GAIN and WORSE marks) and report header."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))
import benchpairs  # noqa: E402

SPEC = [{"name": "step_ms_mean", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.25}]


def _run(step_ms, samples_per_s=100.0):
    return {"failed": 0, "metrics": {"step_ms_mean": {"value": step_ms},
                                     "samples_per_s": {"value": samples_per_s}}}


def _pairs(old, new):
    return [(_run(a), _run(b)) for a, b in zip(old, new)]


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


@pytest.mark.parametrize("new,wins,gain", [
    ([x - 10 for x in PARENT], 10, True),                 # 10/10, median 10 below, IQR 4.5
    ([x - 10 for x in PARENT[:9]] + [200.0], 9, True),    # 9/10 still claims
    ([x - 10 for x in PARENT[:8]] + [200.0] * 2, 8, False),  # 8/10 does not
    ([x - 4 for x in PARENT], 10, False),                 # every pair, but within the IQR
    ([x + 10 for x in PARENT], 0, False),                 # better in no pair
    (PARENT, 0, False),                                   # ties count for neither side
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_move_past_the_parent_iqr(new, wins, gain):
    s = benchpairs.summarize(SPEC, _pairs(PARENT, new))["metrics"]["step_ms_mean"]
    assert (s["wins"], s["gain"], s["worse"]) == (wins, gain, False)


def test_gain_follows_the_better_direction_and_worse_the_bound():
    pairs = [(_run(100.0, a), _run(140.0, a + 20)) for a in PARENT]
    summary = benchpairs.summarize(SPEC, pairs)
    faster = summary["metrics"]["samples_per_s"]  # higher is better here
    assert (faster["wins"], faster["gain"], faster["worse"]) == (10, True, False)
    slower = summary["metrics"]["step_ms_mean"]  # +40% against a 25% bound
    assert (slower["wins"], slower["gain"], slower["worse"]) == (0, False, True)
    assert summary["pairs"] == 10 and summary["failed"] == [0, 0]


def test_main_prints_both_sides_src_line_counts(monkeypatch, capsys):
    monkeypatch.setattr(benchpairs, "export", lambda repo, rev, dest: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "")

    def run_once(tree, workload, seed):
        return dict(_run(100.0), env={"src_lines": 3624 if tree == benchpairs.REPO else 3637})

    monkeypatch.setattr(benchpairs, "run_once", run_once)
    assert benchpairs.main(["HEAD~1", "--workload", "infer-toy", "--pairs", "2"]) == 0
    assert "src/ lines: 3637 (HEAD~1), 3624 (checkout)" in capsys.readouterr().out
