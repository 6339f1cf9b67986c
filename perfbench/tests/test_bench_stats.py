"""Percentile and sample-count reporting."""

import harness


def test_summarize_reports_median_and_count_only_for_few_samples():
    s = harness.summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0}


def test_summarize_picks_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    s = harness.summarize(samples)
    assert s["n"] == 100 and s["median"] == 50.5
    assert "p99" not in s and "p95" not in s
    assert s["p90"] == 90.0  # ten samples (91..100) lie beyond it
    s = harness.summarize([float(i) for i in range(1, 1001)])
    assert s["p99"] == 990.0 and "p90" not in s


def test_summarize_empty():
    assert harness.summarize([]) == {"n": 0, "median": None}
