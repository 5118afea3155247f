"""Statistics the benchmark reports, kept apart from run.py so they can be
unit-tested (perfbench/test_stats.py)."""

import statistics

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def latency_tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile, sample count).

    Percentiles are nearest-rank: the k-th smallest of n samples is
    percentile 100 * k / n. Below 2 * TAIL_BEYOND samples no percentile
    leaves TAIL_BEYOND beyond it, and the upper median ((n - 1) // 2 samples
    beyond) is taken instead. Every run must print latency_ms_tail, and the
    batch workloads fit only 10-15 multi-second requests in a run; the
    maximum of so few spread 19% between runs.
    """
    n = len(values)
    beyond = TAIL_BEYOND if n >= 2 * TAIL_BEYOND else (n - 1) // 2
    rank = n - beyond  # 1-based; ranks rank+1..n lie beyond it
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def circuits_per_s(correct_circuits, window_s):
    """Correctly decoded circuits over the whole timed window. Wrong or
    faulted circuits do not count."""
    if window_s <= 0:
        raise ValueError("timed window must be positive")
    return correct_circuits / window_s


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
