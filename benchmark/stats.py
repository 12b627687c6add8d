"""Order statistics used by the benchmark's reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (``tail_percentile``), together with
the sample count, so a tail figure is never read off a handful of points.

Run as a script, it prints the run-to-run spread of every metric over
saved outputs of ``run.py`` (one run per file), the figure each metric's
bound in BENCHMARK.json is set against:

    python3 benchmark/stats.py out-1.txt out-2.txt ...
"""

import json
import statistics
import sys

# Percentiles a tail figure may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile by linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count):
    """The highest percentile of LADDER with at least MIN_BEYOND of
    ``count`` samples beyond it, or None when not even the median has."""
    best = None
    for p in LADDER:
        # Integer arithmetic: samples strictly beyond the p-th percentile.
        beyond = count * (100_000 - round(p * 1000)) // 100_000
        if beyond >= MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value, count) of the reportable tail of a sample."""
    p = tail_percentile(len(values))
    if p is None:
        return None, None, len(values)
    return p, percentile(values, p), len(values)


def quartiles(values):
    """First quartile, median and third quartile, as Python's
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread the benchmark's bounds are set against."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.append(json.loads(f.read().strip().splitlines()[-1]))
    print(f"{len(runs)} runs, correct: {sum(r['correct'] for r in runs)}")
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        print(f"{name:32s} median {q2:<12.6g} quartiles {q1:.6g} .. {q3:.6g}"
              f"  spread {relative_spread(values):.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
