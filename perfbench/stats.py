"""Statistics the benchmark reports, kept apart so they can be tested.

Every function takes plain lists and dicts from the driver's raw record.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, q=0.99):
    """The q-quantile, or the highest quantile below it that still has
    MIN_BEYOND samples ranked above it. Returns (value, percentile used)."""
    n = len(values)
    if n <= MIN_BEYOND:
        raise ValueError("need more than %d samples for a tail" % MIN_BEYOND)
    ordered = sorted(values)
    index = min(math.ceil(q * n) - 1, n - 1 - MIN_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n


def recall(answers, reference):
    """|answers & reference| / |reference| for one request."""
    if not reference:
        raise ValueError("recall against an empty reference")
    return len(set(answers) & set(reference)) / len(reference)


def mean_recall(rows):
    """Mean recall over TBQ rows ({"ids", "ref"}) whose reference answered."""
    values = [recall(r["ids"], r["ref"]) for r in rows if r["ref"]]
    if not values:
        raise ValueError("no TBQ request with a reference answer")
    return sum(values) / len(values)


def in_bound_share(latencies_ms, bound_ms):
    """Share of requests whose client-observed latency is within the bound."""
    if not latencies_ms:
        raise ValueError("no TBQ latencies")
    return sum(1 for ms in latencies_ms if ms <= bound_ms) / len(latencies_ms)


def self_time_ns(spans, index):
    """A span's duration minus the part of it its child spans cover."""
    start, end = spans[index]["start"], spans[index]["end"]
    children = sorted((s["start"], s["end"]) for s in spans
                      if s["parent"] == index)
    covered = 0
    cursor = start
    for child_start, child_end in children:
        child_start, child_end = max(child_start, cursor), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


def spread(values):
    """Interquartile range as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid
