"""Statistics helpers of the host-performance benchmark.

Pure functions over the raw samples hgbench writes, kept apart from run.py so
that test_stats.py can check them without building anything.
"""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (the
    rounding keeps 99.9 / 100 * 10000 at 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[rank(len(samples), p) - 1]


def beyond(n, p):
    """Number of samples strictly beyond the nearest-rank p-th percentile."""
    return n - rank(n, p)


def supports(n, p):
    """True when n samples leave at least MIN_BEYOND beyond percentile p."""
    return n > 0 and beyond(n, p) >= MIN_BEYOND


def tail_percentile(n, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile that n samples support, or None."""
    for p in sorted(candidates, reverse=True):
        if supports(n, p):
            return p
    return None


def capped_percentile(samples, p):
    """The reporting rule for a named tail: the p-th percentile when at
    least MIN_BEYOND samples lie beyond it, else the median. A metric thus
    reads one of two fixed percentiles, not one that moves with the sample
    count from run to run. Returns (value, percentile used)."""
    used = p if supports(len(samples), p) else 50
    return percentile(samples, used), used


def summarize(samples):
    """The reporting rule: median, the highest supported tail percentile and
    its value, and the sample count."""
    n = len(samples)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(samples, 50) if n else None,
        "tail_p": tail,
        "tail": percentile(samples, tail) if tail is not None else None,
    }


def lateness(due, sent):
    """How late each open-loop send was: sent - due, never negative."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def freshness(due, answer_time, answer_epoch):
    """Open-loop freshness of each batch, measured from its due time.

    Batch j (0-based, in submission order) is visible once a query is
    answered from a snapshot whose epoch is at least j + 1. Its freshness is
    the time of the first such answer minus the batch's due time, so a late
    generator or a queue backlog counts against it. A batch no answer ever
    covered gets None.
    """
    answers = sorted(zip(answer_time, answer_epoch))
    out = []
    k = 0
    covered = 0  # highest epoch seen in answers[:k]
    for j, d in enumerate(due):
        while covered < j + 1 and k < len(answers):
            covered = max(covered, answers[k][1])
            k += 1
        if covered >= j + 1:
            # answers[k - 1] is the first answer covering batch j.
            out.append(answers[k - 1][0] - d)
        else:
            out.append(None)
    return out


def self_times(spans):
    """Self time of each span name: the span's duration minus the part of
    its interval its child spans cover, summed over spans of that name.

    `spans` is a list of dicts with name, start_us, end_us and parent (the
    index of the parent span, -1 for a root). Returns {name: microseconds}.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        lo, hi = s["start_us"], s["end_us"]
        covered = 0.0
        cursor = lo
        kids = sorted(
            (max(lo, spans[c]["start_us"]), min(hi, spans[c]["end_us"]))
            for c in children.get(i, []))
        for a, b in kids:
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"]] = out.get(s["name"], 0.0) + (hi - lo) - covered
    return out


def node_skew(events, phases=("consume", "update", "drain")):
    """Barrier waiting from an engine trace: for every (superstep, phase),
    the slowest node's span over the mean node span, weighted by that mean
    (sum of maxima / sum of means). 1.0 means perfectly even nodes."""
    groups = {}
    for e in events:
        if e.get("ph") != "X" or e.get("pid", 0) == 0:
            continue
        if e.get("name") not in phases:
            continue
        key = (e["args"]["superstep"], e["name"])
        groups.setdefault(key, []).append(float(e["dur"]))
    total_max = sum(max(d) for d in groups.values())
    total_mean = sum(sum(d) / len(d) for d in groups.values())
    return total_max / total_mean if total_mean > 0 else 0.0
