"""Arithmetic of the benchmark: percentiles, span self time and the Chrome
trace-event export. Pure functions; tested by test_stats.py."""

import math


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.

    Same convention as serving::LatencyReservoir::percentile, so figures
    computed here and in the program agree: p <= 0 gives the minimum and an
    empty input gives 0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    return percentile(values, 50.0)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals` (pairs)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per-span self time: duration minus the part of it that the span's
    direct children cover. Overlapping children (several threads under one
    parent) count their union once. `spans` is a list of dicts with start_us,
    end_us and parent (index into the list, or -1)."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start_us"], s["end_us"]))
    out = []
    for s, kids in zip(spans, children):
        dur = s["end_us"] - s["start_us"]
        out.append(dur - covered_length(kids, s["start_us"], s["end_us"]))
    return out


def layer_table(spans):
    """Per span name: count, total, self and median duration (ms)."""
    selfs = self_times(spans)
    rows = {}
    for s, own in zip(spans, selfs):
        r = rows.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "durs": []})
        dur = (s["end_us"] - s["start_us"]) / 1e3
        r["count"] += 1
        r["total_ms"] += dur
        r["self_ms"] += own / 1e3
        r["durs"].append(dur)
    return {
        name: {"count": r["count"], "total_ms": r["total_ms"], "self_ms": r["self_ms"],
               "p50_ms": median(r["durs"])}
        for name, r in rows.items()
    }


def chrome_trace(spans, pid=1, tid=1):
    """Spans as Chrome trace-event JSON (complete "X" events), which Perfetto
    and chrome://tracing load. All spans come from one thread."""
    events = []
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"], "ph": "X", "pid": pid, "tid": tid,
            "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
            "args": {"id": i, "parent": s["parent"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
