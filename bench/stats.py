"""Pure helpers shared by the harness, the child process and the tests:
tail percentiles, quartile spreads, answer digests and the comparison rule.
Stdlib only."""

from __future__ import annotations

import hashlib
import json
import statistics

TAIL_BEYOND = 10          # items that must lie above the reported tail value


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least
    TAIL_BEYOND items beyond it.

    The value is the sorted item at index n - 11, so (n - 11)/n of the
    items lie below it and ten above: p98.4 for n = 690.  With ten items
    or fewer no such percentile exists and the slowest item is reported
    as p100.
    """
    n = len(latencies)
    if n == 0:
        raise ValueError("no items to take a tail of")
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * idx / n, n


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(answers: list) -> str:
    """Order-independent sha256 over (key, value) answer pairs."""
    lines = sorted(canonical(pair) for pair in answers)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def gate(answers: list, expected: dict) -> tuple[int, int, str | None]:
    """Compare (key, value) answers with {canonical key: value}.

    Returns (attempted, failed, first difference).  A key missing on
    either side, a repeated key or a different value is one failure;
    attempted is the size of the union of keys.
    """
    got: dict = {}
    repeated = set()
    for key, value in answers:
        ck = canonical(key)
        if ck in got:
            repeated.add(ck)
        got[ck] = value
    keys = sorted(set(got) | set(expected))
    failed, first = 0, None
    for ck in keys:
        if ck in repeated or ck not in got or ck not in expected \
                or canonical(got[ck]) != canonical(expected[ck]):
            failed += 1
            if first is None:
                first = (f"item {ck}: expected "
                         f"{canonical(expected.get(ck, '<absent>'))}, got "
                         f"{canonical(got.get(ck, '<absent>'))}"
                         + (" (repeated)" if ck in repeated else ""))
    return len(keys), failed, first


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Spans of one thread nest, so children of a span are disjoint and
    lie inside it; their durations add up to the time they cover.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, str]:
    """Classify one (metric, workload) pair by the paired-runs rule.

    In order: improved when the change wins at least nine tenths of the
    pairs (ties count for neither) and its median is better by more than
    the parent's quartile spread; unresolved when the parent's own spread
    is wider than bound x parent median, unless every change run reads
    better than every parent run; worse when the change's median is worse
    than the parent's by more than bound x parent median; otherwise
    within bound.  Values are quoted as median [first quartile, third
    quartile].
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (p_med - c_med)
    detail = (f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}] n={len(parent)}; "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] n={len(change)}; "
              f"change wins {wins}/{len(pairs)} pairs")
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", detail
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved", detail
    if -gain > bound * abs(p_med):
        return "worse", detail
    return "within bound", detail
