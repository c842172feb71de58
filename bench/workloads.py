"""The four benchmark workloads.

Each workload is closed-loop: one caller, and the next item starts only
after the previous one returns.  The benchmark makes the inputs (prime
powers, instance lists, field order) from its seed; the program only
receives them.  A workload returns its wall time, from the first call
into cyclodiff to the last result, the latency of each item, and one
(key, value) answer per checked output.  Item latencies partition the
wall time, so field construction between items is charged to the item
that follows it.

Functions are looked up on their modules at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

# Inputs of the full-size workloads, recorded in every result.
FULL = {
    "scan_even": {"m_min": 10, "m_max": 22, "q_max": 20000, "workers": 2},
    "agree": {"q_max": 1200},
    "identities": {"q_max": 170},
    "elim6": {"m": 6, "thetas": [0, 1], "strategy": "quotient"},
}

# The hand-transcribed order-6 rows of the even-order tables, low degree
# first: x^2 - 4 for theta = 0 and 7x^2 - 1 for theta = 1.
F6_ROWS = {0: [-4, 0, 1], 1: [-1, 0, 7]}


def prime_powers(bound: int) -> list[tuple[int, int, int]]:
    """(p, e, q) for every prime power q <= bound, ascending in q."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            q, e = p, 1
            while q <= bound:
                out.append((p, e, q))
                q, e = q * p, e + 1
    return sorted(out, key=lambda t: t[2])


def feasible(q: int, m: int, modified: bool) -> bool:
    """k(k - 1) = lambda(q - 1) has an integer lambda: m | f + 1 for the
    modified class, m | f - 1 for the plain one (f = (q - 1)/m)."""
    f = (q - 1) // m
    return (f + 1 if modified else f - 1) % m == 0


def field_order(bound: int, seed: int) -> list[tuple[int, int, int]]:
    """Prime powers ascending for seed 0, shuffled by any other seed."""
    order = prime_powers(bound)
    if seed:
        random.Random(seed).shuffle(order)
    return order


class Result:
    """Timestamps items as they finish; see the module docstring."""

    def __init__(self):
        self.latencies: list[float] = []
        self.answers: list = []
        self.checks: list[str] = []      # workload-level failures
        self.stats: list[dict] = []
        self.start = self.last = time.perf_counter()
        self.wall = 0.0

    def item(self) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self.last)
        self.last = now
        self.wall = now - self.start


def agree(cd, seed: int, q_max: int) -> Result:
    """Criterion 2: the four routes on every feasible instance."""
    ds, ff = cd.diffsets, cd.ff
    plan = []
    for p, e, q in field_order(q_max, seed):
        plan.append(((p, e, q), [(m, mod) for m in range(2, q)
                                 if (q - 1) % m == 0
                                 for mod in (False, True)
                                 if feasible(q, m, mod)]))
    res = Result()
    for (p, e, q), instances in plan:
        field = ff.make_field(p, e)
        for m, mod in instances:
            try:
                cls = ds.cyclotomic_class(field, m, mod)
                verdicts = {
                    "direct": ds.check_direct(field, cls).verdict,
                    "charsum": ds.check_charsum(field, m, mod),
                    "jacobi": ds.check_jacobi(field, m, mod),
                }
                try:
                    verdicts["gauss"] = ds.check_gauss(field, m, mod)
                except cd.errors.BoundExceeded:
                    verdicts["gauss"] = "skipped"
                # the literal direct count is the oracle for the others
                direct = verdicts["direct"]
                if all(v in (direct, "skipped") for v in verdicts.values()):
                    value = [direct, verdicts["gauss"] == "skipped"]
                else:
                    value = ["disagree", verdicts]
            except Exception as exc:      # one failing item never stops the rest
                value = ["error", repr(exc)]
            res.item()
            res.answers.append([[q, m, mod], value])
    return res


def identities(cd, seed: int, q_max: int) -> Result:
    """Criterion 5: the identity suite for every m >= 2 dividing q - 1."""
    ff, cs = cd.ff, cd.charsums
    res = Result()
    for p, e, q in field_order(q_max, seed):
        field = ff.make_field(p, e)
        for m in range(2, q):
            if (q - 1) % m:
                continue
            try:
                suite = cs.verify_identity_suite(field, m)
                value = [len(suite), sorted(k for k, ok in suite.items()
                                            if not ok)]
            except Exception as exc:
                value = ["error", repr(exc)]
            res.item()
            res.answers.append([[q, m], value])
    return res


def scan_even(cd, seed: int, m_min: int, m_max: int, q_max: int,
              workers: int) -> Result:
    """Criterion 4 at a reduced bound, through the CLI; one item.  The
    scan's order is internal to the program, so the seed is unused."""
    argv = ["ds", "scan", "--m-min", str(m_min), "--m-max", str(m_max),
            "--even", "--q-max", str(q_max), "--workers", str(workers),
            "--all-rows"]
    buf = io.StringIO()
    res = Result()
    try:
        with contextlib.redirect_stdout(buf):
            code = cd.cli.run(argv)
    except Exception as exc:
        res.item()
        res.checks.append(f"ds scan raised {exc!r}")
        return res
    res.item()
    try:
        payload = json.loads(buf.getvalue())
    except ValueError as exc:
        res.checks.append(f"ds scan printed no JSON: {exc}")
        return res
    if code != 0:
        res.checks.append(f"ds scan exit code {code}, expected 0")
    if payload.get("nontrivial_hits") or payload.get("unexplained"):
        res.checks.append("ds scan reported nontrivial hits: "
                          f"{payload.get('nontrivial_hits')}")
    rows = payload.get("rows", [])
    if payload.get("instances") != len(rows):
        res.checks.append(f"instances {payload.get('instances')} != "
                          f"{len(rows)} rows")
    for row in rows:
        key = [row.get("q"), row.get("m"), row.get("modified")]
        rest = {k: v for k, v in row.items() if k not in ("q", "m", "modified")}
        res.answers.append([key, rest])
    return res


def elim6(cd, seed: int, m: int, thetas: list[int], strategy: str) -> Result:
    """compute_f_poly(m, theta) for each theta; the seed only permutes
    buchberger's tie-breaks."""
    gb = cd.groebner
    res = Result()
    for theta in thetas:
        stats: dict = {}
        try:
            poly = gb.compute_f_poly(m, theta, strategy=strategy, seed=seed,
                                     stats_sink=stats)
            value = [int(c) for c in poly.coeffs]
        except Exception as exc:
            value = ["error", repr(exc)]
        res.item()
        res.answers.append([[m, theta], value])
        res.stats.append(stats)
    if m == 6:
        # the answers are gated against F6_ROWS; the program's own copy of
        # the rows must say the same
        for theta, poly in cd.tables.f_table(6)[0]:
            if list(poly.coeffs) != F6_ROWS.get(theta):
                res.checks.append(f"tables.f_table(6) theta={theta} is "
                                  f"{list(poly.coeffs)}, expected "
                                  f"{F6_ROWS.get(theta)}")
    return res


RUNNERS = {"scan_even": scan_even, "agree": agree, "identities": identities,
           "elim6": elim6}
