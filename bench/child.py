"""One repetition of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src.  Prints
one JSON object: wall time, item latencies, answers, peak RSS and, when
traced, the per-layer totals.  Usage:

    python3 bench/child.py --workload agree --seed 0 [--workers N] \
        [--spans PATH]
"""

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import cyclodiff
    import cyclodiff.cli  # noqa: F401  (scan_even and the recorder use it)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cyclodiff.__file__).resolve().parents:
        print(f"cyclodiff imported from {cyclodiff.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import resource
    import workloads
    from spans import Recorder, layer_totals

    params = dict(workloads.FULL[args.workload])
    if args.workers is not None:
        params["workers"] = args.workers
    recorder = None
    if args.spans:
        recorder = Recorder()
        recorder.install()
    res = workloads.RUNNERS[args.workload](cyclodiff, args.seed, **params)

    kib = 1024.0
    out = {
        "wall_s": res.wall,
        "latencies": res.latencies,
        "answers": res.answers,
        "checks": res.checks,
        "stats": res.stats,
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "rss_children_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
    }
    if recorder is not None:
        recorder.write(args.spans)
        totals = layer_totals(recorder.as_dicts())
        cyc = recorder.originals.get(
            "cyclodiff.intpoly.cyclotomic_polynomial_unbounded")
        out["layers"] = {
            "calls": dict(totals["calls"]),
            "self_s": dict(totals["self_s"]),
            "total_s": dict(totals["total_s"]),
            "errors": [[n, e, c] for (n, e), c in totals["errors"].items()],
            "ext_self_s": totals["ext_self_s"],
            "roots_s": totals["roots_s"],
            "counts": dict(recorder.counts),
            "cyclotomic_builds":
                cyc.cache_info().misses if hasattr(cyc, "cache_info") else None,
            "missing": recorder.missing,
        }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
