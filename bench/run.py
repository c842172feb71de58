"""The cyclodiff benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload agree --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # the four in turn
    python3 bench/run.py --workload elim6 --trace 1
    python3 bench/run.py --compare parent.jsonl change.jsonl

Every repetition of a workload runs in a fresh interpreter with cold
caches, because every CLI invocation pays those costs.  With --trace 0
the run first times the import of cyclodiff in fresh interpreters
(setup_s), then repeats the workload until another repetition would end
after --seconds (at least once), checks every answer against
bench/reference.json and prints the medians of the end-to-end metrics.
With --trace 1 it runs the workload once untraced and once with the span
recorder installed, and prints the per-layer metrics; --seconds does not
apply.  The workload and metric names, units and bounds are read from
BENCHMARK.json.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics.  --out FILE appends each result, with its provenance and every
repetition's values, as one JSON line; --compare reads two such files.

Tails, digests and the comparison rule are in stats.py, the span
recorder in spans.py, the workloads in workloads.py, the seed-commit
answers in reference.json, and the map from each per-layer metric to the
end-to-end metrics and workloads it should (and should not) move in
predictions.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
DEADLINE_S = 170.0            # every run ends well inside 180 s
SCAN_WORKERS = workloads.FULL["scan_even"]["workers"]
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_PAIRS = 10                # --compare decides nothing on fewer pairs

# workload and metric names, units, directions and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
VERIFY = ["verify_gauss_conjugate_norm", "verify_gauss_opposite_product",
          "verify_jacobi_quotient", "verify_jacobi_duplication",
          "verify_row_sums", "verify_class_difference_counts",
          "verify_class_difference_sums"]


class CheckoutError(Exception):
    """The directory is not a cyclodiff checkout the benchmark can run."""


# -- provenance --------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cyclodiff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "seed": seed, "workload": workload,
        "inputs": workloads.FULL[workload], "env": PINNED_ENV,
    }


# -- child processes -------------------------------------------------------------


def _check_checkout() -> None:
    if not (ROOT / "src" / "cyclodiff" / "__init__.py").is_file():
        raise CheckoutError(f"no src/cyclodiff package under {ROOT}")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CYCLODIFF_LIMITS", None)        # the workloads use default limits
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Spawns children against one deadline and waits for each to end."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.env = _child_env()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    def _spawn(self, argv: list[str]) -> tuple[str, float]:
        timeout = self.remaining()
        if timeout <= 1:
            raise TimeoutError("no time left before the run's deadline")
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise TimeoutError(f"{argv[1:3]} ran past the deadline")
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} exited "
                               f"{proc.returncode}")
        return out, time.monotonic() - start

    def setup_probe(self) -> float:
        code = ("import time, cyclodiff, cyclodiff.cli; "
                "print(repr(time.monotonic()))")
        spawned = time.monotonic()
        out, _ = self._spawn([sys.executable, "-c", code])
        return float(out.strip().splitlines()[-1]) - spawned

    def rep(self, workload: str, seed: int, workers: int | None = None,
            spans: Path | None = None) -> dict:
        argv = [sys.executable, str(BENCH / "child.py"), "--workload",
                workload, "--seed", str(seed)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        out, elapsed = self._spawn(argv)
        result = json.loads(out.strip().splitlines()[-1])
        result["process_s"] = elapsed
        return result


# -- correctness gate ------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(workload: str, rep: dict | None, reference: dict) -> dict:
    """Gate one repetition: attempted and failed answers, the first
    difference, and whether the answer digest matches the reference."""
    expected = reference[workload]["items"]
    if rep is None:
        return {"attempted": len(expected), "failed": len(expected),
                "first": "the repetition did not finish", "digest_ok": False}
    attempted, failed, first = stats.gate(rep["answers"], expected)
    if rep["checks"]:
        failed, first = attempted, "; ".join(rep["checks"])
    dig = stats.digest(rep["answers"])
    return {"attempted": attempted, "failed": failed, "first": first,
            "digest_ok": dig == reference[workload]["digest"]}


# -- one workload ---------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(runner: Runner, workload: str, seed: int, seconds: int,
                 reference: dict) -> dict:
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reps, gates, errors = [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        try:
            rep = runner.rep(workload, seed)
        except (RuntimeError, TimeoutError, ValueError) as exc:
            errors.append(str(exc))
            gates.append(check(workload, None, reference))
            break
        reps.append(rep)
        gates.append(check(workload, rep, reference))
        longest = max(longest, rep["process_s"])
        if time.monotonic() - start + longest > seconds:
            break
    tails = [stats.tail(r["latencies"]) for r in reps]
    values = {
        "wall_s": [r["wall_s"] for r in reps],
        "item_tail_ms": [1000.0 * t[0] for t in tails],
        "setup_s": setups,
        "peak_rss_mb": [max(r["rss_self_mb"], r["rss_children_mb"])
                        for r in reps],
    }
    metrics = {name: _median(values[name]) for name in END_TO_END}
    notes = [f"repetitions {len(reps)}, setup probes {len(setups)}"]
    if tails:
        notes.append(f"item_tail_ms is p{tails[0][1]:.1f} of n={tails[0][2]} "
                     f"items per repetition")
    return {"metrics": metrics, "values": values, "gates": gates,
            "errors": errors, "notes": notes}


def _layer_metrics(traced: dict, base: dict, parallel: dict | None) -> dict:
    lay = traced["layers"]
    calls, own, total = lay["calls"], lay["self_s"], lay["total_s"]
    errors = {(n, e): c for n, e, c in lay["errors"]}
    runs = traced["stats"]
    reduced = sum(s.get("spairs_reduced", 0) for s in runs)
    discarded = sum(s.get("spairs_discarded", 0) for s in runs)
    wall = traced["wall_s"]
    unattributed = wall - lay["roots_s"]
    out = {
        "ff.fields_built": calls.get("ff.field_build", 0),
        "ff.field_build_s": own.get("ff.field_build", 0.0),
        "ff.field_build_ext_s": lay["ext_self_s"],
        "ff.codes_arith_calls": calls.get("ff.codes_arith", 0),
        "ff.codes_arith_s": own.get("ff.codes_arith", 0.0),
        "intpoly.cyclotomic_builds": lay["cyclotomic_builds"] or 0,
        "intpoly.cyclotomic_s": own.get("intpoly.cyclotomic", 0.0),
        "intpoly.squarefree_s": own.get("intpoly.squarefree", 0.0),
        "cyclotomic.reduction_rows_calls":
            calls.get("cyclotomic.reduction_rows", 0),
        "cyclotomic.reduction_rows_s":
            own.get("cyclotomic.reduction_rows", 0.0),
        "diffsets.cyclotomic_class_s":
            own.get("diffsets.cyclotomic_class", 0.0),
        "diffsets.check_direct_calls": calls.get("diffsets.check_direct", 0),
        "diffsets.check_direct_s": own.get("diffsets.check_direct", 0.0),
        "diffsets.check_charsum_s": own.get("diffsets.check_charsum", 0.0),
        "diffsets.check_jacobi_s": own.get("diffsets.check_jacobi", 0.0),
        "diffsets.check_gauss_s": own.get("diffsets.check_gauss", 0.0),
        "diffsets.check_gauss_skipped":
            errors.get(("diffsets.check_gauss", "BoundExceeded"), 0),
        # prime_powers is wrapped only to count the scan's tasks
        "diffsets.scan_self_s": own.get("diffsets.scan", 0.0)
            + own.get("diffsets.prime_powers", 0.0),
        "diffsets.scan_tasks": lay["counts"].get("diffsets.scan_tasks", 0),
        "diffsets.scan_traced_s": total.get("diffsets.scan", 0.0),
        "diffsets.scan_parallel_wall_s": parallel["wall_s"] if parallel else 0.0,
        "diffsets.scan_pool_eff":
            total.get("diffsets.scan", 0.0) / (SCAN_WORKERS * parallel["wall_s"])
            if parallel else 0.0,
        "polysys.gen_ghat_system_s": own.get("polysys.gen_ghat_system", 0.0),
        "groebner.buchberger_s": own.get("groebner.buchberger", 0.0),
        "groebner.staircase_s": own.get("groebner.staircase", 0.0),
        "groebner.minpoly_s": own.get("groebner.eliminate", 0.0),
        "groebner.spairs_reduced": reduced,
        "groebner.spairs_discarded": discarded,
        "groebner.max_coeff_bits":
            max((s.get("max_coeff_bits", 0) for s in runs), default=0),
        "groebner.generators": sum(s.get("generators", 0) for s in runs),
        "groebner.quotient_dim": lay["counts"].get("groebner.quotient_dim", 0),
        "groebner.pairs_reduced_frac":
            reduced / (reduced + discarded) if reduced + discarded else 0.0,
        "cli.self_s": own.get("cli.run", 0.0),
        "bench.traced_wall_s": wall,
        "bench.untraced_wall_s": base["wall_s"],
        "bench.unattributed_s": unattributed,
        "bench.unattributed_frac": unattributed / wall if wall else 0.0,
        "bench.trace_overhead_frac": (wall - base["wall_s"]) / base["wall_s"],
    }
    for v in VERIFY:
        out[f"charsums.{v}_s"] = own.get(f"charsums.{v}", 0.0)
    return out


def run_traced(runner: Runner, workload: str, seed: int,
               reference: dict) -> dict:
    """One untraced and one traced repetition of the same shape; the scan
    runs serially in both so every span lands in one process, plus one
    untraced repetition with its pool for the pool efficiency."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    serial = 1 if workload == "scan_even" else None
    gates, errors, done = [], [], {}
    plan = [("base", serial, None), ("traced", serial, spans)]
    if workload == "scan_even":
        plan.append(("parallel", None, None))
    for label, workers, span_path in plan:
        try:
            done[label] = runner.rep(workload, seed, workers, span_path)
            gates.append(check(workload, done[label], reference))
        except (RuntimeError, TimeoutError, ValueError) as exc:
            errors.append(f"{label}: {exc}")
            gates.append(check(workload, None, reference))
    metrics = {name: 0.0 for name in PER_LAYER}
    notes = []
    if "traced" in done and "base" in done:
        metrics.update(_layer_metrics(done["traced"], done["base"],
                                      done.get("parallel")))
        missing = done["traced"]["layers"]["missing"]
        if missing:
            notes.append(f"not found, so not traced: {', '.join(missing)}")
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
        notes.append(
            f"bench.trace_overhead_frac = (traced "
            f"{metrics['bench.traced_wall_s']:.4f} s - untraced "
            f"{metrics['bench.untraced_wall_s']:.4f} s) / untraced")
        if workload == "scan_even":
            notes.append(
                f"diffsets.scan_pool_eff = traced serial scan "
                f"{metrics['diffsets.scan_traced_s']:.4f} s / ({SCAN_WORKERS}"
                f" x untraced pooled wall "
                f"{metrics['diffsets.scan_parallel_wall_s']:.4f} s)")
    values = {name: [v] for name, v in metrics.items()}
    return {"metrics": metrics, "values": values, "gates": gates,
            "errors": errors, "notes": notes}


# -- reporting -------------------------------------------------------------------


def report(workload: str, seed: int, trace: int, outcome: dict,
           out_path: str | None) -> dict:
    gates = outcome["gates"]
    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    correct = (failed == 0 and not outcome["errors"]
               and all(g["digest_ok"] for g in gates))
    prov = provenance(workload, seed)
    print(f"== {workload} (seed {seed}, trace {trace})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    spec = PER_LAYER if trace else END_TO_END
    for name, value in outcome["metrics"].items():
        print(f"{name:36s} {value:.6g} {spec[name]['unit']}")
    print(f"{'failed_frac':36s} {failed / attempted if attempted else 1.0:.6g} "
          f"ratio ({failed} of {attempted} answers)")
    for note in outcome["notes"]:
        print("note: " + note)
    digests = "match" if all(g["digest_ok"] for g in gates) else "DIFFER"
    print(f"answer digests {digests} bench/reference.json "
          f"({len(gates)} repetitions)")
    first = next((g["first"] for g in gates if g["first"]), None)
    if first:
        print(f"first difference: {first}")
    for err in outcome["errors"]:
        print(f"error: {err}")
    if out_path:
        record = {"workload": workload, "seed": seed, "trace": trace,
                  "provenance": prov, "values": outcome["values"],
                  "metrics": outcome["metrics"], "correct": correct}
        with open(out_path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": spec[name]["unit"]}
                        for name, value in outcome["metrics"].items()}}


def compare_records(parent: list[dict], change: list[dict]) -> list[tuple]:
    """(workload, row, lines) per workload found in both result sets.

    Each (end-to-end metric, workload) pair is classified by
    stats.compare, pairing the two sets' results in order.  The row is
    the worst of the pair verdicts, ranked worse, unresolved, improved,
    within bound.  A pair is unresolved when the sets hold different
    numbers of results or fewer than MIN_PAIRS, and a workload with any
    change result that is not correct is worse, whatever its times.
    """
    def by_workload(records):
        runs: dict = {}
        for rec in records:
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    parents, changes = by_workload(parent), by_workload(change)
    rank = ["worse", "unresolved", "improved", "within bound"]
    rows = []
    for workload in [w for w in WORKLOADS if w in parents and w in changes]:
        p_runs, c_runs = parents[workload], changes[workload]
        cells = []
        wrong = sum(1 for r in c_runs if r.get("correct") is not True)
        if wrong:
            cells.append(("worse", f"{wrong} of {len(c_runs)} change results "
                                   f"not correct"))
        for name, m in END_TO_END.items():
            p_vals = [r["metrics"][name] for r in p_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            verdict, detail = stats.compare(p_vals, c_vals, m["better"],
                                            m["bound"])
            if len(p_vals) != len(c_vals) or len(p_vals) < MIN_PAIRS:
                verdict = "unresolved"
                detail += (f"; needs {MIN_PAIRS} or more results on each "
                           f"side, as many in both")
            cells.append((verdict, f"{name} {verdict}: {detail}"))
        row = min(cells, key=lambda c: rank.index(c[0]))[0]
        rows.append((workload, row, [text for _, text in cells]))
    return rows


def compare_files(parent_path: str, change_path: str) -> int:
    """Print one row per workload: improved, within bound, worse or
    unresolved, from two files written by --out."""
    def load(path):
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    for workload, row, lines in compare_records(load(parent_path),
                                                load(change_path)):
        print(f"{workload:11s} {row.upper()}")
        for text in lines:
            print(f"    {text}")
    return 0


def write_reference(runner: Runner, names: list[str]) -> int:
    """Record the answers of one seed-0 repetition per workload."""
    ref = load_reference() if REFERENCE.exists() else {}
    for workload in names:
        rep = runner.rep(workload, 0)
        if rep["checks"]:
            print(f"{workload}: {rep['checks']}", file=sys.stderr)
            return 1
        ref[workload] = {
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "digest": stats.digest(rep["answers"]),
            "items": {stats.canonical(k): v for k, v in rep["answers"]},
        }
    blocks = []
    for workload, entry in sorted(ref.items()):
        head = {k: v for k, v in entry.items() if k != "items"}
        items = ",\n".join(f"{json.dumps(k)}: {stats.canonical(v)}"
                           for k, v in sorted(entry["items"].items()))
        blocks.append(f'{json.dumps(workload)}: {json.dumps(head)[:-1]}, '
                      f'"items": {{\n{items}}}}}')
    with open(REFERENCE, "w") as fh:     # one answer a line, for diffs
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None,
                    help="append each result as a JSON line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--write-reference", action="store_true",
                    help="record the seed-0 answers in bench/reference.json")
    args = ap.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    try:
        _check_checkout()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.write_reference:
        return write_reference(Runner(), names)
    reference = load_reference()
    for workload in names:
        runner = Runner()           # each workload gets the whole deadline
        if args.trace:
            outcome = run_traced(runner, workload, args.seed, reference)
        else:
            outcome = run_untraced(runner, workload, args.seed, args.seconds,
                                   reference)
        result = report(workload, args.seed, args.trace, outcome, args.out)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
