"""Outside-in span recorder for the traced run.  Stdlib only.

The recorder replaces each public function of the measured layers with
a wrapper that records a span (name, start, end, parent span) around the
call.  A function is replaced wherever the program looks it up: in its
own module, in every cyclodiff module that imported it by name, and on
its class for methods.  Spans stay in memory and are written as JSON
lines at the end.  A target that cannot be found is reported as missing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from stats import self_times

# (span name, module, attribute path).  The span name is the metric stem.
TARGETS = [
    ("ff.field_build", "cyclodiff.ff", "FiniteField.__init__"),
    ("ff.codes_arith", "cyclodiff.ff", "FiniteField.codes_sub"),
    ("ff.codes_arith", "cyclodiff.ff", "FiniteField.codes_add"),
    ("intpoly.cyclotomic", "cyclodiff.intpoly",
     "cyclotomic_polynomial_unbounded"),
    ("intpoly.squarefree", "cyclodiff.intpoly", "squarefree_part"),
    ("cyclotomic.reduction_rows", "cyclodiff.cyclotomic", "reduction_rows"),
    ("diffsets.cyclotomic_class", "cyclodiff.diffsets", "cyclotomic_class"),
    ("diffsets.check_direct", "cyclodiff.diffsets", "check_direct"),
    ("diffsets.check_charsum", "cyclodiff.diffsets", "check_charsum"),
    ("diffsets.check_jacobi", "cyclodiff.diffsets", "check_jacobi"),
    ("diffsets.check_gauss", "cyclodiff.diffsets", "check_gauss"),
    ("diffsets.scan", "cyclodiff.diffsets", "scan"),
    ("diffsets.prime_powers", "cyclodiff.diffsets", "prime_powers"),
    ("charsums.verify_identity_suite", "cyclodiff.charsums",
     "verify_identity_suite"),
] + [
    (f"charsums.{name}", "cyclodiff.charsums", name) for name in (
        "verify_gauss_conjugate_norm", "verify_gauss_opposite_product",
        "verify_jacobi_quotient", "verify_jacobi_duplication",
        "verify_row_sums", "verify_class_difference_counts",
        "verify_class_difference_sums")
] + [
    ("polysys.gen_ghat_system", "cyclodiff.polysys", "gen_ghat_system"),
    ("groebner.compute_f_poly", "cyclodiff.groebner", "compute_f_poly"),
    ("groebner.eliminate", "cyclodiff.groebner", "eliminate_to_univariate"),
    ("groebner.buchberger", "cyclodiff.groebner", "buchberger"),
    ("groebner.staircase", "cyclodiff.groebner", "staircase"),
    ("cli.run", "cyclodiff.cli", "run"),
]


class Recorder:
    """Spans of one thread, kept as [id, parent, name, start, end, tag, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self._patched: list[tuple] = []      # (owner, attribute, original)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        # two spans also count the length of their result
        counter = {"groebner.staircase": "groebner.quotient_dim",
                   "diffsets.prime_powers": "diffsets.scan_tasks"}.get(name)
        field_build = name == "ff.field_build"

        def wrapper(*args, **kwargs):
            tag = None
            # FiniteField(p, e, ...): tag the extension fields, e > 1
            if field_build and kwargs.get(
                    "e", args[2] if len(args) > 2 else 1) > 1:
                tag = "ext"
            rec = [len(spans), stack[-1] if stack else None, name, clock(),
                   None, tag, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = clock()
                rec[6] = type(exc).__name__
                stack.pop()
                raise
            rec[4] = clock()
            stack.pop()
            if counter is not None:
                counts[counter] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every loaded cyclodiff module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cyclodiff" or n.startswith("cyclodiff."))
                   and m is not None]
        for name, modname, path in targets:
            owner = sys.modules.get(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            self.originals[f"{modname}.{path}"] = original
            wrapper = self.wrap(name, original)
            if len(parts) > 1:      # a method: its class is the one lookup
                places = [(owner, parts[-1])]
            else:
                places = [(mod, attr) for mod in modules
                          for attr, value in vars(mod).items()
                          if value is original]
            for obj, attr in places:
                self._patched.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        """Put every replaced function back."""
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def as_dicts(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "tag", "error")
        return [dict(zip(keys, rec)) for rec in self.spans]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.as_dicts():
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans: list[dict]) -> dict:
    """Per span name: calls, self seconds and total seconds; plus the
    e > 1 field-build self time, error counts and the seconds covered by
    root spans."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    errors: Counter = Counter()
    ext_s = roots_s = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        self_s[s["name"]] += own[s["id"]]
        total_s[s["name"]] += dur
        if s["error"]:
            errors[(s["name"], s["error"])] += 1
        if s["tag"] == "ext":
            ext_s += own[s["id"]]
        if s["parent"] is None:
            roots_s += dur
    return {"calls": calls, "self_s": self_s, "total_s": total_s,
            "errors": errors, "ext_self_s": ext_s, "roots_s": roots_s}
