"""Command-line front end.

Exit codes: 0 for success or a confirmed verdict, 2 for a mathematical
discrepancy (checker disagreement, unexplained nontrivial hit, residual
failure, fixture mismatch), 1 for usage and resource errors.  JSON is
the machine format; --format text renders the same data for reading.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import groebner as gb
from . import polysys as ps
from .charsums import character, gauss_sum, h_class_sum, jacobi_sum
from .config import check_limit_values, reload_limits
from .cyclotomic import embed
from .diffsets import (DSParams, ROUTES, VERDICT_DS, cyclotomic_class,
                       known_family_match, run_routes, scan)
from .errors import CyclodiffError, LimitExceeded, NotPrime
from .ff import make_field
from .intpoly import IntPoly, prime_factors
from .tables import f_table, nonexistence_gate, product_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split_prime_power(q: int) -> tuple:
    primes = prime_factors(q)
    if not primes:
        raise NotPrime(f"{q} is not a prime power")
    if len(primes) > 1:
        raise NotPrime("field order must be a prime power")
    p = primes[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def _field_from_q(q: int):
    p, e = _split_prime_power(q)
    return make_field(p, e)


def _limit_kwargs(args) -> dict:
    """Translate the --limits JSON into buchberger keyword overrides."""
    raw = getattr(args, "limits", None)
    if not raw:
        return {}
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CyclodiffError(f"--limits is not valid JSON: {exc}") from exc
    mapping = {"gb_max_spairs": "max_spairs",
               "gb_max_coeff_bits": "max_coeff_bits",
               "gb_timeout": "timeout"}
    if not isinstance(data, dict):
        raise CyclodiffError("--limits must be a JSON object")
    bad = sorted(set(data) - set(mapping))
    if bad:
        raise CyclodiffError(f"unknown limit keys: {', '.join(bad)}")
    check_limit_values(data)
    return {mapping[k]: v for k, v in data.items()}


# -- output ----------------------------------------------------------------------


def _text_lines(payload, indent=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                yield f"{indent}{key}:"
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}{key}: {value}"
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                yield from _text_lines(item, indent + "  ")
                yield ""
            else:
                yield f"{indent}- {item}"
    else:
        yield f"{indent}{payload}"


def _emit(args, payload, raw_text: str | None = None) -> None:
    if raw_text is not None:
        out = raw_text
    elif args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    else:
        out = "\n".join(_text_lines(payload)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- field -----------------------------------------------------------------------


def _cmd_field_info(args) -> int:
    field = make_field(args.p, args.e)
    payload = {"p": field.p, "e": field.e, "q": field.q,
               "modulus": list(field.modulus),
               "generator": field.generator.code}
    _emit(args, payload)
    return EXIT_OK


# -- sums ------------------------------------------------------------------------


def _cmd_sums(args) -> int:
    field = _field_from_q(args.q)
    chi = character(field, args.m)
    if args.kind == "gauss":
        result = gauss_sum(chi, args.s)
    elif args.kind == "class":
        result = h_class_sum(chi, args.s)
    else:
        if args.t is None:
            raise CyclodiffError("jacobi needs --t")
        result = jacobi_sum(chi, args.s, args.t)
    value = result.value
    payload = {"kind": args.kind, "q": args.q, "m": args.m, "s": args.s,
               "value": ps.cyc_json(value), "integer": value.as_integer()}
    if args.kind == "jacobi":
        payload["t"] = args.t
    if args.numeric:
        mid = embed(value).midpoint()
        payload["numeric"] = [mid.real, mid.imag]
    _emit(args, payload)
    return EXIT_OK


# -- ds --------------------------------------------------------------------------


def _cmd_ds_check(args) -> int:
    names = [w.strip() for w in args.methods.split(",") if w.strip()]
    if not names:
        raise CyclodiffError("--methods names no route")
    unknown = sorted(set(names) - set(ROUTES))
    if unknown:
        raise CyclodiffError(f"unknown methods: {', '.join(unknown)}")
    field = _field_from_q(args.q)
    params = DSParams.from_instance(args.q, args.m, args.modified)
    cls = cyclotomic_class(field, args.m, args.modified)
    verdicts = run_routes(field, cls, names)
    votes = {v for v in verdicts.values() if v != "skipped"}
    if len(votes) == 1:
        verdict = votes.pop()
    else:
        verdict = "disagreement" if votes else "undecided"
    family = known_family_match(args.q, args.m, args.modified)
    payload = {"q": args.q, "m": args.m, "modified": args.modified,
               "v": params.v, "k": params.k, "lambda": params.lam,
               "n": params.n, "verdict": verdict, "family": family,
               "methods": verdicts}
    code = EXIT_OK
    if verdict == "undecided":
        code = EXIT_USAGE   # as gb solve on a limit: no route decided
    elif verdict == "disagreement":
        code = EXIT_DISCREPANCY
    elif verdict == VERDICT_DS and not params.trivial and family is None:
        payload["family"] = "unexplained"
        code = EXIT_DISCREPANCY
    _emit(args, payload)
    return code


def _cmd_ds_scan(args) -> int:
    # an empty scan would read as a clean one with no hits
    if args.q_max < 2:
        raise CyclodiffError(f"no field to scan: --q-max {args.q_max} < 2")
    # ranges, never lists, so a bound like --m-max 10**15 costs nothing
    m_range = None
    if args.m is not None:
        m_range = range(args.m, args.m + 1)
    elif (args.m_min is not None or args.m_max is not None or args.odd
          or args.even):
        lo = args.m_min if args.m_min is not None else 1
        hi = args.m_max if args.m_max is not None else args.q_max - 1
        m_range = range(lo, hi + 1)
    if m_range is not None:
        # an order m divides some q - 1 only if 1 <= m <= q_max - 1
        lo, hi = m_range.start, m_range.stop - 1
        clipped = range(max(lo, 1), min(hi, args.q_max - 1) + 1)
        if args.odd or args.even:
            start = clipped.start
            clipped = range(start + (start % 2 != args.odd), clipped.stop, 2)
        m_range = clipped
        if not m_range:
            parity = "odd " if args.odd else "even " if args.even else ""
            raise CyclodiffError(
                f"no order to scan: no {parity}m from {lo} to {hi} "
                f"with 1 <= m <= {args.q_max - 1}")
    table = scan(m_range, args.q_max, modified_mode=args.modified_mode,
                 full_methods=args.full_methods, workers=args.workers)
    unexplained = table.unexplained()
    disagreements = [r for r in table.rows if "disagree" in r]
    payload = {"instances": len(table), "hits": len(table.hits()),
               "nontrivial_hits": table.nontrivial_hits(),
               "unexplained": unexplained, "disagreements": disagreements}
    if args.all_rows:
        payload["rows"] = table.rows
    _emit(args, payload)
    return EXIT_DISCREPANCY if unexplained or disagreements else EXIT_OK


# -- sys -------------------------------------------------------------------------


def _load_system(path: str) -> ps.PolySystem:
    with open(path) as fh:
        return ps.system_from_text(fh.read())


def _load_solution(path: str) -> ps.SolutionVector:
    with open(path) as fh:
        return ps.SolutionVector.from_json(fh.read())


def _cmd_sys_gen(args) -> int:
    if args.planar:
        system = ps.planar_system(args.m)
    elif args.level == "g":
        system = ps.gen_g_system(args.m)
    else:
        system = ps.gen_ghat_system(args.m, args.theta)
    _emit(args, None, raw_text=ps.system_to_text(system))
    return EXIT_OK


def _cmd_sys_parse(args) -> int:
    system = _load_system(args.system)
    _emit(args, None, raw_text=ps.system_to_text(system))
    return EXIT_OK


def _cmd_sys_verify(args) -> int:
    system = _load_system(args.system)
    solution = _load_solution(args.solution)
    mode = {"exact": "exact", "scaled": "scaled_exact",
            "numeric": "numeric"}[args.mode]
    res = ps.verify_solution(system, solution, mode=mode, tol=args.tol)
    payload = {"mode": res.mode, "ok": res.ok}
    if res.zeros is not None:
        payload["zeros"] = list(res.zeros)
    if res.bounds is not None:
        payload["max_bound"] = res.max_bound
        payload["tol"] = res.tol
    if res.membership is not None:
        payload["membership"] = res.membership
    _emit(args, payload)
    return EXIT_OK if res.ok else EXIT_DISCREPANCY


def _cmd_sys_explicit(args) -> int:
    sol = ps.explicit_solution(args.m)
    _emit(args, None, raw_text=sol.to_json(indent=2) + "\n")
    return EXIT_OK


def _cmd_sys_from_field(args) -> int:
    field = _field_from_q(args.q)
    sol = ps.gauss_solution(field, args.m, args.modified)
    _emit(args, None, raw_text=sol.to_json(indent=2) + "\n")
    return EXIT_OK


def _cmd_sys_bridge(args) -> int:
    sol = _load_solution(args.solution)
    if sol.m != args.m:
        raise CyclodiffError(f"solution has m={sol.m}, flag says {args.m}")
    if sol.level == "ghat":
        if sol.theta != args.theta:
            raise CyclodiffError(
                f"solution has theta={sol.theta}, flag says {args.theta}")
        out = ps.dft_bridge(sol)
    else:
        out = ps.dft_bridge_inverse(sol)
        if out.theta != args.theta:
            raise CyclodiffError(
                f"recovered theta={out.theta}, flag says {args.theta}")
    _emit(args, None, raw_text=out.to_json(indent=2) + "\n")
    return EXIT_OK


# -- gb --------------------------------------------------------------------------


def _coeff_line(m: int, theta: int, poly) -> str:
    return f"F {m} {theta} : {' '.join(str(c) for c in poly.coeffs)}"


def _cmd_gb_solve(args) -> int:
    kwargs = _limit_kwargs(args)
    stats: dict = {}
    try:
        poly = gb.compute_f_poly(args.m, args.theta, seed=args.seed,
                                 stats_sink=stats, **kwargs)
    except LimitExceeded as exc:
        payload = {"m": args.m, "theta": args.theta, "result": "undecided",
                   "reason": str(exc), "stats": exc.stats}
        _emit(args, payload)
        return EXIT_USAGE
    payload = {"m": args.m, "theta": args.theta,
               "coeffs": list(poly.coeffs), "stats": stats,
               "line": _coeff_line(args.m, args.theta, poly)}
    if args.format == "text":
        text = payload["line"] + "\n" + json.dumps(stats) + "\n"
        _emit(args, None, raw_text=text)
    else:
        _emit(args, payload)
    return EXIT_OK


def _cmd_gb_table(args) -> int:
    limit_kw = _limit_kwargs(args)    # checked even with --fixtures-only
    rows, combined = f_table(args.m)
    checks = {"product": product_check(args.m),
              "gate": nonexistence_gate(args.m)}
    entries = []
    mismatch = False
    for theta, fixture in rows:
        entry = {"theta": theta, "fixture": list(fixture.coeffs)}
        if not args.fixtures_only:
            try:
                poly = gb.compute_f_poly(args.m, theta, seed=args.seed,
                                         **limit_kw)
                entry["computed"] = list(poly.coeffs)
                entry["status"] = "match" if poly == fixture else "MISMATCH"
            except LimitExceeded as exc:
                entry.update(status="undecided", reason=str(exc),
                             stats=exc.stats)
        mismatch = mismatch or entry.get("status") == "MISMATCH"
        entries.append(entry)
    gate_ok = (checks["gate"]["gate_holds"]
               and checks["gate"]["value_at_half"] == 0
               and checks["gate"]["special_matches_prime_power"]
               and checks["gate"]["has_zero_root"]
               == checks["gate"]["zero_root_expected"])
    checks["gate"]["value_at_half"] = int(checks["gate"]["value_at_half"])
    payload = {"m": args.m, "rows": entries,
               "combined": list(combined.coeffs), "checks": checks}
    if args.format == "text":
        lines = [f"m = {args.m}"]
        for entry in entries:
            fx = IntPoly(entry["fixture"])
            status = entry.get("status", "fixture")
            if "reason" in entry:
                status += f": {entry['reason']}"
            lines.append(f"  theta {entry['theta']:>2}  {fx}  [{status}]")
        lines.append(f"  combined  {combined}")
        lines.append(f"  checks    product_ok="
                     f"{checks['product']['combined_divides_product']} "
                     f"gate_ok={gate_ok}")
        _emit(args, None, raw_text="\n".join(lines) + "\n")
    else:
        _emit(args, payload)
    return EXIT_DISCREPANCY if (mismatch or not gate_ok) else EXIT_OK


def _cmd_gb_probe_zero(args) -> int:
    payload = {"m": args.m, "theta": args.theta}
    code = EXIT_OK
    try:
        payload["result"] = gb.decide_g0_zero(args.m, args.theta,
                                              seed=args.seed,
                                              **_limit_kwargs(args))
    except LimitExceeded as exc:
        payload.update(result="undecided", reason=str(exc), stats=exc.stats)
        code = EXIT_USAGE   # as gb solve on a limit
    _emit(args, payload)
    return code


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", default=None, metavar="PATH")
    common.add_argument("--seed", type=int, default=0)

    parser = _Parser(prog="cyclodiff",
                     description="Exact checks for power-residue classes as "
                                 "difference sets, and the polynomial systems "
                                 "behind their nonexistence.")
    top = parser.add_subparsers(dest="group", required=True)

    p_field = top.add_parser("field", parents=[]).add_subparsers(
        dest="cmd", required=True)
    info = p_field.add_parser("info", parents=[common])
    info.add_argument("--p", type=int, required=True)
    info.add_argument("--e", type=int, default=1)
    info.set_defaults(func=_cmd_field_info)

    p_sums = top.add_parser("sums").add_subparsers(dest="cmd", required=True)
    for kind in ("gauss", "jacobi", "class"):
        sp = p_sums.add_parser(kind, parents=[common])
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--s", type=int, required=True)
        if kind == "jacobi":
            sp.add_argument("--t", type=int, default=None)
        sp.add_argument("--numeric", action="store_true")
        sp.set_defaults(func=_cmd_sums, kind=kind, t=None)

    p_ds = top.add_parser("ds").add_subparsers(dest="cmd", required=True)
    check = p_ds.add_parser("check", parents=[common])
    check.add_argument("--q", type=int, required=True)
    check.add_argument("--m", type=int, required=True)
    check.add_argument("--modified", action="store_true")
    check.add_argument("--methods", default="direct",
                       help="comma list from direct,charsum,jacobi,gauss")
    check.set_defaults(func=_cmd_ds_check)
    dscan = p_ds.add_parser("scan", parents=[common])
    dscan.add_argument("--m", type=int, default=None)
    dscan.add_argument("--m-min", type=int, default=None)
    dscan.add_argument("--m-max", type=int, default=None)
    par = dscan.add_mutually_exclusive_group()
    par.add_argument("--odd", action="store_true")
    par.add_argument("--even", action="store_true")
    dscan.add_argument("--q-max", type=int, required=True)
    dscan.add_argument("--modified-mode", default="both",
                       choices=("plain", "modified", "both"))
    dscan.add_argument("--full-methods", action="store_true")
    dscan.add_argument("--workers", type=int, default=1)
    dscan.add_argument("--all-rows", action="store_true",
                       help="include every classified row in the output")
    dscan.set_defaults(func=_cmd_ds_scan)

    p_sys = top.add_parser("sys").add_subparsers(dest="cmd", required=True)
    gen = p_sys.add_parser("gen", parents=[common])
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--level", choices=("g", "ghat"), default="g")
    gen.add_argument("--theta", type=int, default=0)
    gen.add_argument("--planar", action="store_true")
    gen.set_defaults(func=_cmd_sys_gen)
    parse = p_sys.add_parser("parse", parents=[common])
    parse.add_argument("--system", required=True)
    parse.set_defaults(func=_cmd_sys_parse)
    verify = p_sys.add_parser("verify", parents=[common])
    verify.add_argument("--system", required=True)
    verify.add_argument("--solution", required=True)
    verify.add_argument("--mode", choices=("exact", "scaled", "numeric"),
                        default="exact")
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.set_defaults(func=_cmd_sys_verify)
    explicit = p_sys.add_parser("explicit", parents=[common])
    explicit.add_argument("--m", type=int, required=True)
    explicit.set_defaults(func=_cmd_sys_explicit)
    fromf = p_sys.add_parser("from-field", parents=[common])
    fromf.add_argument("--q", type=int, required=True)
    fromf.add_argument("--m", type=int, required=True)
    fromf.add_argument("--modified", action="store_true")
    fromf.set_defaults(func=_cmd_sys_from_field)
    bridge = p_sys.add_parser("bridge", parents=[common])
    bridge.add_argument("--m", type=int, required=True)
    bridge.add_argument("--theta", type=int, required=True)
    bridge.add_argument("--solution", required=True)
    bridge.set_defaults(func=_cmd_sys_bridge)

    p_gb = top.add_parser("gb").add_subparsers(dest="cmd", required=True)
    solve = p_gb.add_parser("solve", parents=[common])
    solve.add_argument("--m", type=int, required=True)
    solve.add_argument("--theta", type=int, required=True)
    solve.add_argument("--limits", default=None,
                       help='JSON, e.g. {"gb_max_spairs": 500000}')
    solve.set_defaults(func=_cmd_gb_solve)
    table = p_gb.add_parser("table", parents=[common])
    table.add_argument("--m", type=int, required=True)
    table.add_argument("--fixtures-only", action="store_true",
                       help="skip recomputation, report stored rows only")
    table.add_argument("--limits", default=None)
    table.set_defaults(func=_cmd_gb_table)
    probe = p_gb.add_parser("probe-zero", parents=[common])
    probe.add_argument("--m", type=int, required=True)
    probe.add_argument("--theta", type=int, required=True)
    probe.add_argument("--limits", default=None)
    probe.set_defaults(func=_cmd_gb_probe_zero)

    return parser


def run(argv=None) -> int:
    reload_limits()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CyclodiffError, OSError, ValueError) as exc:
        sys.stderr.write(f"cyclodiff: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
