"""Command-line front end.

    sobomul upper    -n 2 -d 2
    sobomul lower    -n 2 -d 2 --method best
    sobomul sandwich -n 7/2 -d 1
    sobomul table1   -d 3 [--compare]
    sobomul table2   [--dmax 10] [--compare]
    sobomul asymp    --regime small -d 1

Common flags: --json, --csv (one header per record kind: bounds, table2
rows or asymp laws; --compare appends its fields).  n accepts decimals or
exact fractions ("5/2"); fractions keep the integer-n fast paths exact.
Exit codes: 0 success, 2 domain violation (n <= d/2, d < 1, or a bound
past the double range) or rejected argument (an n past the double range
among them), 3 an uncertified K+ (its search ran out of budget) or a
bound that raises.  upper, lower and sandwich print the caveats of their
bounds; a K- caveat (its search stopped early, but the value is still a
quotient at its argmax, so a valid lower bound) is informational and
leaves exit 0.  With exit 3, table1 still prints every cell, a failed
one with its "error" and null for the values it could not compute;
upper and sandwich print their record with the K+ caveat; a bound that
raises prints nothing for the other commands.

JSON goes to stdout and is byte-stable across runs; its "tol_rel" is the
fixed 1e-9 relative tolerance of the (B) and (F) lower bounds.  Wall time
is written to stderr so the payload stays deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import bounds, tables
from .kernels import BoundQuery, DomainError

__all__ = ["main", "build_parser", "parse_n"]

_EXIT_OK = 0
_EXIT_DOMAIN = 2
_EXIT_NUMERIC = 3

_METHODS = {
    "bessel": bounds.k_bessel,
    "bessel-bb": bounds.k_bessel_minorant,
    "fourier": bounds.k_fourier,
    "fourier-ff": bounds.k_fourier_fixed,
    "best": bounds.best_lower,
}


def parse_n(text: str) -> Fraction:
    """Exact rational n from '5/2', '2.5' or '3'; an n past the double
    range, such as '1e400', is rejected like 'inf' and 'nan'."""
    try:
        n = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse n = {text!r}") from exc
    try:
        float(n)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"n = {text!r} lies past the double range") from exc
    return n


def _parse_n_list(text: str) -> list[float]:
    """Comma-separated values (n, or gaps n - d/2 in the small regime),
    each parsed by :func:`parse_n`."""
    return [float(parse_n(x)) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--csv", action="store_true", help="CSV output")

    p = argparse.ArgumentParser(
        prog="sobomul",
        description="Upper and lower bounds for the multiplication constants "
                    "of the Sobolev algebras H^n(R^d).")
    sub = p.add_subparsers(dest="command", required=True)

    up = sub.add_parser("upper", parents=[common], help="upper bound K+")
    up.add_argument("-n", type=parse_n, required=True)
    up.add_argument("-d", type=int, required=True)

    lo = sub.add_parser("lower", parents=[common], help="lower bound")
    lo.add_argument("-n", type=parse_n, required=True)
    lo.add_argument("-d", type=int, required=True)
    lo.add_argument("--method", choices=sorted(_METHODS), default="best")

    sw = sub.add_parser("sandwich", parents=[common],
                        help="best lower bound, K+, their ratio and tag")
    sw.add_argument("-n", type=parse_n, required=True)
    sw.add_argument("-d", type=int, required=True)

    t1 = sub.add_parser("table1", parents=[common], help="one bounds-table row")
    t1.add_argument("-d", type=int, required=True)
    t1.add_argument("--compare", action="store_true",
                    help="diff against the embedded reference values")
    t1.add_argument("--upper-only", action="store_true",
                    help="skip the lower bounds (fast)")

    t2 = sub.add_parser("table2", parents=[common],
                        help="envelope constants Z_d and Theta_d")
    t2.add_argument("--dmax", type=int, default=10, choices=range(1, 11))
    t2.add_argument("--compare", action="store_true")

    asy = sub.add_parser("asymp", parents=[common], help="asymptotic-regime report")
    asy.add_argument("--regime", choices=("small", "large"), required=True)
    asy.add_argument("-d", type=int, default=1)
    asy.add_argument("--n-list", type=_parse_n_list, default=None,
                     help="comma-separated values: the gaps n - d/2 for "
                          "--regime small, the n values for --regime large")
    return p


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, once per process."""
    return build_parser()


def _query(ns: Fraction, d: int) -> BoundQuery:
    return BoundQuery(d=d, n=float(ns), n_exact=ns)


def _bound_record(d: int, n_text: str, n_frac: Fraction, **extra) -> dict:
    rec = {"kind": "bound", "d": d, "n": n_text, "n_value": float(n_frac)}
    rec.update(extra)
    return rec


def _result_fields(res: bounds.BoundResult, *others: bounds.BoundResult) -> dict:
    """The record fields of res, with the caveats of res and others joined
    (null when none has one)."""
    argmax = None
    if res.argmax is not None:
        vals = [v for v in res.argmax.as_tuple() if v is not None and math.isfinite(v)]
        # a supremum at the boundary (u = inf) has no finite maximizer
        argmax = vals if len(vals) == len(res.argmax.as_tuple()) else None
    caveats = [r.diagnostics["caveat"] for r in (*others, res) if "caveat" in r.diagnostics]
    return {
        "method": res.kind,
        "tag": res.tag if res.kind in bounds.TAG_BY_KIND else None,
        "argmax": argmax,
        "caveat": "; ".join(caveats) or None,
    }


def _exit_code(*results: bounds.BoundResult) -> int:
    """Exit 3 when a K+ among results carries a caveat (it is not
    certified); a K- caveat is informational."""
    uncertified = any(r.kind == "upper_plus" and "caveat" in r.diagnostics for r in results)
    return _EXIT_NUMERIC if uncertified else _EXIT_OK


# ----------------------------------------------------------------------
# subcommands: each returns (records, exit_code)
# ----------------------------------------------------------------------

def _cmd_upper(args) -> tuple[list[dict], int]:
    q = _query(args.n, args.d)
    res = bounds.k_plus(q)
    rec = _bound_record(args.d, str(args.n), args.n, k_plus=res.value,
                        **_result_fields(res))
    return [rec], _exit_code(res)


def _cmd_lower(args) -> tuple[list[dict], int]:
    q = _query(args.n, args.d)
    res = _METHODS[args.method](q)
    rec = _bound_record(args.d, str(args.n), args.n, k_minus=res.value,
                        **_result_fields(res))
    return [rec], _exit_code(res)


def _cmd_sandwich(args) -> tuple[list[dict], int]:
    q = _query(args.n, args.d)
    up = bounds.k_plus(q)
    low = bounds.best_lower(q)
    rec = _bound_record(args.d, str(args.n), args.n,
                        k_plus=up.value, k_minus=low.value,
                        ratio=low.value / up.value, **_result_fields(low, up))
    rec["upper_argmax"] = ([up.argmax.u] if up.argmax and up.argmax.u is not None
                           and math.isfinite(up.argmax.u) else None)
    return [rec], _exit_code(up, low)


def _or_none(x: float) -> float | None:
    """A table value for the JSON payload: null where the cell failed."""
    return None if math.isnan(x) else x


def _cmd_table1(args) -> tuple[list[dict], int]:
    cells = tables.table1_rows(args.d, with_lower=not args.upper_only)
    golden = tables.GOLDEN_TABLE1.get(args.d)
    records = []
    code = _EXIT_OK
    for i, cell in enumerate(cells):
        rec = _bound_record(cell.d, str(cell.n_exact), cell.n_exact,
                            label=cell.label, k_plus=_or_none(cell.k_plus))
        if not args.upper_only:
            rec["k_minus"] = _or_none(cell.k_minus)
            rec["ratio"] = _or_none(cell.ratio)
            rec["tag"] = cell.tag
            rec["argmax"] = list(cell.lower_argmax) or None
        if cell.error:
            rec["error"] = cell.error
            code = _EXIT_NUMERIC
        if args.compare and golden is not None:
            gk = golden["k_plus"][i]
            cmp_block = {"golden_k_plus": gk,
                         "k_plus_rel_diff": _or_none(cell.k_plus / gk - 1.0)}
            if not args.upper_only:
                cmp_block["golden_ratio"] = golden["ratio"][i]
                cmp_block["ratio_diff"] = _or_none(cell.ratio - golden["ratio"][i])
                cmp_block["golden_tag"] = golden["tag"][i]
                cmp_block["tag_match"] = cell.tag == golden["tag"][i]
            rec["compare"] = cmp_block
        records.append(rec)
    return records, code


def _cmd_table2(args) -> tuple[list[dict], int]:
    rows = tables.table2_rows(args.dmax)
    records = []
    for row in rows:
        rec = {"kind": "table2", "d": row.d, "big_z": row.big_z,
               "theta": row.theta, "endpoint_warning": row.endpoint_warning}
        if args.compare:
            gz, gt = tables.GOLDEN_TABLE2[row.d]
            rec["compare"] = {"golden_big_z": gz, "golden_theta": gt,
                              "big_z_diff": row.big_z - gz,
                              "theta_diff": row.theta - gt}
        records.append(rec)
    return records, _EXIT_OK


_SMALL_GAPS = (1e-4, 1e-6)
_LARGE_NS = (100.0, 200.0)


def _cmd_asymp(args) -> tuple[list[dict], int]:
    d = args.d
    consts = bounds.AsympConstants.for_dimension(d)
    records, uppers = [], []

    def law(n_text: str, n_value: float, name: str, ratio: float, target: float) -> None:
        records.append({"kind": "asymp", "regime": args.regime, "d": d, "n": n_text,
                        "n_value": n_value, "law": name, "law_ratio": ratio,
                        "law_target": target})

    if args.regime == "small":
        for gap in args.n_list or list(_SMALL_GAPS):
            q = BoundQuery(d=d, n=d / 2.0 + gap)
            uppers.append(bounds.k_plus(q))
            kbb = bounds.k_bessel_minorant(q).value
            scale = math.sqrt(gap) / consts.amp_small
            law(f"{d}/2+{gap:g}", q.n, "k_plus*sqrt(gap)/M_d", uppers[-1].value * scale, 1.0)
            law(f"{d}/2+{gap:g}", q.n, "k_bessel_bb*sqrt(gap)/M_d", kbb * scale,
                math.sqrt(2.0 / 3.0))
    else:
        ff_const = math.sqrt(5.0 / 3.0) / 7.0 ** 0.25
        for n in args.n_list or list(_LARGE_NS):
            q = BoundQuery(d=d, n=n, n_exact=Fraction(n) if float(n).is_integer() else None)
            lead = bounds.k_plus_asymp_large(q)
            uppers.append(bounds.k_plus(q))
            kp, kff = uppers[-1].value, bounds.k_fourier_fixed(q).value
            law(f"{n:g}", n, "k_plus/(T_d (2/sqrt3)^n n^-d/4)", kp / lead, 1.0)
            law(f"{n:g}", n, "k_ff/(T_d (2/sqrt3)^n n^-d/4)", kff / lead, ff_const)
            law(f"{n:g}", n, "k_plus/k_ff", kp / kff, 1.0 / ff_const)
    return records, _exit_code(*uppers)


_COMMANDS = {
    "upper": _cmd_upper,
    "lower": _cmd_lower,
    "sandwich": _cmd_sandwich,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "asymp": _cmd_asymp,
}

# CSV columns per record kind: a bound's argmax fills argmax1 and argmax2,
# and records with --compare add their comparison fields.
_CSV_COLUMNS = {
    "bound": ("d", "n", "k_plus", "k_minus", "ratio", "tag", "argmax1", "argmax2"),
    "table2": ("d", "big_z", "theta", "endpoint_warning"),
    "asymp": ("d", "n", "law", "law_ratio", "law_target"),
}


def _emit_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    kind = records[0]["kind"] if records else "bound"
    columns = _CSV_COLUMNS[kind]
    if records and "compare" in records[0]:
        columns += tuple(records[0]["compare"])
    writer.writerow(columns)
    for rec in records:
        cells = {**rec, **rec.get("compare", {})}
        arg = rec.get("argmax") or []
        cells.update(zip(("argmax1", "argmax2"), arg))
        writer.writerow([_csv_cell(cells.get(col)) for col in columns])
    return buf.getvalue()


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(float(v)) if isinstance(v, float) else str(v)


def _emit_human(records: list[dict]) -> str:
    lines = []
    for rec in records:
        if rec["kind"] == "table2":
            extra = "  [endpoint warning]" if rec.get("endpoint_warning") else ""
            lines.append(f"d={rec['d']:2d}  Z_d={rec['big_z']: .5f}  "
                         f"Theta_d={rec['theta']:.4f}{extra}")
        elif rec["kind"] == "asymp":
            lines.append(f"d={rec['d']} n={rec['n']:>12}  {rec['law']:<36} "
                         f"= {rec['law_ratio']:.6f}  (target {rec['law_target']:.6f})")
        else:
            parts = [f"d={rec['d']}", f"n={rec.get('label') or rec['n']:>9}"]
            if rec.get("k_plus") is not None:
                parts.append(f"K+={rec['k_plus']:#.4g}")
            if rec.get("k_minus") is not None:
                parts.append(f"K-={rec['k_minus']:#.4g}")
            if rec.get("ratio") is not None:
                parts.append(f"ratio={rec['ratio']:.4f}")
            if rec.get("tag"):
                parts.append(f"tag={rec['tag']}")
            if rec.get("argmax"):
                parts.append("argmax=(" + ", ".join(f"{v:.4g}" for v in rec["argmax"]) + ")")
            if rec.get("caveat"):
                parts.append(f"CAVEAT: {rec['caveat']}")
            if rec.get("error"):
                parts.append(f"ERROR: {rec['error']}")
            if "compare" in rec:
                cb = rec["compare"]
                if cb.get("k_plus_rel_diff") is not None:
                    parts.append(f"dK+/K+={cb['k_plus_rel_diff']:+.2e}")
                if cb.get("tag_match") is False:
                    parts.append("TAG MISMATCH")
            lines.append("  ".join(parts))
    if records and records[0]["kind"] == "bound" and "compare" in records[0]:
        diffs = [abs(r["compare"]["k_plus_rel_diff"]) for r in records
                 if r.get("compare", {}).get("k_plus_rel_diff") is not None]
        if diffs:
            lines.append(f"max |relative diff| on k_plus column: {max(diffs):.3e}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        records, code = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    wall = time.perf_counter() - started

    if args.json:
        payload = {"command": args.command, "tol_rel": bounds.LOWER_TOL,
                   "records": records}
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    elif args.csv:
        sys.stdout.write(_emit_csv(records))
    else:
        sys.stdout.write(_emit_human(records))
    print(f"# wall_time_s={wall:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
