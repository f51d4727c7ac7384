"""Command-line front end and machine-readable reporting.

Three subcommands, one stable exit-code contract (0 = all checks pass,
1 = a verification failed, 2 = usage or environment error):

* ``constants``   recomputes the full constant pipeline and compares every
  claimed value and inequality, writing a JSON or markdown report;
* ``identities``  brute-forces the exact arithmetic identities, the
  coefficient bounds, and the per-prime local-factor identities;
* ``zeros``       scans a critical-line segment, writes a CSV of zeros with
  their triple-product ratios, and fails if an eligible zero has a
  ratio below the floor or no computable ratio.

Reports follow the schema in report_schema.json (shipped in the package);
complex numbers are serialized as {"re": ..., "im": ...} and two runs with
identical flags produce byte-identical output except for the timestamp.
No environment variable influences any numeric result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone

# each command imports the modules it runs, so that `constants` loads
# neither numpy nor the L-function layer
from .numerics import ConvergenceError, DomainError

SCHEMA_VERSION = "1"
_ELIGIBILITY_FACTOR = 3.0
_C_STAR_FLOOR = -1e-9
# primitive_characters holds all phi(q) value tables of q entries each, and
# the scan's cost per panel grows with the q residues, so q stays desk-scale;
# identities, which builds a discrete-log table of q residues per modulus, shares the cap
_MODULUS_LIMIT = 1000
# the divisor-pair pass holds at most this many gaps (moduli x n) at once
_GAP_ELEMENTS = 1 << 20


def _num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _cnum(z: complex) -> dict:
    return {"re": _num(z.real), "im": _num(z.imag)}


def _document(constants=(), notes=(), identities=(), zeros=None, parameters=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "constants": [
            {
                "name": r.name,
                "computed": _cnum(r.computed),
                "claim_kind": r.claim_kind,
                "claimed": _cnum(r.claimed),
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in constants
        ],
        "notes": list(notes),
        "identities": [
            {"name": name, "max_gap": _num(gap), "pass": bool(ok)}
            for name, gap, ok in identities
        ],
        "zeros": zeros,
        "meta": {
            "quadrature_tol": None,
            "parameters": parameters or {},
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }


def _fmt_complex(d: dict) -> str:
    re_part = "nan" if d["re"] is None else f"{d['re']:.10g}"
    if d["im"] is None:
        return f"{re_part}+nan*i"
    if d["im"] == 0.0:
        return re_part
    return f"{re_part}{d['im']:+.10g}i"


def _markdown(doc: dict) -> str:
    lines = ["# lfverify report", ""]
    if doc["constants"]:
        lines += [
            "## Constants",
            "",
            "| name | computed | claim | claimed | tolerance | pass |",
            "|---|---|---|---|---|---|",
        ]
        for r in doc["constants"]:
            lines.append(
                "| {name} | {comp} | {kind} | {clm} | {tol:.3g} | {ok} |".format(
                    name=r["name"],
                    comp=_fmt_complex(r["computed"]),
                    kind=r["claim_kind"],
                    clm=_fmt_complex(r["claimed"]),
                    tol=r["tolerance"],
                    ok="yes" if r["pass"] else "NO",
                )
            )
        if doc["notes"]:
            lines += ["", "Notes:"] + [f"- {note}" for note in doc["notes"]]
    if doc["identities"]:
        lines += [
            "",
            "## Identities",
            "",
            "| name | max gap | pass |",
            "|---|---|---|",
        ]
        for r in doc["identities"]:
            gap = "nan" if r["max_gap"] is None else f"{r['max_gap']:.3e}"
            lines.append(f"| {r['name']} | {gap} | {'yes' if r['pass'] else 'NO'} |")
    if doc["zeros"]:
        lines += ["", f"Zero table: {doc['zeros']}"]
    lines += ["", f"_generated {doc['meta']['timestamp']}_", ""]
    return "\n".join(lines)


def _emit(doc: dict, fmt: str, out_path: str) -> bool:
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = _markdown(doc)
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_verify_constants(args) -> int:
    from . import contradiction

    report = contradiction.run_verification()
    doc = _document(constants=report.records, notes=report.notes)
    if not _emit(doc, args.format, args.out):
        return 2
    return 0 if report.passed else 1


def _identity_rows(max_n: int, moduli: list[int]) -> list[tuple[str, float, bool]]:
    import numpy as np

    from . import characters, eulerprod

    rows: list[tuple[str, float, bool]] = []
    chis = [characters.real_primitive_character(q) for q in moduli]
    # one pass for every modulus, sharing the character-free divisor pairs,
    # over chunks of n, keeping each modulus's running maximum
    step = max(1, _GAP_ELEMENTS // len(chis))
    worst_gaps = np.full(len(chis), -np.inf)
    for lo in range(1, max_n + 1, step):
        ns = np.arange(lo, min(lo + step, max_n + 1))
        worst_gaps = np.maximum(worst_gaps, characters.identity_810_gaps(ns, chis).max(axis=1))
    for q, chi, worst in zip(moduli, chis, worst_gaps.tolist()):
        rows.append((f"divisor_sum_mod{q}", worst, worst <= 1e-12))
        _, _, gap = characters.check_lemma_171(chi)
        rows.append((f"euler_product_mod{q}", gap, gap < 1e-4))
        margin = characters.coefficient_bound_margin(max_n, chi)
        rows.append((f"coefficient_bounds_mod{q}", max(margin, 0.0), margin <= 1e-9))

    zero_shifts = (0j, 0j, 0j)
    worst_exact = 0.0
    for case in eulerprod.IDENTITY_CASES:
        for p in (2, 3, 5, 7, 11, 13):
            for v in (-1, 0, 1):
                if case == "A6" and v == 0:
                    continue  # singular split; the v=0 limit is case A7
                if case == "L162" and v == 1 and p == 2:
                    continue  # genuine pole of the closed form
                _, _, gap = eulerprod.check_local_identity(
                    case, eulerprod.LocalFactorParams(1.0 / p, v, zero_shifts)
                )
                worst_exact = max(worst_exact, gap)
    rows.append(("local_factor_cases", worst_exact, worst_exact <= 1e-12))

    shifts = tuple(1j * math.pi * k * 1e-3 for k in (1, 2, 3))
    shift_mag = abs(shifts[2])
    worst_env = 0.0
    env_ok = True
    for p in (1009, 2003, 4001, 7919, 9973):
        bound = 10.0 * shift_mag * math.log(p) / p
        for case in ("A1", "A3", "A6", "L152", "L161"):
            for v in (-1, 1):
                _, _, gap = eulerprod.check_local_identity(
                    case, eulerprod.LocalFactorParams(1.0 / p, v, shifts)
                )
                worst_env = max(worst_env, gap)
                env_ok = env_ok and gap <= bound
    rows.append(("local_factor_envelope", worst_env, env_ok))
    return rows


def cmd_identities(args) -> int:
    if not 1 <= args.max_n <= 10**6:
        print("error: --max-n must be between 1 and 10^6", file=sys.stderr)
        return 2
    try:
        moduli = [int(tok) for tok in args.moduli.split(",") if tok.strip()]
    except ValueError:
        print(f"error: cannot parse --moduli {args.moduli!r}", file=sys.stderr)
        return 2
    if not moduli:
        print("error: --moduli is empty", file=sys.stderr)
        return 2
    repeated = sorted({q for q in moduli if moduli.count(q) > 1})
    if repeated:
        print(f"error: --moduli repeats {', '.join(map(str, repeated))}", file=sys.stderr)
        return 2
    if max(moduli) > _MODULUS_LIMIT:
        print(f"error: --moduli entries must be at most {_MODULUS_LIMIT}", file=sys.stderr)
        return 2
    try:
        rows = _identity_rows(args.max_n, moduli)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = _document(
        identities=rows,
        parameters={"max_n": args.max_n, "moduli": moduli},
    )
    if not _emit(doc, args.format, args.out):
        return 2
    return 0 if all(ok for _, _, ok in rows) else 1


def cmd_zeros(args) -> int:
    from . import characters, lfunc

    # the Euler-Maclaurin kernel bounds its truncation at any height, but the
    # rounding of its direct sum (relative 1e-12 on the line) is checked against
    # mpmath only up to t = 999.9, and a scan's cost grows as T^2
    t_limit = lfunc._T_LIMIT
    if not 0 < args.modulus <= _MODULUS_LIMIT:
        print(f"error: --modulus must be between 1 and {_MODULUS_LIMIT}", file=sys.stderr)
        return 2
    if not 0 < args.step <= 0.05:
        print("error: --step must be positive and at most 0.05", file=sys.stderr)
        return 2
    if not 0 < args.t_max <= t_limit:
        print(f"error: --t-max must be positive and at most {t_limit:g}", file=sys.stderr)
        return 2
    if args.alpha_hat is not None and not 0 < args.alpha_hat <= t_limit:
        print(f"error: --alpha-hat must be positive and at most {t_limit:g}", file=sys.stderr)
        return 2
    prims = characters.primitive_characters(args.modulus)
    if not prims:
        print(f"error: no primitive characters mod {args.modulus}", file=sys.stderr)
        return 2
    if not 0 <= args.char_index < len(prims):
        print(
            f"error: --char-index out of range (0..{len(prims) - 1} for modulus "
            f"{args.modulus})",
            file=sys.stderr,
        )
        return 2
    psi = prims[args.char_index]
    csv_path = args.csv or f"zeros_mod{args.modulus}_chi{args.char_index}.csv"

    if args.t_max <= args.step:
        scan = lfunc.ScanResult((), (), 0)
    else:
        try:
            scan = lfunc.find_zeros(psi, args.step, args.t_max, args.step)
        except (lfunc.BranchError, ConvergenceError, DomainError) as exc:
            print(f"error: scan failed: {exc}", file=sys.stderr)
            return 2

    alpha = args.alpha_hat
    if alpha is None:
        gammas = [z.gamma for z in scan]
        if len(gammas) >= 2:
            alpha = 0.5 * (gammas[-1] - gammas[0]) / (len(gammas) - 1)
        else:
            alpha = 1.0

    try:
        n_rows = lfunc.export_zeros_csv(csv_path, scan, psi, alpha)
    except OSError as exc:
        print(f"error: cannot write {csv_path}: {exc}", file=sys.stderr)
        return 2

    # audit the emitted table rather than any in-memory copy
    eligible = violations = blank = 0
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not row["forward_gap"]:
                continue
            if float(row["forward_gap"]) > _ELIGIBILITY_FACTOR * alpha:
                if row["c_star"] == "":
                    blank += 1
                    continue
                eligible += 1
                if float(row["c_star"]) < _C_STAR_FLOOR:
                    violations += 1

    if scan.flagged:
        print(
            f"warning: {len(scan.flagged)} flagged interval(s), possible "
            "unresolved double zeros",
            file=sys.stderr,
        )
    if blank:
        # an eligible zero without a ratio is an unverified claim
        print(
            f"error: {blank} eligible zero(s) without a computable ratio",
            file=sys.stderr,
        )
    print(
        f"{n_rows} zeros -> {csv_path}; alpha_hat={alpha:.6g}, "
        f"{eligible} eligible, {violations} below floor"
    )
    if args.out:
        doc = _document(
            zeros=csv_path,
            parameters={
                "modulus": args.modulus,
                "char_index": args.char_index,
                "t_max": args.t_max,
                "step": args.step,
                "alpha_hat": alpha,
            },
        )
        if not _emit(doc, "json", args.out):
            return 2
    return 1 if violations or blank else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfverify",
        description=(
            "Recompute and verify the kernel-integral constants, the exact "
            "arithmetic and local-factor identities, and the critical-line "
            "zero ratios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "constants",
        help="recompute every pipeline constant and check the claimed values",
    )
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_verify_constants)

    p = sub.add_parser(
        "identities",
        help="brute-force the exact identities, bounds, and local factors",
    )
    p.add_argument("--max-n", dest="max_n", type=int, default=10_000)
    p.add_argument(
        "--moduli",
        default="3,4,5",
        help="comma-separated moduli, each carrying a real primitive character",
    )
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser(
        "zeros",
        help="scan a line segment and test the triple-product ratio at eligible zeros",
    )
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--char-index", dest="char_index", type=int, default=0)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument(
        "--alpha-hat",
        dest="alpha_hat",
        type=float,
        default=None,
        help="shift scale; default is half the mean zero gap of the scan",
    )
    p.add_argument("--csv", default=None, help="zero table path")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_zeros)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
