"""Command-line front end and machine-readable reporting.

Three subcommands, one stable exit-code contract (0 = all checks pass,
1 = a verification failed, 2 = usage or environment error).  Every check of
every command is a ``numerics.VerificationRecord``, and every command
returns through ``_finish``, which writes the report and returns 0 if all
its records passed, else 1.  A command refuses bad input by raising
DomainError, and an unwritable output path raises OSError; ``main`` alone
turns either into one ``error:`` line on stderr and exit 2.

* ``constants``   recomputes the full constant pipeline and compares every
  claimed value and inequality, writing a JSON or markdown report;
* ``identities``  brute-forces the exact arithmetic identities, the
  coefficient bounds, and the per-prime local-factor identities;
* ``zeros``       scans a critical-line segment, writes a CSV of zeros with
  their triple-product ratios, and audits the rows it wrote: it fails if an
  eligible zero has a ratio below the floor or no computable ratio, or if a
  ratio's sign disagrees with the parity of the listed zeros above it.

Reports follow the schema in report_schema.json (shipped in the package);
complex numbers are serialized as {"re": ..., "im": ...} and two runs with
identical flags produce byte-identical output except for the timestamp.
No environment variable influences any numeric result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

# each command imports the modules it runs, so that `constants` loads
# neither numpy nor the L-function layer; the record types are namedtuples,
# so no command loads inspect or generates class code at import, and no
# command loads `csv`: the zero table's rows are joined by hand
from .numerics import ConvergenceError, DomainError, VerificationRecord, verdict, write_text

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


# the keys a record maps onto in each command's section of the report
_ROWS = {
    "constants": lambda r: {
        "name": r.name, "computed": _cnum(r.computed), "claim_kind": r.claim_kind,
        "claimed": _cnum(r.claimed), "tolerance": r.tolerance, "pass": r.passed,
    },
    "identities": lambda r: {"name": r.name, "max_gap": _num(r.computed.real), "pass": r.passed},
    "zeros": lambda r: {"name": r.name, "count": int(r.computed.real), "pass": r.passed},
}


def _finish(args, section, records, notes=(), parameters=None, zeros=None) -> int:
    """Write the report where --out points and return the exit code: 0 if
    every record passed, else 1.

    The records fill the command's ``section``; a `zeros` run puts them in
    its ``zeros`` object as ``checks``, and writes no report without --out.
    """
    if args.out is not None:
        meta = {"quadrature_tol": None, "parameters": parameters or {}}
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        doc = {
            "schema_version": SCHEMA_VERSION,
            "constants": [], "notes": list(notes), "identities": [], "zeros": None, "meta": meta,
        }
        rows = [_ROWS[section](r) for r in records]
        doc[section] = rows if zeros is None else {**zeros, "checks": rows}
        if args.format == "json":
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        else:
            text = _markdown(doc)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            write_text(args.out, text)
    return 0 if all(r.passed for r in records) else 1


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
        header = "| name | computed | claim | claimed | tolerance | pass |"
        lines += ["## Constants", "", header, "|---|---|---|---|---|---|"]
        for r in doc["constants"]:
            ok = "yes" if r["pass"] else "NO"
            lines.append(
                f"| {r['name']} | {_fmt_complex(r['computed'])} | {r['claim_kind']} "
                f"| {_fmt_complex(r['claimed'])} | {r['tolerance']:.3g} | {ok} |"
            )
        if doc["notes"]:
            lines += ["", "Notes:"] + [f"- {note}" for note in doc["notes"]]
    if doc["identities"]:
        lines += ["", "## Identities", "", "| name | max gap | pass |", "|---|---|---|"]
        for r in doc["identities"]:
            gap = "nan" if r["max_gap"] is None else f"{r['max_gap']:.3e}"
            lines.append(f"| {r['name']} | {gap} | {'yes' if r['pass'] else 'NO'} |")
    lines += ["", f"_generated {doc['meta']['timestamp']}_", ""]
    return "\n".join(lines)


def cmd_verify_constants(args) -> int:
    from . import contradiction

    report = contradiction.run_verification()
    return _finish(args, "constants", report.records, notes=report.notes)


def _identity_rows(max_n: int, moduli: list[int]) -> list[VerificationRecord]:
    import numpy as np

    from . import characters, eulerprod

    rows: list[VerificationRecord] = []
    chis = [characters.real_primitive_character(q) for q in moduli]
    # one pass for every modulus, sharing the character-free divisor pairs,
    # over chunks of n, keeping each modulus's running maximum
    step = max(1, _GAP_ELEMENTS // len(chis))
    worst_gaps = np.full(len(chis), -np.inf)
    for lo in range(1, max_n + 1, step):
        ns = np.arange(lo, min(lo + step, max_n + 1))
        worst_gaps = np.maximum(worst_gaps, characters.identity_810_gaps(ns, chis).max(axis=1))
    for q, chi, worst in zip(moduli, chis, worst_gaps.tolist()):
        rows.append(verdict(f"divisor_sum_mod{q}", worst, "at_most", 1e-12))
        _, _, gap = characters.check_lemma_171(chi)
        rows.append(verdict(f"euler_product_mod{q}", gap, "less_than", 1e-4))
        # a negative margin shows as 0, which passes exactly where the margin does
        margin = characters.coefficient_bound_margin(max_n, chi)
        rows.append(verdict(f"coefficient_bounds_mod{q}", max(margin, 0.0), "at_most", 1e-9))

    # each row shows its worst gap and passes where every gap meets its own prime's bound
    shifts = tuple(1j * math.pi * k * 1e-3 for k in (1, 2, 3))
    for name, primes, vs, betas, bound in (
        ("local_factor_cases", (2, 3, 5, 7, 11, 13), (-1, 0, 1), (0j, 0j, 0j), lambda p: 1e-12),
        ("local_factor_envelope", (1009, 2003, 4001, 7919, 9973), (-1, 1), shifts,
         lambda p: 10.0 * abs(shifts[2]) * math.log(p) / p),
    ):
        records = []
        for p in primes:
            for v in vs:
                params = eulerprod.LocalFactorParams(1.0 / p, v, betas)
                for case in eulerprod.IDENTITY_CASES:
                    try:
                        _, _, gap = eulerprod.check_local_identity(case, params)
                    except DomainError:
                        continue  # eulerprod gives this case no value here
                    records.append(verdict(name, gap, "at_most", bound(p)))
        worst = max(records, key=lambda r: r.computed.real)
        rows.append(worst._replace(passed=all(r.passed for r in records)))
    return rows


def cmd_identities(args) -> int:
    if not 1 <= args.max_n <= 10**6:
        raise DomainError("--max-n must be between 1 and 10^6")
    try:
        moduli = [int(tok) for tok in args.moduli.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse --moduli {args.moduli!r}") from None
    if not moduli:
        raise DomainError("--moduli is empty")
    repeated = sorted({q for q in moduli if moduli.count(q) > 1})
    if repeated:
        raise DomainError(f"--moduli repeats {', '.join(map(str, repeated))}")
    if max(moduli) > _MODULUS_LIMIT:
        raise DomainError(f"--moduli entries must be at most {_MODULUS_LIMIT}")
    rows = _identity_rows(args.max_n, moduli)
    return _finish(args, "identities", rows, parameters={"max_n": args.max_n, "moduli": moduli})


def cmd_zeros(args) -> int:
    import bisect

    from . import characters, lfunc

    if not 0 < args.modulus <= _MODULUS_LIMIT:
        raise DomainError(f"--modulus must be between 1 and {_MODULUS_LIMIT}")
    if not 0 < args.step <= lfunc._STEP_LIMIT:
        raise DomainError(f"--step must be positive and at most {lfunc._STEP_LIMIT:g}")
    if not 0 < args.t_max <= lfunc._T_LIMIT:
        raise DomainError(f"--t-max must be positive and at most {lfunc._T_LIMIT:g}")
    if args.alpha_hat is not None and not 0 < args.alpha_hat <= lfunc._T_LIMIT:
        raise DomainError(f"--alpha-hat must be positive and at most {lfunc._T_LIMIT:g}")
    prims = characters.primitive_characters(args.modulus)
    if not prims:
        raise DomainError(f"no primitive characters mod {args.modulus}")
    if not 0 <= args.char_index < len(prims):
        raise DomainError(
            f"--char-index out of range (0..{len(prims) - 1} for modulus {args.modulus})"
        )
    psi = prims[args.char_index]
    csv_path = args.csv or f"zeros_mod{args.modulus}_chi{args.char_index}.csv"

    scan = lfunc.ScanResult((), (), 0)
    if args.t_max > args.step:
        try:
            scan = lfunc.find_zeros(psi, args.step, args.t_max, args.step)
        except (lfunc.BranchError, ConvergenceError, DomainError) as exc:
            raise DomainError(f"scan failed: {exc}") from exc

    alpha = args.alpha_hat
    if alpha is None:
        gaps = len(scan) - 1
        alpha = 0.5 * (scan[-1].gamma - scan[0].gamma) / gaps if gaps > 0 else 1.0

    rows = lfunc.export_zeros_csv(csv_path, scan, psi, alpha)

    # audit the strings written to the table rather than any in-memory copy
    gammas = [float(row[0]) for row in rows]
    radius = max((float(row[1]) for row in rows), default=0.0)
    eligible = violations = blank = compared = mismatches = 0
    for gamma, (_, _, c_star, gap) in zip(gammas, rows):
        if gap and float(gap) > _ELIGIBILITY_FACTOR * alpha:
            if c_star:
                eligible += 1
                violations += float(c_star) < _C_STAR_FLOOR
            else:
                blank += 1
        # at a simple zero, sign c* = (-1)^(k1 + k2 + k3) with k_j the zeros
        # in (gamma, gamma + j alpha); the list holds them only up to t_max,
        # and a shift inside a zero's bracket leaves its k_j undecided
        shifts = [gamma + j * alpha for j in (1, 2, 3)]
        if c_star and shifts[-1] <= args.t_max:
            below = [bisect.bisect_left(gammas, t - radius) for t in shifts]
            if all(n == bisect.bisect_right(gammas, t + radius) for n, t in zip(below, shifts)):
                compared += 1
                k = sum(below) - 3 * bisect.bisect_right(gammas, gamma)
                mismatches += float(c_star) * (-1) ** k <= 0

    if scan.flagged:
        print(
            f"warning: {len(scan.flagged)} flagged interval(s), possible "
            "unresolved double zeros",
            file=sys.stderr,
        )
    # an eligible zero without a ratio is an unverified claim
    for count, what in (
        (blank, "eligible zero(s) without a computable ratio"),
        (mismatches, "zero(s) whose c* sign disagrees with the parity of the zeros above"),
    ):
        if count:
            print(f"error: {count} {what}", file=sys.stderr)
    print(
        f"{len(rows)} zeros -> {csv_path}; alpha_hat={alpha:.6g}, "
        f"{eligible} eligible, {violations} below floor"
    )
    counts = {"c_star_floor": violations, "c_star_computable": blank, "c_star_parity": mismatches}
    records = [verdict(name, count, "at_most", 0) for name, count in counts.items()]
    zeros = {
        "table": csv_path, "found": len(rows), "flagged": len(scan.flagged),
        "eligible": eligible, "compared": compared,
    }
    parameters = {
        "modulus": args.modulus, "char_index": args.char_index, "t_max": args.t_max,
        "step": args.step, "alpha_hat": alpha,
    }
    return _finish(args, "zeros", records, parameters=parameters, zeros=zeros)


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
    # lfunc._STEP, stated apart since parsing loads no numpy; a test pins the two equal
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
    p.set_defaults(func=cmd_zeros, format="json")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
