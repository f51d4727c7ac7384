#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 bench/selftest.py

Runs the program once per kind of output (a constants report, a small
identities report, a zeros CSV for a character and its conjugate), confirms that every check accepts the real output, then
corrupts it -- a gamma moved by 0.01, a constant moved beyond its tolerance, a
pass flag flipped, and a few more -- and confirms that the check rejects each
corruption.  Exits 1 if any check accepts a corrupted output or rejects a
real one.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys

import checks
import run as bench

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "rejects" if should_fail else "accepts"
    print(f"{'PASS' if ok else 'FAIL'} {verdict}: {label}" + (f"  [{problems[0]}]" if problems else ""))
    if not ok:
        FAILURES.append(label)


def expect_true(label: str, holds: bool) -> None:
    print(f"{'PASS' if holds else 'FAIL'} holds: {label}")
    if not holds:
        FAILURES.append(label)


def cli(*argv: str) -> tuple[int, str]:
    got = subprocess.run(
        [sys.executable, "-c", bench.CLI_CODE, *argv],
        cwd=bench.OUT, env=bench.child_env(), capture_output=True, text=True, timeout=120,
    )
    return got.returncode, got.stdout


def constants_cases() -> None:
    simpson = checks.load_simpson(bench.ORACLES / "simpson_constants.out")
    path = bench.OUT / "selftest_constants.json"
    code, _ = cli("constants", "--out", str(path))
    doc = json.loads(path.read_text())
    expect("constants report as computed", checks.check_constants(doc, code, simpson), False)

    moved = copy.deepcopy(doc)
    rec = next(r for r in moved["constants"] if r["name"] == "c11")
    rec["computed"]["re"] += 2 * rec["tolerance"]
    expect("c11 moved by twice its tolerance", checks.check_constants(moved, code, simpson), True)

    flipped = copy.deepcopy(doc)
    rec = next(r for r in flipped["constants"] if r["name"] == "chain_total")
    rec["pass"] = not rec["pass"]
    expect("chain_total pass flag flipped", checks.check_constants(flipped, code, simpson), True)

    flipped = copy.deepcopy(doc)
    rec = next(r for r in flipped["constants"] if r["name"] == "c3_real")
    rec["pass"] = not rec["pass"]
    expect("c3_real pass flag flipped, exit code 0", checks.check_constants(flipped, 0, simpson), True)
    expect("exit code 0 where c3_real fails", checks.check_constants(doc, 0, simpson), True)


def identities_cases() -> None:
    path = bench.OUT / "selftest_identities.json"
    code, _ = cli("identities", "--max-n", "300", "--out", str(path))
    doc = json.loads(path.read_text())
    expect("identities report as computed", checks.check_identities(doc, code), False)
    flipped = copy.deepcopy(doc)
    flipped["identities"][0]["pass"] = False
    expect("identity row pass flag flipped", checks.check_identities(flipped, code), True)

    characters = bench._import_package()
    chi = characters.real_primitive_character(5)
    ns = [1, 2, 12, 45, 360, 9973, 10000]
    real = checks.check_coefficients(ns, 5, lambda n: characters.nu(n, chi), lambda n: characters.upsilon(n, chi))
    expect("nu and upsilon mod 5 as computed", real, False)
    off = checks.check_coefficients(ns, 5, lambda n: characters.nu(n, chi) + (n == 360), lambda n: characters.upsilon(n, chi))
    expect("nu(360) off by one", off, True)
    off = checks.check_coefficients(ns, 5, lambda n: characters.nu(n, chi), lambda n: -characters.upsilon(n, chi))
    expect("upsilon with its sign flipped", off, True)


def zeros_cases() -> None:
    characters = bench._import_package()
    prims = characters.primitive_characters(5)
    t_max, total = 40.0, 0
    for k in (0, 2):
        table = list(prims[k].values)
        path = bench.OUT / f"selftest_zeros{k}.csv"
        code, out = cli("zeros", "--modulus", "5", "--t-max", f"{t_max:g}", "--char-index", str(k), "--csv", str(path))
        reported = int(re.match(r"(\d+) zeros", out).group(1))
        gammas, radii, problems = checks.read_zero_csv(path, reported)
        expect(f"zeros CSV of character {k} as written", problems, False)
        sample = [0, len(gammas) // 2]
        expect(f"zeros of character {k} as computed",
               checks.check_zeros(gammas, radii, table, 0.02, t_max, sample)[0], False)
        total += len(gammas)
        if k:
            continue
        for i in (0, len(gammas) // 2):
            moved = list(gammas)
            moved[i] += 0.01
            problems, wrong = checks.check_zeros(moved, radii, table, 0.02, t_max, [])
            expect(f"gamma {i} moved by 0.01 (all-zero check)", problems, True)
            expect_true(f"mpmath reads |L| < {checks.ZERO_ABS_L:g} at gamma {i}",
                        checks.mp_abs_l(table, gammas[i]) < checks.ZERO_ABS_L)
            expect_true(f"mpmath reads |L| >= {checks.ZERO_ABS_L:g} at gamma {i} moved by 0.01",
                        checks.mp_abs_l(table, moved[i]) >= checks.ZERO_ABS_L)
            expect_true(f"gamma {i} moved by 0.01 is not classed as the anchor fault",
                        not checks.on_scan_grid(wrong, 0.02, t_max, 0.02))
        # the anchor fault's signature: a zero returned as its right-hand grid point
        snapped = list(gammas)
        snapped[1] = 0.02 + 0.02 * math.ceil((gammas[1] - 0.02) / 0.02)
        problems, wrong = checks.check_zeros(snapped, radii, table, 0.02, t_max, [])
        expect("gamma 1 snapped to its grid point", problems, True)
        expect_true("gamma 1 snapped to its grid point is classed as the anchor fault",
                    checks.on_scan_grid(wrong, 0.02, t_max, 0.02))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        expect("CSV with its last row dropped", checks.read_zero_csv(path, reported)[2], True)
    expect(f"N({t_max:g}) of the character pair", checks.check_zero_count(total, 5, -1, t_max), False)
    expect(f"N({t_max:g}) with four zeros lost", checks.check_zero_count(total - 4, 5, -1, t_max), True)


def tiling_cases() -> None:
    oracle = checks.load_zero_counts(bench.ORACLES / "zero_counts.out")
    characters = bench._import_package()
    edges = list(zip(bench.WIDE_EDGES, bench.WIDE_EDGES[1:]))
    tables, spans, counts = {}, {}, {}
    for q in bench.WIDE_MODULI:
        for index, chi in enumerate(characters.primitive_characters(q)):
            key = f"{q}:{index}"
            tables[key] = list(chi.values)
            spans[key] = list(edges)
            counts[key] = oracle[q, checks.fingerprint(tables[key])]
    args = (tables, oracle, 1, bench.WIDE_EDGES[0])
    expect("oracle counts over tiled windows", checks.check_tiled_counts(spans, counts, *args), False)
    expect("one zero missing from one character",
           checks.check_tiled_counts(spans, {**counts, "7:2": counts["7:2"] - 1}, *args), True)
    expect("a window left out of the tiling",
           checks.check_tiled_counts({**spans, "5:0": edges[:4] + edges[5:]}, counts, *args), True)


def main() -> int:
    bench.OUT.mkdir(parents=True, exist_ok=True)
    constants_cases()
    identities_cases()
    zeros_cases()
    tiling_cases()
    print(f"{len(FAILURES)} check(s) misjudged" if FAILURES else "every check accepts real output and rejects each corruption")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
