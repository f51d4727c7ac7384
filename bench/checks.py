"""Correctness checks for the benchmark's operations, made apart from lfverify.

Nothing here imports the package.  The references are:

* the frozen oracles under tests/oracles (an independent Simpson-grid run of
  the constant pipeline and an independent fine-grid zero count);
* the claims themselves, evaluated at the Simpson values;
* the arithmetic coefficients, recomputed by trial division over a Kronecker
  symbol evaluated here;
* |L(1/2 + i gamma, chi)| at reported zeros, from this module's own
  Euler-Maclaurin evaluator (every zero) and from mpmath (a seeded sample);
* the Riemann-von Mangoldt count of zeros with an explicit error bound.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
import re

import mpmath
import numpy as np

# |L(1/2 + i gamma)| below this is a zero: a zero bracketed to radius 1e-9
# reads about 5e-10, a grid point up to 0.02 away reads about 0.1.
ZERO_ABS_L = 1e-6

# ---------------------------------------------------------------------------
# frozen oracles


def load_simpson(path) -> dict[str, complex]:
    out = {}
    with open(path) as fh:
        for line in fh:
            name, sep, rhs = line.strip().partition(" = ")
            if not sep:
                continue
            if name.startswith("chain"):
                name = "chain"
            rhs = rhs.strip()
            if rhs.startswith("np.float64("):
                rhs = rhs[len("np.float64(") : -1]
            out[name] = complex(rhs.strip("()"))
    return out


_COUNT_LINE = re.compile(r"count q=(\d+) parity=([+-]1) zeros=(\d+) dips=(\d+) fp=(\S+)")


def load_zero_counts(path) -> dict[tuple[int, str], int]:
    """{(q, fingerprint): zeros on (0, 100]} from the fine-grid oracle."""
    out = {}
    with open(path) as fh:
        for line in fh:
            m = _COUNT_LINE.match(line)
            if m:
                out[int(m.group(1)), m.group(5).replace("-0.000", "+0.000")] = int(m.group(3))
    return out


def fingerprint(table) -> str:
    fp = ",".join(f"{v.real:+.3f}{v.imag:+.3f}i" for v in table[1:])
    return fp.replace("-0.000", "+0.000")


# ---------------------------------------------------------------------------
# constants


def _re(z: complex) -> complex:
    return complex(z.real)


# the Simpson-grid value behind each record of the constants report
SIMPSON_SOURCE = {
    "c11": lambda s: s["c11"],
    "c22": lambda s: s["c22"],
    "c12": lambda s: s["c12"],
    "c33": lambda s: s["c33"],
    "c34": lambda s: s["c34"],
    "b44_matches_b22": lambda s: s["b44"] - s["b22"],
    "quad1_upper": lambda s: s["frak_c1"],
    "quad1_value": lambda s: _re(s["frak_c1"]),
    "quad1_imag": lambda s: complex(s["frak_c1"].imag),
    "quad2_upper": lambda s: s["frak_c2"],
    "quad2_value": lambda s: _re(s["frak_c2"]),
    "quad2_imag": lambda s: complex(s["frak_c2"].imag),
    "drift_prime_real": lambda s: _re(s["frak_d_prime"]),
    "drift_real_small": lambda s: _re(s["frak_d"]),
    "drift_real_positive": lambda s: _re(s["frak_d"]),
    "drift_sum_real": lambda s: _re(s["frak_d_prime"] + s["frak_d"]),
    "c3_real": lambda s: _re(s["frak_c3"]),
    "cancellation": lambda s: s["cancellation"],
    "chain_total": lambda s: s["chain"],
    "window6_1": lambda s: s["w6_1"],
    "window7_1": lambda s: s["w7_1"],
    "window6_2": lambda s: s["w6_2"],
    "window7_2": lambda s: s["w7_2"],
    "window6_3": lambda s: s["w6_3"],
    "window7_3": lambda s: s["w7_3"],
    "j1_upper": lambda s: _re(s["j1_limit"]),
    "j1_positive": lambda s: _re(s["j1_limit"]),
}


def claim_holds(kind: str, value: complex, claimed: complex, tol: float) -> bool:
    if kind == "equals":
        return abs(value.real - claimed.real) <= tol and abs(value.imag - claimed.imag) <= tol
    if kind == "less_than":
        return value.real < claimed.real - tol
    if kind == "greater_than":
        return value.real > claimed.real + tol
    if kind == "abs_less_than":
        return abs(value) < claimed.real - tol
    raise ValueError(f"unknown claim kind {kind!r}")


def _complex(d) -> complex:
    if d is None or d["re"] is None or d["im"] is None:
        return complex("nan")
    return complex(d["re"], d["im"])


def check_constants(doc: dict, exit_code: int, simpson: dict[str, complex]) -> list[str]:
    """Values within each claim's tolerance of the Simpson grid, pass flags and
    exit code as the claims predict at the Simpson values."""
    problems = []
    records = {r["name"]: r for r in doc.get("constants", [])}
    if set(records) != set(SIMPSON_SOURCE):
        problems.append(f"report names differ from the 27 claims: {sorted(set(records) ^ set(SIMPSON_SOURCE))}")
    all_pass = True
    for name, source in SIMPSON_SOURCE.items():
        rec = records.get(name)
        if rec is None:
            continue
        ref = source(simpson)
        value = _complex(rec["computed"])
        claimed = _complex(rec["claimed"])
        tol = rec["tolerance"]
        gap = max(abs(value.real - ref.real), abs(value.imag - ref.imag))
        if not gap <= tol:
            problems.append(f"{name}: computed {value} is {gap:.3e} from Simpson {ref} (tol {tol:g})")
        predicted = claim_holds(rec["claim_kind"], ref, claimed, tol)
        all_pass = all_pass and predicted
        if rec["pass"] is not predicted:
            problems.append(f"{name}: pass flag {rec['pass']}, the claim at the Simpson value says {predicted}")
    expected_code = 0 if all_pass else 1
    if exit_code != expected_code:
        problems.append(f"exit code {exit_code}, expected {expected_code}")
    return problems


# ---------------------------------------------------------------------------
# identities and the coefficient layer

IDENTITY_ROWS = tuple(
    f"{row}_mod{q}" for q in (3, 4, 5) for row in ("divisor_sum", "euler_product", "coefficient_bounds")
) + ("local_factor_cases", "local_factor_envelope")

# fundamental discriminant of the real primitive character mod q
DISCRIMINANT = {3: -3, 4: -4, 5: 5}


def check_identities(doc: dict, exit_code: int) -> list[str]:
    """Every row is a theorem, so every row must be present and pass."""
    problems = []
    rows = {r["name"]: r for r in doc.get("identities", [])}
    if set(rows) != set(IDENTITY_ROWS):
        problems.append(f"identity rows differ: {sorted(set(rows) ^ set(IDENTITY_ROWS))}")
    for name, row in rows.items():
        if row["pass"] is not True:
            problems.append(f"{name}: failed with max gap {row['max_gap']}")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    return problems


def _factor(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def kronecker(d: int, n: int) -> int:
    """(d/n) for n >= 1: Euler's criterion at odd primes, the mod-8 rule at 2."""
    out = 1
    for p, e in _factor(n):
        if p == 2:
            s = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        else:
            r = pow(d % p, (p - 1) // 2, p)
            s = 0 if r == 0 else (1 if r == 1 else -1)
        out *= s**e
    return out


def nu_ref(n: int, d: int) -> int:
    """(1 * chi_d)(n)."""
    return sum(kronecker(d, m) for m in _divisors(n))


def upsilon_ref(n: int, d: int) -> int:
    """Dirichlet inverse of 1 * chi_d, which is mu * (mu chi_d)."""
    return sum(_mobius(m) * _mobius(n // m) * kronecker(d, n // m) for m in _divisors(n))


def check_coefficients(ns, q: int, nu, upsilon) -> list[str]:
    """The program's nu(n), upsilon(n) (callables of n) against trial division."""
    d = DISCRIMINANT[q]
    problems = []
    for n in ns:
        for label, got, want in (("nu", nu(n), nu_ref(n, d)), ("upsilon", upsilon(n), upsilon_ref(n, d))):
            if abs(complex(got) - want) > 1e-9:
                problems.append(f"{label}({n}) mod {q}: {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# characters and L-values


def check_character(table) -> list[str]:
    """A value table mod q really is a primitive Dirichlet character."""
    q = len(table)
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    problems = []
    for a in range(q):
        if (a in units) != (abs(table[a]) > 0.5) or (a in units and abs(abs(table[a]) - 1) > 1e-12):
            problems.append(f"mod {q}: bad value {table[a]} at {a}")
    for a in units:
        for b in units:
            if abs(table[a * b % q] - table[a] * table[b]) > 1e-12:
                problems.append(f"mod {q}: not multiplicative at ({a}, {b})")
                return problems
    for f in range(1, q):
        if q % f == 0 and all(abs(table[a] - 1) < 1e-9 for a in units if a % f == 1 % f):
            problems.append(f"mod {q}: induced from modulus {f}")
            break
    return problems


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330)


def _hurwitz(s: np.ndarray, a: float) -> np.ndarray:
    # Euler-Maclaurin with the tail start N kept 60 beyond max |im s|
    n_direct = int(np.max(np.abs(s.imag))) + 60
    n = np.arange(n_direct) + a
    out = np.exp(-np.outer(np.log(n), s)).sum(axis=0)
    w = n_direct + a
    w_pow = np.exp(-s * math.log(w))
    out = out + w * w_pow / (s - 1.0) + 0.5 * w_pow
    rising, w_fall, fact = s.copy(), w_pow / w, 2.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        out = out + b2k / fact * rising * w_fall
        rising = rising * (s + 2 * k - 1) * (s + 2 * k)
        w_fall = w_fall / (w * w)
        fact *= (2 * k + 1) * (2 * k + 2)
    return out


def abs_l_on_line(table, gammas) -> np.ndarray:
    """|L(1/2 + i gamma, chi)| for each gamma, L = q^-s sum_a chi(a) zeta(s, a/q)."""
    q = len(table)
    s = 0.5 + 1j * np.asarray(gammas, dtype=float)
    total = np.zeros(len(s), dtype=complex)
    for a in range(1, q):
        if table[a] != 0:
            total += table[a] * _hurwitz(s, a / q)
    return np.abs(np.exp(-s * math.log(q)) * total)


def mp_abs_l(table, gamma: float) -> float:
    with mpmath.workdps(20):
        return float(abs(mpmath.dirichlet(mpmath.mpc(0.5, gamma), [complex(v) for v in table])))


def check_zeros(gammas, radii, table, t_min, t_max, mp_sample) -> tuple[list[str], list[float]]:
    """Reported zeros lie in [t_min, t_max], ascend, have radius < 1e-8 and are
    zeros of L: every one by the Euler-Maclaurin evaluator, those at the
    indices `mp_sample` by mpmath too.  Returns (problems, gammas that are not zeros)."""
    problems = []
    if any(not t_min <= g <= t_max for g in gammas):
        problems.append(f"zero outside [{t_min}, {t_max}]")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        problems.append("zeros not strictly ascending")
    if any(not r < 1e-8 for r in radii):
        problems.append("bracket radius not below 1e-8")
    values = abs_l_on_line(table, gammas) if gammas else np.zeros(0)
    wrong = [g for g, v in zip(gammas, values) if not v < ZERO_ABS_L]
    for i in mp_sample:
        v = mp_abs_l(table, gammas[i])
        if not v < ZERO_ABS_L and gammas[i] not in wrong:
            wrong.append(gammas[i])
    if wrong:
        problems.append(f"{len(wrong)} of {len(gammas)} reported zeros have |L| >= {ZERO_ABS_L:g}")
    return problems, wrong


def on_scan_grid(points, t_min: float, t_max: float, step: float) -> bool:
    """All points sit on the scan grid t_min + k*step (or on t_max)."""
    for g in points:
        k = round((g - t_min) / step)
        if abs(t_min + k * step - g) > 2e-9 and abs(t_max - g) > 2e-9:
            return False
    return True


def read_zero_csv(path, reported: int) -> tuple[list[float], list[float], list[str]]:
    """(gammas, radii, problems) of a `zeros` CSV with `reported` rows announced."""
    problems = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["gamma", "radius", "c_star", "forward_gap"]:
        return [], [], ["CSV header missing"]
    body = rows[1:]
    if len(body) != reported:
        problems.append(f"CSV has {len(body)} rows, the command reported {reported} zeros")
    gammas = [float(r[0]) for r in body]
    radii = [float(r[1]) for r in body]
    for i, row in enumerate(body):
        want = gammas[i + 1] - gammas[i] if i + 1 < len(body) else None
        have = float(row[3]) if row[3] else None
        if (want is None) != (have is None) or (want is not None and abs(want - have) > 1e-9):
            problems.append(f"CSV row {i + 1}: forward gap {row[3]!r} does not match the next zero")
            break
    return gammas, radii, problems


def check_tiled_counts(spans, counts, tables, oracle, rounds: int, t_first: float) -> list[str]:
    """Per character (key "q:index"): its windows `spans[key]` tile (0, 100]
    from t_first, and its zeros `counts[key]` over them are `rounds` times the
    fine-grid oracle's count; the characters are exactly the oracle's."""
    problems, seen = [], set()
    for key, table in tables.items():
        fp = (int(key.split(":")[0]), fingerprint(table))
        seen.add(fp)
        edges = sorted(set(spans[key]))
        starts, ends = [a for a, _ in edges], [b for _, b in edges]
        if starts[1:] != ends[:-1] or starts[0] > t_first or ends[-1] != 100.0:
            problems.append(f"windows of character {key} do not tile (0, 100]")
        if fp not in oracle:
            problems.append(f"character {key} is not in the zero-count oracle")
        elif counts[key] != rounds * oracle[fp]:
            problems.append(f"character {key}: {counts[key]} zeros, oracle {rounds} x {oracle[fp]}")
    if seen != set(oracle):
        problems.append(f"the characters are not the oracle's {len(oracle)}")
    return problems


# ---------------------------------------------------------------------------
# zero counting


def rvm_main(q: int, parity: int, t: float) -> float:
    """Smooth part of N(T, chi), the count of zeros with |gamma| <= T.

    From the argument principle applied to the completed L-function with
    Stirling's formula: (T/pi) log(qT / (2 pi e)) - chi(-1)/4.
    """
    return t / math.pi * math.log(q * t / (2 * math.pi * math.e)) - parity / 4.0


def rvm_bound(q: int, t: float) -> float:
    """Explicit bound on |N(T, chi) - main term| for primitive chi, T >= 5/7.

    0.22737 l + 2 log(1 + l) - 0.5 with l = log(q (T + 2) / (2 pi)); Bennett,
    Martin, O'Bryant and Rechnitzer, Math. Comp. 90 (2021), sharpening
    Trudgian's bound (Math. Comp. 84 (2015)).
    """
    ell = math.log(q * (t + 2) / (2 * math.pi))
    return 0.22737 * ell + 2 * math.log(1 + ell) - 0.5


def check_zero_count(count: int, q: int, parity: int, t: float) -> list[str]:
    main, bound = rvm_main(q, parity, t), rvm_bound(q, t)
    if abs(count - main) <= bound:
        return []
    return [f"N({t:g}) mod {q}: {count} zeros, main term {main:.2f} +- {bound:.2f}"]
