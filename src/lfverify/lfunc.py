"""Small-modulus L-function engine.

One vectorized Euler-Maclaurin kernel evaluates sum_a c_a zeta(s, a) at
s = rows[i] + i cols[j], with its s-derivative on request and a pole-free
mode that keeps a nonprincipal character sum finite at s = 1.  Each call
takes the least shift N, and then the fewest of up to 40 Bernoulli terms,
at which the explicit remainder bound is below 1e-17; it takes the residues
in blocks under a fixed memory budget.  Every value, zeta(s, a) or L(s, chi)
= q^(-s) sum_a chi(a) zeta(s, a/q) and its derivative, is one kernel call.
Around it sit the reflection and functional-equation factors, a
real-valued rotation of the L-function on the critical line, sign-change
zero scanning, and the signed triple-product ratio at a scan's zeros.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence

import numpy as np

from .characters import DirichletCharacter, gauss_sum
from .numerics import ConvergenceError, DomainError, Validated, read_only, write_text

_TWO_PI = 2.0 * math.pi


def _bernoulli(k_max: int) -> tuple:
    """B_2k = (-1)^(k+1) 2k T_k / (4^k (4^k - 1)), k <= k_max, as unreduced (numerator, denominator)
    pairs, with the tangent numbers T_k from the Knuth-Buckholtz triangle (Math. Comp. 21, 1967)."""
    t = [math.factorial(k) for k in range(k_max)]
    for k in range(1, k_max):
        for j in range(k, k_max):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(((-1) ** (k + 1) * 2 * k * t[k - 1], 4**k * (4**k - 1)) for k in range(1, k_max + 1))


_BERNOULLI = _bernoulli(40)

# B_2k / (2k)! for k = 1..40, each correctly rounded: the Euler-Maclaurin tail
_EM_COEFFS = np.array([n / (d * math.factorial(2 * k)) for k, (n, d) in enumerate(_BERNOULLI, 1)])

# B_2k / (2k (2k - 1)) for k = 1..8: the Stirling series of log Gamma
_STIRLING = tuple((n / d) / ((2 * k + 2) * (2 * k + 1)) for k, (n, d) in enumerate(_BERNOULLI[:8]))

# B_2k / 2k for k = 1..8: the asymptotic series of the digamma function
_DIGAMMA = tuple((n / d) / (2 * k + 2) for k, (n, d) in enumerate(_BERNOULLI[:8]))

# the most steps _log_gamma shifts by: a Gamma argument paired with a kernel value needs
# N <= 68, as the kernel refuses re s <= -57.89, and vartheta(1000.5) already underflows to 0
_GAMMA_SHIFT_LIMIT = 1000

# every kernel call bounds its Euler-Maclaurin remainder by this, and its terms by e^_LOG_MAX
_EM_TARGET = 1e-17
_LOG_MAX = math.log(np.finfo(np.float64).max)

# complex elements in one block of the Euler-Maclaurin kernel's residues (4 MB)
_BLOCK_ELEMENTS = 1 << 18

# R x I J arrays a block holds beside its exponents: up to 12 at once in
# _em_block's ds path, and the 4 of the previous block's rows and weighted
# terms that the loop still holds
_BLOCK_ROWS = 16

# the one column of a kernel call at the points rows alone
_ZERO_COL = np.zeros(1)

# the read-only 1 that a zero column's stride-0 factor repeats
(_ONE,) = read_only(np.ones(1, dtype=np.complex128))


class BranchError(RuntimeError):
    """Continuity or realness of the rotated line values broke down."""


# ---------------------------------------------------------------------------
# Hurwitz zeta


# the line path's by-value tables: at most _CHARACTERS characters' residues
# and root numbers, and _TABLES of the kernel's shift constants and of its
# block tables; a block's only when its call is that one block and it holds
# at most _TABLE_ELEMENTS floats (32 kB): a call cut into blocks, as at
# q = 997, would cycle through more blocks than the cache holds
_CHARACTERS = 64
_TABLES = 256
_TABLE_ELEMENTS = 1 << 12


@functools.lru_cache(maxsize=_TABLES)
def _em_shift(s_abs: int, sigma: float) -> tuple:
    """(N, M, step, rise, coeffs): the Euler-Maclaurin shift, the number of Bernoulli terms
    and the tail rows' read-only M x 1 columns (4j - 1) / N, 2j (2j - 1) / N^2 and c_(j+1).

    For re s >= sigma and sigma + 2M - 1 > 0 the remainder after M tail
    terms at w = N + a is at most
    4 |(s)_2M| w^(1-sigma-2M) / ((2 pi)^2M (sigma + 2M - 1))
    (Johansson, Numer. Algorithms 69, 2015).  Taken at w = N and with
    |(s)_2M| <= (s_abs)_2M for |s| <= s_abs, the bound holds for every a
    in (0, 1].  N is the least N >= 10 at which it is at most
    ``_EM_TARGET`` for some M <= 40, and M the least such M there.  The
    kernel passes the largest |s| of a call rounded up to an integer, at
    least 1, so that the calls along a line share cached answers.  DomainError
    refuses an s with no such M (re s <= -79), or whose largest term
    (N + 1)^(1-sigma) overflows a double: from re s = -57.89 on the real axis.
    """
    n_shift, n_terms = math.inf, 0
    log_poch = 0.0
    for m in range(1, len(_BERNOULLI) + 1):
        log_poch += math.log((s_abs + 2 * m - 2) * (s_abs + 2 * m - 1))
        e = sigma + 2 * m - 1
        if e <= 0:
            continue
        # the least N with bound <= target, where N is a double
        log_n = (math.log(4.0 / (e * _EM_TARGET)) + log_poch - 2 * m * math.log(_TWO_PI)) / e
        n = max(10, math.ceil(math.exp(log_n))) if log_n < _LOG_MAX else math.inf
        if n < n_shift:
            n_shift, n_terms = n, m
    # no term of the sum exceeds (N + 1)^(1 - sigma): refuse where that is no double
    if not n_terms or (1.0 - sigma) * math.log(n_shift + 1) > _LOG_MAX:
        raise DomainError(f"re s = {sigma} lies beyond the Euler-Maclaurin kernel's reach")
    j = np.arange(n_terms)[:, None]
    step, rise = (4 * j - 1) / n_shift, 2 * j * (2 * j - 1) / n_shift**2
    return n_shift, n_terms, *read_only(step, rise, _EM_COEFFS[:n_terms, None])


@functools.lru_cache(maxsize=_TABLES)
def _block_table(a_bytes: bytes, n_shift: int, n_terms: int) -> tuple:
    """log(n + a), n < N, w = N + a, log w as floats and as a column, and (N / w)^(2k-1),
    k <= M, for the residues a whose float64 bytes are ``a_bytes``; arrays read-only."""
    a = np.frombuffer(a_bytes)
    ln = np.log(np.arange(n_shift, dtype=np.float64) + a[:, None])
    w = n_shift + a[:, None]
    lws = tuple(math.log(v) for v in w[:, 0])
    ratios = (n_shift / w) ** np.arange(1, 2 * n_terms, 2)
    ln, w, lw, ratios = read_only(ln, w, np.array(lws)[:, None], ratios)
    return ln, w, lws, lw, ratios


def _euler_maclaurin(
    rows, cols, a, weights: np.ndarray, ds: bool = False, pole_free: bool = False, s=None
) -> np.ndarray:
    """sum_a c_a zeta(s, a) at s = rows[i] + i cols[j] and a 1-d array of a, common shift N.

    N, the number M of Bernoulli terms and the tail's columns come from one
    ``_em_shift`` lookup at the largest |s| and the least re s of the call,
    so the remainder is at most ``_EM_TARGET`` at every finite s.  On the
    critical line N is 36 at t = 100 and 270 at t = 1000.

    zeta(s, a) = sum_{n<N} (n+a)^-s + w^(1-s)/(s-1) + w^-s/2 + tail,
    w = N + a, with the tail
    w^-s sum_{k<=M} c_k [(s)_(2k-1) / N^(2k-1)] (N / w)^(2k-1),
    c_k = B_2k / (2k)! (``_EM_COEFFS``).  Each residue's direct sum is one
    product P @ C, P[i, n] = (n+a)^-rows_i and C[n, j] = (n+a)^-(i cols_j):
    N (I + J) exps, not N I J (Odlyzko and Schoenhage, Trans. AMS 309,
    1988); its d/ds is -(P log(n+a)) @ C, and w^-s is w^-rows_i w^-(i cols_j).
    The bracketed rows depend on s alone and are built once per call as a
    running product (with ``ds``, also its s-derivative by the product rule,
    which stays finite where a row vanishes at s = 0, -1, -2, ...); each
    residue meets them in one (1 x M) @ (M x I J) product of its own ratios.
    Scaled by N, every factor stays finite at |s| = 1000 and M = 40.
    A small block's logs and ratios are kept by value in ``_block_table``;
    ``s``, when given, is the caller's own ravel of rows[i] + i cols[j].
    With ``pole_free`` the 1/(s-1) part of w^(1-s)/(s-1) is dropped and
    the rest summed as a series in s - 1; the dropped parts cancel across
    a nonprincipal character sum, which keeps s = 1 finite.

    ``a`` is one residue in (0, 1] or a 1-d array of R of them, with one
    weight c_a each.  The result has shape (1, I J) over the points s row
    by row, or (2, I J) with ``ds``, [1] holding d/ds.  A running sum adds the
    weighted rows one at a time in the order of a, so no row outlives its
    block.  A residue takes N (I + J) (1 + ds) elements in P,
    C and P log(n+a), and up to ``_BLOCK_ROWS`` rows of I J; the residues
    go in blocks of at most ``_BLOCK_ELEMENTS`` of these, and at least one,
    which keeps a block near 4 MB whatever q is.  Without the budget,
    ``zeros --modulus 997 --t-max 60`` peaked at 515 MB, against 47 MB.
    Each row takes the floating-point operations of a one-residue call:
    - log w by math.log per residue: np.log rounds about one double in
      10^4 differently;
    - s as a 1 x I J row before any complex product with a residue's
      values: numpy rounds a complex product differently when a
      broadcast of arrays of unequal rank yields one element;
    - a stack of per-residue products, never one product over all
      residues: a shared product, of inner dimension R N or over an
      (R x M) tail, was no faster at q = 5 or 101, and it rounds
      differently with the block's shape.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if s is None:
        s = (rows[:, None] + 1j * cols).ravel()
    if not np.isfinite(s).all():
        raise DomainError("s must be finite")
    if not pole_free and (s == 1.0).any():
        raise DomainError("pole at s = 1")
    s_abs = max(1, math.ceil(float(np.abs(s).max())))
    n_shift, n_terms, step, rise, coeffs = _em_shift(s_abs, float(s.real.min()))
    # row k - 1 is c_k (s)_(2k-1) / N^(2k-1): x = s / N times the running product
    # of (s + 2j - 1)(s + 2j) / N^2 = x (x + (4j - 1) / N) + 2j (2j - 1) / N^2,
    # built in place in ``tail``, since each fresh M x I J temporary page-faults
    x = s / n_shift
    tail = np.empty((1 + ds, n_terms, len(s)), dtype=np.complex128)
    t_rows = tail[0]
    np.add(x, step, out=t_rows)
    t_rows *= x
    t_rows += rise
    t_rows[0] = x
    if ds:
        # d/ds by the product rule as the product grows, factor k having derivative
        # (2x + (4k - 1) / N) / N; a log-derivative is 0 * inf at s = 0, -1, ...
        d_rows = tail[1]
        d_rows[0] = 1.0 / n_shift
        prod = x
        for k in range(1, n_terms):
            d_rows[k] = d_rows[k - 1] * t_rows[k] + prod * (2 * x + (4 * k - 1) / n_shift) / n_shift
            prod = prod * t_rows[k]
    np.cumprod(t_rows, axis=0, out=t_rows)
    tail *= coeffs
    per_residue = n_shift * (len(rows) + len(cols)) * (1 + ds) + _BLOCK_ROWS * len(s)
    per_block = max(1, _BLOCK_ELEMENTS // per_residue)
    cached = per_block >= len(a) and len(a) * (n_shift + n_terms) <= _TABLE_ELEMENTS
    total = np.zeros((1 + ds, len(s)), dtype=np.complex128)
    for i in range(0, len(a), per_block):
        block_a = a[i : i + per_block]
        block = _em_block(s, rows, cols, block_a, n_shift, tail, ds, pole_free, cached)
        for term in weights[i : i + per_block, None, None] * block.swapaxes(0, 1):
            total += term
    return total


def _em_block(s, rows, cols, a, n_shift, tail, ds, pole_free, cached) -> np.ndarray:
    """``_euler_maclaurin``'s (1 or 2, R, I J) rows for one block of residues."""
    table = _block_table if cached else _block_table.__wrapped__
    ln, w, lws, lw, ratios = table(a.tobytes(), n_shift, tail.shape[1])
    # exponentiated in place: each fresh R x I x N temporary page-faults
    p_mat = rows[:, None] * -ln[:, None, :]
    np.exp(p_mat, out=p_mat)
    # zero columns are a stride-0 broadcast of 1, which numpy's matmul sums in index
    # order, not by BLAS: values at rows alone, a point's too, are the same on every CPU
    if cols.any():
        c_mat = np.exp(ln[:, :, None] * (-1j * cols))
    else:
        # built directly: np.broadcast_to's Python overhead costs more than a point does
        c_mat = np.ndarray((len(a), n_shift, len(cols)), np.complex128, _ONE, strides=(0, 0, 0))
    out = (p_mat @ c_mat).reshape(len(a), -1)
    s = s[None]
    w_pow = (np.exp(-rows * lw)[..., None] * np.exp(-1j * cols * lw)[:, None]).reshape(len(a), -1)
    x = s - 1.0
    if pole_free:
        # e^(-x lw)/x - 1/x = sum_{m>=1} (-lw)^m x^(m-1)/m! and d/dx, Horner in polyval's order
        series = np.array([[[(-v) ** m / math.factorial(m)] for v in lws] for m in range(1, 16)])
        pole = pole_ds = 0.0 * x
        for m in range(14, -1, -1):
            pole = series[m] + pole * x
            pole_ds = m * series[m] + pole_ds * x if m else pole_ds
    else:
        pole = w * w_pow
        pole /= x
        pole_ds = -pole * (lw + 1.0 / x) if ds else None
    # (N / w)^(2k-1): a row of M per residue, each its own 1 x M product
    bern = w_pow * (ratios[:, None, None, :] @ tail)[:, :, 0].swapaxes(0, 1)
    # the head plus the pole, the half term and the tail, summed in place in that order
    out += pole
    out += 0.5 * w_pow
    out += bern[0]
    if not ds:
        return out[None]
    p_mat *= ln[:, None, :]
    out_ds = -(p_mat @ c_mat).reshape(len(a), -1) + pole_ds - 0.5 * lw * w_pow
    return np.stack((out, out_ds + bern[1] - lw * bern[0]))


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum over n >= 0 of (n+a)^(-s), continued in s.

    The kernel's shift and order bound the truncation error by 1e-17, so
    what remains is rounding: relative 1e-12 for re s >= 1/2 and |im s| up
    to 1e3.  Left of re s = 1/2 the direct sum cancels: against mpmath the
    error is about 1e-12 at re s = 0, |im s| near 1e3, and up to 1e-8 near
    the zeros of zeta(s, a) on the negative real axis (9e-9 at s = -2.997,
    a = 0.235).  Further left the error grows as 2^-53 (N + 1)^(1 - re s),
    unflagged: at a = 0.235 it is 3.5e-10 at s = -5, 1.8e-4 at -10, 4.2e5
    at -15 and 1.3e46 at -30.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError("a must lie in (0, 1]")
    return _euler_maclaurin(np.array([s], dtype=complex), _ZERO_COL, a, np.ones(1)).item()


# ---------------------------------------------------------------------------
# Dirichlet L


def _l_values(
    chi: DirichletCharacter, rows: np.ndarray, cols: np.ndarray = _ZERO_COL, ds: bool = False
) -> np.ndarray:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q) at s = rows[i] + i cols[j], row by row.

    One kernel call over the residues a with chi(a) != 0 sums
    chi(a) zeta(s, a/q) in the order of a; ``_character_table`` keeps the
    residues and weights by value per character.  The result is the kernel's
    (1 + ds) x I J array: row 0 holds L and, with ``ds``, row 1 dL/ds.
    A nonprincipal chi with every s within
    1e-1 of 1 takes the pole-free expansion, whose 15-term series in s - 1
    ends below 1e-19 there; a principal one keeps its genuine pole.
    """
    s = (rows[:, None] + 1j * cols).ravel()
    pole_free = not chi.is_principal and bool((np.abs(s - 1.0) < 1e-1).all())
    a, c, log_q, _ = _character_table(chi)
    total = _euler_maclaurin(rows, cols, a, c, ds, pole_free, s)
    total = np.exp(-s * log_q) * total  # after the kernel has refused a non-finite s
    if ds:
        total[1] -= log_q * total[0]
    return total


@functools.lru_cache(maxsize=_CHARACTERS)
def _character_table(chi: DirichletCharacter) -> tuple:
    """a/q and chi(a) over the residues a with chi(a) != 0, in order, read-only, log q, and
    for a primitive chi (epsilon, a), its root number and parity 0.0 even or 1.0 odd, else None."""
    q = chi.modulus
    c = np.array(chi.values[1:] + chi.values[:1], dtype=np.complex128)
    a = np.flatnonzero(c) + 1
    root = None
    if chi.primitive:
        tau = gauss_sum(chi)
        root = (tau / math.sqrt(q), 0.0) if chi.parity == 1 else (-1j * tau / math.sqrt(q), 1.0)
    return *read_only(a / q, c[a - 1]), math.log(q), root


def l_function(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q).

    At s = 1 a nonprincipal character is evaluated by the pole-free
    expansion; a principal one is a genuine pole.
    """
    return complex(_l_values(chi, np.array([complex(s)]))[0, 0])


def l_function_ds(s: complex, chi: DirichletCharacter) -> complex:
    """d/ds L(s, chi), with the same pole-free route near s = 1."""
    return complex(_l_values(chi, np.array([complex(s)]), ds=True)[1, 0])


# ---------------------------------------------------------------------------
# reflection and functional-equation factors


def _log_gamma(z, ds: bool = False) -> np.ndarray:
    """Principal log Gamma(z) over an array, cut on the negative real axis; with ``ds`` psi(z) too.

    The elements with |z| < 10 or re z < 0 are shifted to w = z + N,
    N = ceil(10 - min re z) over those elements alone, so re w >= 10, or
    |w| >= 10 and re w >= 0.  There the 8-term Stirling series is accurate
    to about 1e-16, and psi's log w - 1/(2w) - sum_k B_2k / (2k w^2k) to
    about 1e-17.  The shifted elements then lose sum_{k<N} log(z + k), in
    principal logs, since each z + k stays in the half-plane of z, and
    sum_{k<N} 1/(z + k).  The result has shape (1 + ds,) + shape(z).  DomainError
    refuses a non-finite z before any arithmetic, an N above ``_GAMMA_SHIFT_LIMIT``
    before any array of N columns, and a pole 0, -1, ... where z + k == 0.
    """
    # 1-d, so the shifted elements can be assigned into
    flat = np.asarray(z, dtype=np.complex128).ravel()
    if not np.isfinite(flat).all():
        raise DomainError("log Gamma takes only a finite z")
    small = (np.abs(flat) < 10.0) | (flat.real < 0.0)
    n = math.ceil(10.0 - float(flat.real[small].min())) if small.any() else 0
    if n > _GAMMA_SHIFT_LIMIT:
        raise DomainError(f"log Gamma shifts at most {_GAMMA_SHIFT_LIMIT} steps, not {n}")
    w = flat
    if n:
        w = flat.copy()
        w[small] += n
    log_w = np.log(w)
    r = 1.0 / w
    r2 = r * r
    # Horner by hand: polyval's overhead is most of a short array's cost
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = c + series * r2
    out = np.empty((1 + ds, len(flat)), dtype=np.complex128)
    out[0] = (w - 0.5) * log_w - w + 0.5 * math.log(_TWO_PI) + r * series
    if ds:
        r2 = 1.0 / (w * w)
        series = _DIGAMMA[-1]
        for c in _DIGAMMA[-2::-1]:
            series = c + series * r2
        out[1] = log_w - 0.5 / w - r2 * series
    if n:
        z_k = flat[small][:, None] + np.arange(n)
        if (z_k == 0).any():
            raise DomainError("Gamma pole at a non-positive integer")
        out[0, small] -= np.log(z_k).sum(axis=-1)
        if ds:
            out[1, small] -= (1.0 / z_k).sum(axis=-1)
    return out.reshape((1 + ds,) + np.shape(z))


def vartheta(s: complex) -> complex:
    """zeta(s) = vartheta(s) zeta(1-s): 2 (2 pi)^(s-1) Gamma(1-s) sin(pi s / 2)."""
    s = complex(s)
    # log-space to survive |im s| up to a few hundred
    lg = complex(_log_gamma(1.0 - s)[0])
    return 2.0 * cmath.exp((s - 1.0) * math.log(_TWO_PI) + lg) * cmath.sin(
        math.pi * s / 2.0
    )


def _root_number(theta: DirichletCharacter) -> tuple[complex, float]:
    """(epsilon, a) from ``_character_table``: only a primitive theta has the functional
    equation that defines them, and every rotated-line path refuses any other here."""
    root = _character_table(theta)[3]
    if root is None:
        raise DomainError("the functional equation needs a primitive character")
    return root


def z_factor(s: complex, theta: DirichletCharacter) -> complex:
    """Ratio L(s, theta) / L(1-s, conj theta) for primitive theta."""
    s = complex(s)
    eps, a = _root_number(theta)
    num, den = (1.0 - s + a) / 2.0, (s + a) / 2.0
    log_ratio = complex(_log_gamma(num)[0]) - complex(_log_gamma(den)[0])
    return eps * cmath.exp((0.5 - s) * math.log(theta.modulus / math.pi) + log_ratio)


def _m_line(
    theta: DirichletCharacter, t: np.ndarray, cols: np.ndarray = _ZERO_COL, ds: bool = False
) -> np.ndarray:
    """Rotated line values M = exp(-i arg Z / 2) L(1/2+it), complex, at t[i] + cols[j].

    arg Z(1/2 + it) = arg eps + t log(pi / q) - 2 im log Gamma(h + it/2) is
    continuous, with eps the root number and h = (1/2 + a) / 2 for the
    parity a.  The result is ``_l_values``' (1 + ds) x I J array rotated:
    row 0 holds M and, with ``ds``, row 1 M' = -i dM/dt analytically:
    dM/dt = exp(-i arg Z / 2) (-i (arg Z)' L / 2 + i dL/ds), where
    (arg Z)'(t) = log(pi / q) - re psi(h + it/2); so
    M' = exp(-i arg Z / 2) (dL/ds - (arg Z)' L / 2).
    """
    if not np.isfinite(t).all():
        raise DomainError("t must be finite")
    eps, a = _root_number(theta)
    pts = (t[:, None] + cols).ravel()
    lg = _log_gamma((0.5 + a) / 2 + 0.5j * pts, ds)
    log_ratio = math.log(math.pi / theta.modulus)
    arg_z = cmath.phase(eps) + pts * log_ratio - 2.0 * lg[0].imag
    # of rank 2, as out: numpy rounds a lone complex product of unequal ranks differently
    rot = np.exp(-0.5j * arg_z)[None]
    out = _l_values(theta, 0.5 + 1j * t, cols, ds)
    if ds:
        out[1] -= 0.5 * (log_ratio - lg[1].real) * out[0]
    return rot * out


def _m_raw_line(
    theta: DirichletCharacter, t: np.ndarray, step: float | None = None
) -> np.ndarray:
    """Real part of the rotated line values, after checking the rotation.

    arg Z is continuous along the whole line, so this is one continuous
    real function of t: its sign changes are the zeros on the line.  With
    ``step``, t is a scan grid t_0 + k step, k < K: one call of giant steps
    t_0 + B j step by baby steps r step, B = ceil(sqrt(K)), and one more
    for an appended last point more than 1e-9 step off it.
    """
    if step is None:
        vals = _m_line(theta, t)[0]
    else:
        off_step = len(t) > 1 and abs(t[-1] - t[0] - (len(t) - 1) * step) > 1e-9 * step
        k_len = len(t) - off_step
        b = math.isqrt(k_len - 1) + 1
        giant = t[0] + b * step * np.arange(-(-k_len // b))
        vals = _m_line(theta, giant, step * np.arange(b))[0, :k_len]
        if off_step:
            vals = np.append(vals, _m_line(theta, t[k_len:])[0])
    worst = float(np.abs(vals.imag).max())
    if worst > 1e-8:
        raise BranchError(f"rotation left imaginary residue {worst:.3e}")
    return vals.real


def m_function(t: float, psi: DirichletCharacter) -> float:
    """Real-valued rotation of L(1/2+it) under the continuous branch."""
    if t <= 0:
        raise DomainError("t must be positive")
    return float(_m_raw_line(psi, np.array([float(t)]))[0])


# ---------------------------------------------------------------------------
# zero scanning


class CriticalZero(Validated, namedtuple("CriticalZero", "gamma radius")):
    """A bracketed simple sign change of the rotated line value."""

    __slots__ = ()

    def __new__(cls, gamma: float, radius: float):
        if not radius < 1e-8:
            raise DomainError("bracket radius must be below 1e-8")
        if gamma <= 0:
            raise DomainError("ordinate must be positive")
        return super().__new__(cls, gamma, radius)


class ScanResult(Sequence, namedtuple("ScanResult", "zeros flagged panels", defaults=((), 1))):
    """Zeros found on a line segment plus any suspect flat intervals; a sequence
    of the zeros, so ``_asdict`` and ``_replace``, which iterate, do not apply."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]

    def __iter__(self) -> Iterator[CriticalZero]:
        return iter(self.zeros)

    def __getnewargs__(self):
        return self.zeros, self.flagged, self.panels


_PANEL_POINTS = 4000
# a refined zero is returned as [x - r, x + r] with this r
_ZERO_RADIUS = 0.5e-9
# a refinement pair's least radius after a miss
_PROBE_RADIUS = 1e-6
# batched line evaluations a panel's brackets may take before the scan gives up
_REFINE_STEPS = 40
# the default grid step, also `lfverify zeros --step`'s default
_STEP = 0.02
# a scan takes at most this many grid steps: 20 times the default grid to T = 1000
_MAX_GRID_STEPS = 10**6
# the largest grid step; above it the 10-point start stops closing every bracket in one call
_STEP_LIMIT = 0.05


def _sign_changes(vals: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, f_i) of each sign change from grid point i to i + 1, and the dips.

    An exact 0.0 at i takes the sign of the value at i - 1, and of
    -(value at i + 1) at i = 0; f_i is the value so signed.  A dip is an
    interior i without a sign change to i + 1 whose |value| is below
    1e-7 scale and whose (signed) value has the sign of the one at i - 1.
    """
    fa = vals[:-1].copy()
    zero = np.flatnonzero(fa == 0.0)
    if len(zero):
        prev = np.concatenate((-vals[1:2], vals[:-2]))
        fa[zero] = np.copysign(1e-300, prev[zero])
    change = fa * vals[1:] < 0
    before = np.concatenate(([0.0], vals[:-2]))
    dip = ~change & (np.abs(vals[:-1]) < 1e-7 * scale) & (fa * before > 0)
    return np.flatnonzero(change), fa[change], np.flatnonzero(dip)


def _runs(keys: np.ndarray) -> list[slice]:
    """Slices of the runs of equal values in sorted ``keys``; compared, as -inf - -inf warns."""
    starts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()] if len(keys) else []
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(keys)])]


def _cubic_root(t, f, lo, hi, flo, fhi) -> np.ndarray:
    """Per row, a root in [lo, hi] of the polynomial (a cubic for 4) through its points (t, f).

    4 Newton steps from the regula falsi point of [lo, hi] (end values flo, fhi),
    row by row in Python floats, so a row's bits do not depend on the rows
    beside it.  A row whose iterate is not finite or leaves [lo, hi], or
    that meets a zero divisor (a zero node spacing or a zero derivative),
    takes the regula falsi point instead.
    """
    rf = ((lo * fhi - hi * flo) / (fhi - flo)).tolist()
    out = []
    for ts, c, a, b, x0 in zip(t.tolist(), f.tolist(), lo.tolist(), hi.tolist(), rf):
        x = x0
        try:
            for j in range(1, len(c)):
                # k falling, so c[k - 1] still holds order j - 1
                for k in range(len(c) - 1, j - 1, -1):
                    c[k] = (c[k] - c[k - 1]) / (ts[k] - ts[k - j])
            horner = tuple(zip(ts[-2::-1], c[-2::-1]))
            for _ in range(4):
                p, dp = c[-1], 0.0
                for tj, cj in horner:
                    d = x - tj
                    dp, p = dp * d + p, p * d + cj
                x = x - p / dp
                if not a <= x <= b:
                    x = x0
                    break
        except ZeroDivisionError:
            x = x0
        out.append(x)
    return np.array(out)


def _refine(
    psi: DirichletCharacter,
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    floor: float,
    start: np.ndarray,
) -> np.ndarray:
    """Centres of certified zero brackets, each refined from its ``start`` x0.

    Each of one or more brackets [lo, hi] has end values of opposite sign (fhi may be 0).
    Every step evaluates the pair x -+ r of each open bracket in one line
    call, from x = x0 and r = ``_ZERO_RADIUS``.  A bracket closes as
    [x - r, x + r] when r is ``_ZERO_RADIUS``, the pair has the signs of lo
    and hi and both |values| are at least ``floor``.  Else the pair's points
    inside the bracket narrow it, x moves to the root in it of the cubic
    through lo, the pair and hi as they were, and r becomes ``_ZERO_RADIUS``
    after a straddle and 2 r, clipped to [``_PROBE_RADIUS``, hi - lo], after
    a miss, so a one-sided step does not stall.  ``_REFINE_STEPS`` steps
    without a close raise ConvergenceError.
    """
    lo, hi, flo, fhi, x = lo.copy(), hi.copy(), flo.copy(), fhi.copy(), start.copy()
    r, idx = np.full(len(x), _ZERO_RADIUS), np.arange(len(x))
    for _ in range(_REFINE_STEPS):
        a, b = x[idx] - r[idx], x[idx] + r[idx]
        f_pair = _m_raw_line(psi, np.concatenate((a, b)))
        fa, fb = f_pair[: len(a)], f_pair[len(a) :]
        # a narrowed end keeps its sign, so one sign of lo per step serves every test
        sign_lo = np.sign(flo[idx])
        straddle = (np.sign(fa) == sign_lo) & (np.sign(fb) == -sign_lo)
        shut = straddle & (r[idx] == _ZERO_RADIUS) & (np.abs(fa) >= floor) & (np.abs(fb) >= floor)
        if shut.all():
            return x
        idx, a, b, fa, fb, straddle, sign_lo = (
            v[~shut] for v in (idx, a, b, fa, fb, straddle, sign_lo)
        )
        t = np.stack((lo[idx], a, b, hi[idx]), axis=1)
        f = np.stack((flo[idx], fa, fb, fhi[idx]), axis=1)
        for pt, fp in ((a, fa), (b, fb)):
            inside = (lo[idx] < pt) & (pt < hi[idx])
            to_lo = inside & (np.sign(fp) == sign_lo)
            to_hi = inside & ~to_lo
            lo[idx[to_lo]], flo[idx[to_lo]] = pt[to_lo], fp[to_lo]
            hi[idx[to_hi]], fhi[idx[to_hi]] = pt[to_hi], fp[to_hi]
        x[idx] = _cubic_root(t, f, lo[idx], hi[idx], flo[idx], fhi[idx])
        probe = np.minimum(np.maximum(2 * r[idx], _PROBE_RADIUS), hi[idx] - lo[idx])
        r[idx] = np.where(straddle, _ZERO_RADIUS, probe)
    raise ConvergenceError(f"{len(idx)} zero bracket(s) open after {_REFINE_STEPS} steps")


def find_zeros(
    psi: DirichletCharacter, t_min: float, t_max: float, step: float = _STEP
) -> ScanResult:
    """Sign-change scan of the rotated line value, refined to certified brackets.

    The grid is split into panels of ``_PANEL_POINTS`` points, each
    evaluated at its own Euler-Maclaurin shift.  A panel of K points is
    one kernel call over ceil(K/B) giant steps by B = ceil(sqrt(K)) baby
    steps (see ``_m_raw_line``); when t_max is not on the step the grid
    appends it as one more point.  Consecutive panels share
    one ordinate, which takes the later panel's value; the two evaluations
    must agree or the scan raises BranchError.  A grid point where the value
    dips near zero without a sign change is flagged as a suspected double
    zero, never dropped silently (see ``_sign_changes``).

    The sign-change brackets of each panel are then refined together, so
    every line evaluation runs at that panel's shift (see ``_refine``).
    Each starts at the root of the polynomial through the 10 grid values
    around it, within rounding of the zero at the default step (the cubic
    through 4 was 1e-8 off), so a panel's brackets close in one pair of
    evaluations, with a floor of 1e-12 times the grid's median |value|.
    Each zero is returned as gamma = x, radius 0.5e-9.  More than ``_MAX_GRID_STEPS``
    steps raise DomainError, tested on the float ratio before any grid is built.
    """
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    if not 0 < step <= _STEP_LIMIT:
        raise DomainError(f"step must be positive and at most {_STEP_LIMIT:g}")
    if (t_max - t_min) / step > _MAX_GRID_STEPS:
        raise DomainError(f"step {step:g} cuts the scan into more than {_MAX_GRID_STEPS:,} steps")
    n_pts = int(math.floor((t_max - t_min) / step)) + 1
    grid = t_min + step * np.arange(n_pts)
    if grid[-1] < t_max - 1e-12:
        grid = np.append(grid, t_max)

    vals = np.empty(len(grid))
    # consecutive panels overlap in one point
    panel_starts = range(0, max(len(grid) - 1, 1), _PANEL_POINTS - 1)
    for start in panel_starts:
        seg_vals = _m_raw_line(psi, grid[start : start + _PANEL_POINTS], step)
        # the shared point takes the later panel's value once the two agree
        if start and abs(vals[start] - seg_vals[0]) > 1e-9 * (1.0 + abs(vals[start])):
            raise BranchError("panel stitch mismatch")
        vals[start : start + _PANEL_POINTS] = seg_vals

    # the median by partition: np.median would import numpy.ma
    middle = [(len(vals) - 1) // 2, len(vals) // 2]
    lower, upper = np.partition(np.abs(vals), middle)[middle]
    scale = float((lower + upper) / 2) or 1.0
    starts, flo, dips = _sign_changes(vals, scale)
    flagged = tuple((float(grid[i - 1]), float(grid[i + 1])) for i in dips)

    # the 10 grid points around each bracket, kept inside the grid; 8 were 4.4e-12 off at q = 997
    near = np.minimum(np.maximum(starts - 4, 0), max(len(grid) - 10, 0))[:, None]
    near = near + np.arange(min(len(grid), 10))
    x0 = _cubic_root(grid[near], vals[near], grid[starts], grid[starts + 1], flo, vals[starts + 1])
    panel = starts // (_PANEL_POINTS - 1)
    floor = 1e-12 * scale
    gammas = []
    for i in _runs(panel):
        ix = starts[i]
        gammas.extend(_refine(psi, grid[ix], grid[ix + 1], flo[i], vals[ix + 1], floor, x0[i]))
    zeros = tuple(CriticalZero(float(g), _ZERO_RADIUS) for g in gammas)
    return ScanResult(zeros, flagged, len(panel_starts))


# the kernel bounds its truncation at any height, but its rounding (relative 1e-12 on the line)
# is checked against mpmath only up to t = 999.9, and a scan's cost grows as T^2; the cap bounds
# alpha_hat too: the c* audit evaluates L up to 3 alpha_hat above a zero, so to t = 3999 (N = 1056)
_T_LIMIT = 1000.0
# a chunk of the c* audit spans at most one scan panel at the default step,
# so each chunk's kernel passes run at a shift fit for its own ordinates
_AUDIT_CHUNK_T = (_PANEL_POINTS - 1) * _STEP


def c_star(
    psi: DirichletCharacter, gammas: np.ndarray, alpha_hat: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c*, |M'|, |imaginary residue|) at every ordinate of ``gammas``.

    c* is the signed triple-product ratio at a zero rho with shifts
    b_j = i j alpha_hat: -i M(rho+b1) M(rho+b2) M(rho+b3) / M'(rho), where
    M' = -i dM/dt is analytic (see ``_m_line``).  The value is
    branch-independent: flipping the rotation sign flips all four factors.
    The ordinates, sorted as a scan gives them, go in runs that share a
    chunk of t no wider than ``_AUDIT_CHUNK_T``.  Per run, one ``_m_line`` call,
    zeros by shifts j alpha_hat, j < 4, gives M' at the zeros and M at the shifts.
    c* is NaN where |M'| < 1e-10 (a degenerate zero) or where
    -i M1 M2 M3 / M' has an imaginary residue above 1e-6.
    """
    if not 0 < alpha_hat <= _T_LIMIT:
        raise DomainError(f"alpha_hat must be finite, positive and at most {_T_LIMIT:g}")
    g = np.asarray(gammas, dtype=np.float64)
    m_prime = np.empty(len(g), dtype=np.complex128)
    triple = np.empty(len(g), dtype=np.complex128)
    for run in _runs(np.floor(g / _AUDIT_CHUNK_T)):
        m, m_ds = _m_line(psi, g[run], alpha_hat * np.arange(4), ds=True)
        m_prime[run] = m_ds[::4]
        triple[run] = m.reshape(-1, 4)[:, 1:].prod(axis=1)
    m_abs = np.abs(m_prime)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -1j * triple / m_prime
    residue = np.abs(val.imag)
    ratio = np.where((m_abs >= 1e-10) & (residue <= 1e-6), val.real, np.nan)
    return ratio, m_abs, residue


# ---------------------------------------------------------------------------
# export


def export_zeros_csv(
    path: str,
    scan: ScanResult,
    psi: DirichletCharacter,
    alpha_hat: float,
) -> list[tuple[str, str, str, str]]:
    """Write gamma, radius, c_star, forward_gap rows; returns the rows as written.

    The c_star column is ``c_star``'s ratio, blank where that is NaN.
    """
    zs = list(scan)
    ratios = c_star(psi, np.array([z.gamma for z in zs]), alpha_hat)[0]
    rows = []
    for i, (z, ratio) in enumerate(zip(zs, ratios)):
        gap = zs[i + 1].gamma - z.gamma if i + 1 < len(zs) else None
        cs = "" if math.isnan(ratio) else f"{ratio:.12g}"
        rows.append((f"{z.gamma:.12f}", f"{z.radius:.3e}", cs, f"{gap:.12f}" if gap else ""))
    # every field is a formatted number or empty, so no field needs quoting
    # and these are the bytes a csv writer makes
    lines = [("gamma", "radius", "c_star", "forward_gap"), *rows]
    write_text(path, "".join(",".join(line) + "\r\n" for line in lines))
    return rows
