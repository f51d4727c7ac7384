"""Small-modulus L-function engine.

One vectorized Euler-Maclaurin kernel evaluates sum_a c_a zeta(s, a) over
an array of s, with its s-derivative on request and a pole-free mode that
keeps a nonprincipal character sum finite at s = 1.  Each call takes the
least shift N, and then the fewest of up to 40 Bernoulli terms, at which
the explicit remainder bound is below 1e-17; it takes the residues in
blocks under a fixed memory budget.  Every value, zeta(s, a) or L(s, chi) =
q^(-s) sum_a chi(a) zeta(s, a/q) and its derivative, is one kernel call.
Around it sit the reflection and functional-equation factors, a
real-valued rotation of the L-function on the critical line, sign-change
zero scanning, the signed triple-product ratio at a zero, and the
desk-scale smoothing weights (error-function step, Gaussian window, its
oscillatory transform and Mellin integral).
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as _poly

from .characters import DirichletCharacter, gauss_sum
from .numerics import _NODES15, _WEIGHTS15, ConvergenceError, DomainError, integrate

_TWO_PI = 2.0 * math.pi

# B_2 .. B_80 as exact fractions (numerator, denominator)
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
    (8553103, 6),
    (-23749461029, 870),
    (8615841276005, 14322),
    (-7709321041217, 510),
    (2577687858367, 6),
    (-26315271553053477373, 1919190),
    (2929993913841559, 6),
    (-261082718496449122051, 13530),
    (1520097643918070802691, 1806),
    (-27833269579301024235023, 690),
    (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
    (495057205241079648212477525, 66),
    (-801165718135489957347924991853, 1590),
    (29149963634884862421418123812691, 798),
    (-2479392929313226753685415739663229, 870),
    (84483613348880041862046775994036021, 354),
    (-1215233140483755572040304994079820246041491, 56786730),
    (12300585434086858541953039857403386151, 6),
    (-106783830147866529886385444979142647942017, 510),
    (1472600022126335654051619428551932342241899101, 64722),
    (-78773130858718728141909149208474606244347001, 30),
    (1505381347333367003803076567377857208511438160235, 4686),
    (-5827954961669944110438277244641067365282488301844260429, 140100870),
    (34152417289221168014330073731472635186688307783087, 6),
    (-24655088825935372707687196040585199904365267828865801, 30),
    (414846365575400828295179035549542073492199375372400483487, 3318),
    (-4603784299479457646935574969019046849794257872751288919656867, 230010),
)

# B_2k / (2k)! for k = 1..40, each correctly rounded: the Euler-Maclaurin tail
_EM_COEFFS = np.array([n / (d * math.factorial(2 * k)) for k, (n, d) in enumerate(_BERNOULLI, 1)])

# B_2k / (2k (2k - 1)) for k = 1..8: the Stirling series of log Gamma
_STIRLING = tuple((n / d) / ((2 * k + 2) * (2 * k + 1)) for k, (n, d) in enumerate(_BERNOULLI[:8]))

# B_2k / 2k for k = 1..8: the asymptotic series of the digamma function
_DIGAMMA = tuple((n / d) / (2 * k + 2) for k, (n, d) in enumerate(_BERNOULLI[:8]))

# every kernel call bounds its Euler-Maclaurin remainder by this
_EM_TARGET = 1e-17

# complex elements in one block of the Euler-Maclaurin kernel's residues (4 MB)
_BLOCK_ELEMENTS = 1 << 18

# R x K arrays a block holds beside its R x N x K exponents: up to 12 at once
# in _em_block's ds path, and the 4 of the previous block's rows and weighted
# terms that the loop still holds
_BLOCK_ROWS = 16


class BranchError(RuntimeError):
    """Continuity or realness of the rotated line values broke down."""


# ---------------------------------------------------------------------------
# Hurwitz zeta


@functools.lru_cache(maxsize=4096)
def _em_shift(s_abs: int, sigma: float) -> tuple[int, int]:
    """(N, M): the Euler-Maclaurin shift and number of Bernoulli terms.

    For re s >= sigma and sigma + 2M - 1 > 0 the remainder after M tail
    terms at w = N + a is at most
    4 |(s)_2M| w^(1-sigma-2M) / ((2 pi)^2M (sigma + 2M - 1))
    (Johansson, Numer. Algorithms 69, 2015).  Taken at w = N and with
    |(s)_2M| <= (s_abs)_2M for |s| <= s_abs, the bound holds for every a
    in (0, 1].  N is the least N >= 10 at which it is at most
    ``_EM_TARGET`` for some M <= 40, and M the least such M there.  The
    kernel passes the largest |s| of a call rounded up to an integer, at
    least 1, so that the calls along a line share cached answers.
    """
    best = (math.inf, 0)
    log_poch = 0.0
    for m in range(1, len(_BERNOULLI) + 1):
        log_poch += math.log((s_abs + 2 * m - 2) * (s_abs + 2 * m - 1))
        e = sigma + 2 * m - 1
        if e <= 0:
            continue
        log_bound_at_1 = math.log(4.0 / (e * _EM_TARGET)) + log_poch - 2 * m * math.log(_TWO_PI)
        # the least N with bound <= target; the cap keeps exp finite near e = 0
        n = max(10, math.ceil(math.exp(min(log_bound_at_1 / e, 700.0))))
        if n < best[0]:
            best = (n, m)
    return best


def _euler_maclaurin(
    s: np.ndarray, a, weights: np.ndarray, ds: bool = False, pole_free: bool = False,
    step: Optional[float] = None,
) -> np.ndarray:
    """sum_a c_a zeta(s, a) over an array of s and a 1-d array of a, common shift N.

    N and the number M of Bernoulli terms come from ``_em_shift`` at the
    largest |s| and the least re s of the call, so the remainder is at most
    ``_EM_TARGET`` at every s.  On the critical line N is 36 at t = 100
    and 270 at t = 1000.

    zeta(s, a) = sum_{n<N} (n+a)^-s + w^(1-s)/(s-1) + w^-s/2 + tail,
    w = N + a, with the tail
    w^-s sum_{k<=M} c_k [(s)_(2k-1) / N^(2k-1)] (N / w)^(2k-1),
    c_k = B_2k / (2k)! (``_EM_COEFFS``).  The bracketed rows depend on s
    alone and are built once per call as a running product (with ``ds``,
    also its s-derivative by the product rule, which stays finite where a
    row vanishes at s = 0, -1, -2, ...); each residue meets them in one
    (1 x M) @ (M x K) product of its own ratios.
    Scaled by N, every factor stays finite at |s| = 1000 and M = 40.
    With ``pole_free`` the 1/(s-1) part of w^(1-s)/(s-1) is dropped and
    the rest summed as a series in s - 1; the dropped parts cancel across
    a nonprincipal character sum, which keeps s = 1 finite.

    ``a`` is one residue or a 1-d array of R of them, with one weight c_a
    each.  The result has shape (1, K) over the K values of s, or (2, K)
    with ``ds``, [1] holding d/ds.  A running sum (np.add.accumulate) adds
    the weighted rows in the order of a, so no row outlives its block.

    The residues go in blocks of at most _BLOCK_ELEMENTS / ((N + 16) K),
    and at least one: a residue takes N K exponents on the elementwise
    path and up to 16 rows of K (``_BLOCK_ROWS``), so a block stays near
    4 MB whatever q is.  Without the budget, ``zeros --modulus 997
    --t-max 60`` peaked at 515 MB, against 47 MB with it.
    Each row takes the floating-point operations of a one-residue call:
    - log w by math.log per residue: np.log rounds about one double in
      10^4 differently;
    - s as a 1 x K row before any complex product with a residue's
      values: numpy rounds a complex product differently when a
      broadcast of arrays of unequal rank yields one element;
    - the d/ds direct sum and the tail as one stacked product, (1 x N) @
      (N x K) and (1 x M) @ (M x K) per residue: a shared (R x M) @ (M x K)
      product rounds differently with the block's shape.

    Given ``step`` (values only, not ``ds``), s is a scan's uniform grid
    s_k = s_0 + i k step, k < K, and each residue's direct sum is one
    complex product P @ C: with k = B j + r and B = ceil(sqrt(K)),
    P[r, n] = (n+a)^-(s_0 + i r step) is B x N,
    C[n, j] = (n+a)^-(i B j step) is N x ceil(K/B), and entry (r, j) is the
    sum at s_k.  That takes N (B + K/B) exps in place of N K.  A block
    takes a stack of these per-residue products, never one product over
    all residues: such a shared product, of inner dimension R N, was no
    faster at q = 5 or 101, and it rounds differently.  A last point more
    than 1e-9 step off the progression, the t_max a scan appends off the
    step, is summed directly.
    """
    a = np.array(a, dtype=np.float64, ndmin=1)
    if not ((0.0 < a) & (a <= 1.0)).all():
        raise DomainError("a must lie in (0, 1]")
    if not pole_free and (s == 1.0).any():
        raise DomainError("pole at s = 1")
    s_abs = max(1, math.ceil(float(np.max(np.abs(s)))))
    n_shift, n_terms = _em_shift(s_abs, float(np.min(s.real)))
    # row k - 1 is c_k (s)_(2k-1) / N^(2k-1): x = s / N times the running product
    # of (s + 2j - 1)(s + 2j) / N^2 = x (x + (4j - 1) / N) + 2j (2j - 1) / N^2,
    # built in place in ``tail``, since each fresh M x K temporary page-faults
    j = np.arange(n_terms)[:, None]
    x = s / n_shift
    tail = np.empty((1 + ds, n_terms, len(s)), dtype=np.complex128)
    rows = tail[0]
    np.add(x, (4 * j - 1) / n_shift, out=rows)
    rows *= x
    rows += 2 * j * (2 * j - 1) / n_shift**2
    rows[0] = x
    if ds:
        # d/ds by the product rule as the product grows, factor k having derivative
        # (2x + (4k - 1) / N) / N; a log-derivative is 0 * inf at s = 0, -1, ...
        d_rows = tail[1]
        d_rows[0] = 1.0 / n_shift
        prod = x
        for k in range(1, n_terms):
            d_rows[k] = d_rows[k - 1] * rows[k] + prod * (2 * x + (4 * k - 1) / n_shift) / n_shift
            prod = prod * rows[k]
    np.cumprod(rows, axis=0, out=rows)
    tail *= _EM_COEFFS[:n_terms, None]
    per_block = max(1, _BLOCK_ELEMENTS // ((n_shift + _BLOCK_ROWS) * len(s)))
    total = np.zeros((1 + ds, len(s)), dtype=np.complex128)
    for i in range(0, len(a), per_block):
        block = _em_block(s, a[i : i + per_block], n_shift, tail, ds, pole_free, step)
        terms = weights[i : i + per_block, None, None] * block.swapaxes(0, 1)
        total = np.add.accumulate(np.concatenate((total[None], terms)), axis=0)[-1]
    return total


def _em_block(s, a, n_shift, tail, ds, pole_free, step) -> np.ndarray:
    """``_euler_maclaurin``'s (1 or 2, R, K) rows for one block of residues."""
    ln = np.log(np.arange(n_shift, dtype=np.float64) + a[:, None])
    if step is None:
        # exponentiated in place: each fresh R x N x K temporary page-faults
        e = ln[:, :, None] * -s
        np.exp(e, out=e)
        head = e.sum(axis=1)
    else:
        k_len = len(s)
        if k_len > 1 and abs(s[-1].imag - s[0].imag - (k_len - 1) * step) > 1e-9 * step:
            k_len -= 1
        b = math.isqrt(k_len - 1) + 1
        p_mat = np.exp(-((s[0] + 1j * step * np.arange(b))[:, None] * ln[:, None, :]))
        c_mat = np.exp(ln[:, :, None] * (-1j * b * step * np.arange(-(-k_len // b))))
        head = (p_mat @ c_mat).transpose(0, 2, 1).reshape(len(a), -1)[:, :k_len]
        if k_len < len(s):
            head = np.append(head, np.exp(-ln * s[-1]).sum(axis=1)[:, None], axis=1)
    s = s[None]
    w = n_shift + a[:, None]
    lws = [math.log(v) for v in w[:, 0]]
    lw = np.array(lws)[:, None]
    w_pow = np.exp(-s * lw)
    x = s - 1.0
    if pole_free:
        # e^(-x lw)/x - 1/x = sum over m >= 1 of (-lw)^m x^(m-1)/m!
        series = np.array([[[(-v) ** m / math.factorial(m)] for v in lws] for m in range(1, 16)])
        pole, pole_ds = (_poly.polyval(x, c, tensor=False) for c in (series, _poly.polyder(series)))
    else:
        pole = w * w_pow / x
        pole_ds = -pole * (lw + 1.0 / x) if ds else None
    # (N / w)^(2k-1): a row of M per residue, each its own 1 x M product
    ratios = (n_shift / w) ** np.arange(1, 2 * tail.shape[1], 2)
    bern = w_pow * (ratios[:, None, None, :] @ tail)[:, :, 0].swapaxes(0, 1)
    out = head + pole + 0.5 * w_pow + bern[0]
    if not ds:
        return out[None]
    out_ds = -(ln[:, None, :] @ e)[:, 0] + pole_ds - 0.5 * lw * w_pow
    return np.stack((out, out_ds + bern[1] - lw * bern[0]))


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum over n >= 0 of (n+a)^(-s), continued in s.

    The kernel's shift and order bound the truncation error by 1e-17, so
    what remains is rounding: relative 1e-12 for re s >= 1/2 and |im s| up
    to 1e3.  Left of re s = 1/2 the direct sum cancels: against mpmath the
    error is about 1e-12 at re s = 0, |im s| near 1e3, and up to 1e-8 near
    the zeros of zeta(s, a) on the negative real axis (9e-9 at s = -2.997,
    a = 0.235).
    """
    return _euler_maclaurin(np.array([s], dtype=complex), a, np.ones(1)).item()


# ---------------------------------------------------------------------------
# Dirichlet L


def _l_values(
    chi: DirichletCharacter, s: np.ndarray, step: Optional[float] = None, ds: bool = False
) -> np.ndarray:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q) over an array of s.

    One kernel call over the residues a with chi(a) != 0 sums
    chi(a) zeta(s, a/q) in the order of a.  ``step`` marks s as a uniform
    grid on a vertical line for the kernel's product path.  With ``ds``
    the result is the 2 x len(s) array of L and dL/ds.  A nonprincipal chi
    with every s within 1e-1 of 1 takes the pole-free expansion, whose
    15-term series in s - 1 ends below 1e-19 there; a principal one keeps
    its genuine pole.
    """
    q = chi.modulus
    pole_free = not chi.is_principal and bool((np.abs(s - 1.0) < 1e-1).all())
    c = np.array([chi(a) for a in range(1, q + 1)], dtype=np.complex128)
    a = np.flatnonzero(c) + 1
    total = np.exp(-s * math.log(q)) * _euler_maclaurin(s, a / q, c[a - 1], ds, pole_free, step)
    if not ds:
        return total[0]
    total[1] -= math.log(q) * total[0]
    return total


def l_function(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q).

    At s = 1 a nonprincipal character is evaluated by the pole-free
    expansion; a principal one is a genuine pole.
    """
    return complex(_l_values(chi, np.array([complex(s)]))[0])


def l_function_ds(s: complex, chi: DirichletCharacter) -> complex:
    """d/ds L(s, chi), with the same pole-free route near s = 1."""
    return complex(_l_values(chi, np.array([complex(s)]), ds=True)[1, 0])


# ---------------------------------------------------------------------------
# reflection and functional-equation factors


def _shift_small(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(flat z, mask of the shifted elements, w, N) for the Stirling series.

    The elements with |z| < 10 or re z < 0 are shifted to w = z + N with
    N = ceil(10 - min re z) over those elements alone; the others keep
    w = z.  Then re w >= 10, or |w| >= 10 and re w >= 0.
    """
    # 1-d, so the shifted elements can be assigned into
    flat = np.asarray(z, dtype=np.complex128).ravel()
    small = (np.abs(flat) < 10.0) | (flat.real < 0.0)
    w = flat.copy()
    n = 0
    if small.any():
        n = math.ceil(10.0 - float(flat.real[small].min()))
        w[small] += n
    return flat, small, w, n


def _log_gamma(z) -> np.ndarray:
    """Principal log Gamma(z) over an array, cut on the negative real axis.

    The small elements are shifted by ``_shift_small`` and
    sum_{k<N} log(z + k) in principal logs is subtracted from them: each
    z + k stays in the half-plane of z, so the sum follows the principal
    branch.  The 8-term Stirling series is accurate to about 1e-16 at the
    shifted w.  A 0-d input gives a 0-d array.
    """
    flat, small, w, n = _shift_small(z)
    r = 1.0 / w
    r2 = r * r
    # Horner by hand: polyval's overhead is most of a short array's cost
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = c + series * r2
    out = (w - 0.5) * np.log(w) - w + 0.5 * math.log(_TWO_PI) + r * series
    if n:
        out[small] -= np.log(flat[small][:, None] + np.arange(n)).sum(axis=-1)
    return out.reshape(np.shape(z))


def _digamma(z) -> np.ndarray:
    """psi(z) = d/dz log Gamma(z) over an array, the twin of ``_log_gamma``.

    The small elements are shifted by ``_shift_small`` and
    sum_{k<N} 1/(z + k) is subtracted from them; at the shifted w the
    series log w - 1/(2w) - sum_k B_2k / (2k w^2k), k = 1..8, is accurate
    to about 1e-17.  A 0-d input gives a 0-d array.
    """
    flat, small, w, n = _shift_small(z)
    r2 = 1.0 / (w * w)
    series = _DIGAMMA[-1]
    for c in _DIGAMMA[-2::-1]:
        series = c + series * r2
    out = np.log(w) - 0.5 / w - r2 * series
    if n:
        out[small] -= (1.0 / (flat[small][:, None] + np.arange(n))).sum(axis=-1)
    return out.reshape(np.shape(z))


def vartheta(s: complex) -> complex:
    """zeta(s) = vartheta(s) zeta(1-s): 2 (2 pi)^(s-1) Gamma(1-s) sin(pi s / 2)."""
    s = complex(s)
    if s.imag == 0 and s.real >= 1 and s.real == int(s.real):
        raise DomainError("Gamma pole")
    # log-space to survive |im s| up to a few hundred
    lg = complex(_log_gamma(1.0 - s))
    return 2.0 * cmath.exp((s - 1.0) * math.log(_TWO_PI) + lg) * cmath.sin(
        math.pi * s / 2.0
    )


def _root_number(theta: DirichletCharacter) -> tuple[complex, float]:
    """(epsilon, half_arg) for the completed-equation phase on the line."""
    q = theta.modulus
    tau = gauss_sum(theta)
    if theta.parity == 1:
        return tau / math.sqrt(q), 0.25
    return -1j * tau / math.sqrt(q), 0.75


def z_factor(s: complex, theta: DirichletCharacter) -> complex:
    """Ratio L(s, theta) / L(1-s, conj theta) for primitive theta."""
    if not theta.primitive:
        raise DomainError("z_factor needs a primitive character")
    s = complex(s)
    eps, _ = _root_number(theta)
    a = 0.0 if theta.parity == 1 else 1.0
    num, den = (1.0 - s + a) / 2.0, (s + a) / 2.0
    for pole_arg in (num, den):
        if pole_arg.imag == 0 and pole_arg.real <= 0 and pole_arg.real == int(pole_arg.real):
            raise DomainError("Gamma pole in the equation factor")
    log_ratio = complex(_log_gamma(num)) - complex(_log_gamma(den))
    return eps * cmath.exp((0.5 - s) * math.log(theta.modulus / math.pi) + log_ratio)


def _m_line(
    theta: DirichletCharacter, t: np.ndarray, step: Optional[float] = None, ds: bool = False
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Rotated line values M = exp(-i arg Z / 2) L(1/2+it), complex, over a t-grid.

    arg Z(1/2 + it) = arg eps + t log(pi / q) - 2 im log Gamma(h + it/2) is
    continuous, with (eps, h) the root number and its half-argument.
    With ``ds`` it returns (M, M'), M' = -i dM/dt analytically:
    dM/dt = exp(-i arg Z / 2) (-i (arg Z)' L / 2 + i dL/ds), where
    (arg Z)'(t) = log(pi / q) - re psi(h + it/2); so
    M' = exp(-i arg Z / 2) (dL/ds - (arg Z)' L / 2).
    """
    eps, half_arg = _root_number(theta)
    lg = _log_gamma(half_arg + 0.5j * t)
    arg_z = cmath.phase(eps) + t * math.log(math.pi / theta.modulus) - 2.0 * np.imag(lg)
    rot = np.exp(-0.5j * arg_z)
    if not ds:
        return rot * _l_values(theta, 0.5 + 1j * t, step)
    l_val, l_ds = _l_values(theta, 0.5 + 1j * t, ds=True)
    arg_ds = math.log(math.pi / theta.modulus) - _digamma(half_arg + 0.5j * t).real
    return rot * l_val, rot * (l_ds - 0.5 * arg_ds * l_val)


def _m_raw_line(
    theta: DirichletCharacter, t: np.ndarray, step: Optional[float] = None
) -> np.ndarray:
    """Real part of the rotated line values, after checking the rotation.

    arg Z is continuous along the whole line, so this is one continuous
    real function of t: its sign changes are the zeros on the line.
    """
    vals = _m_line(theta, t, step)
    worst = float(np.max(np.abs(vals.imag))) if len(vals) else 0.0
    if worst > 1e-8:
        raise BranchError(f"rotation left imaginary residue {worst:.3e}")
    return vals.real


def m_function(t: float, psi: DirichletCharacter) -> float:
    """Real-valued rotation of L(1/2+it) under the continuous branch."""
    if t <= 0:
        raise DomainError("t must be positive")
    if not psi.primitive:
        raise DomainError("m_function needs a primitive character")
    return float(_m_raw_line(psi, np.array([float(t)]))[0])


# ---------------------------------------------------------------------------
# zero scanning


@dataclass(frozen=True)
class CriticalZero:
    """A bracketed simple sign change of the rotated line value."""

    gamma: float
    radius: float

    def __post_init__(self):
        if not self.radius < 1e-8:
            raise DomainError("bracket radius must be below 1e-8")
        if self.gamma <= 0:
            raise DomainError("ordinate must be positive")


@dataclass(frozen=True)
class ScanResult(Sequence):
    """Zeros found on a line segment plus any suspect flat intervals."""

    zeros: tuple[CriticalZero, ...]
    flagged: tuple[tuple[float, float], ...] = ()
    panels: int = 1

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]

    def __iter__(self) -> Iterator[CriticalZero]:
        return iter(self.zeros)


_PANEL_POINTS = 4000
# a refined zero is returned as [x - r, x + r] with this r
_ZERO_RADIUS = 0.5e-9
# a refinement pair's radius at the cubic start and after a straddle of a wider bracket
_PROBE_RADIUS = 1e-6
# batched line evaluations a panel's brackets may take before the scan gives up
_REFINE_STEPS = 40


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


def _cubic_root(t, f, lo, hi, flo, fhi) -> np.ndarray:
    """Per row, a root in [lo, hi] of the polynomial (a cubic for 4) through its points (t, f).

    4 Newton steps from the regula falsi point of [lo, hi] (end values flo, fhi);
    a row whose iterate is not finite or leaves [lo, hi] takes that point instead.
    """
    rf = (lo * fhi - hi * flo) / (fhi - flo)
    c = f.copy()
    x, kept = rf, np.ones(len(rf), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(1, c.shape[1]):
            c[:, j:] = (c[:, j:] - c[:, j - 1 : -1]) / (t[:, j:] - t[:, :-j])
        for _ in range(4):
            p, dp = c[:, -1], 0.0
            for j in range(c.shape[1] - 2, -1, -1):
                d = x - t[:, j]
                dp, p = dp * d + p, p * d + c[:, j]
            x = x - p / dp
            kept &= (lo <= x) & (x <= hi)
    return np.where(kept, x, rf)


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

    Each bracket [lo, hi] has end values of opposite sign (fhi may be 0).
    Every step evaluates the pair x -+ r of each open bracket in one line
    call, from x = x0 and r = ``_PROBE_RADIUS``.  A bracket closes as
    [x - r, x + r], r not clipped, when r is ``_ZERO_RADIUS``, the pair has
    the signs of lo and hi and both |values| are at least ``floor``.  Else
    the pair's points inside the bracket narrow it, x moves to the root in
    it of the cubic through lo, the pair and hi as they were, and r becomes
    ``_ZERO_RADIUS`` after a straddle that leaves it narrower than
    3 ``_PROBE_RADIUS``, ``_PROBE_RADIUS`` after a wider straddle, and
    min(2 r, hi - lo) after a miss, which keeps a one-sided step from
    stalling.  ``_REFINE_STEPS`` steps without a close raise ConvergenceError.
    """
    lo, hi, flo, fhi, x = lo.copy(), hi.copy(), flo.copy(), fhi.copy(), start.copy()
    r, idx = np.full(len(x), _PROBE_RADIUS), np.arange(len(x))
    if not len(idx):
        return x
    for _ in range(_REFINE_STEPS):
        a, b = x[idx] - r[idx], x[idx] + r[idx]
        fa, fb = np.split(_m_raw_line(psi, np.concatenate((a, b))), 2)
        straddle = (np.sign(fa) == np.sign(flo[idx])) & (np.sign(fb) == -np.sign(flo[idx]))
        shut = straddle & (r[idx] == _ZERO_RADIUS) & (np.abs(fa) >= floor) & (np.abs(fb) >= floor)
        if shut.all():
            return x
        idx, a, b, fa, fb, straddle = (v[~shut] for v in (idx, a, b, fa, fb, straddle))
        t = np.stack((lo[idx], a, b, hi[idx]), axis=1)
        f = np.stack((flo[idx], fa, fb, fhi[idx]), axis=1)
        for pt, fp in ((a, fa), (b, fb)):
            inside = (lo[idx] < pt) & (pt < hi[idx])
            to_lo = inside & (np.sign(fp) == np.sign(flo[idx]))
            to_hi = inside & ~to_lo
            lo[idx[to_lo]], flo[idx[to_lo]] = pt[to_lo], fp[to_lo]
            hi[idx[to_hi]], fhi[idx[to_hi]] = pt[to_hi], fp[to_hi]
        x[idx] = _cubic_root(t, f, lo[idx], hi[idx], flo[idx], fhi[idx])
        width = hi[idx] - lo[idx]
        near = np.where(width < 3 * _PROBE_RADIUS, _ZERO_RADIUS, _PROBE_RADIUS)
        r[idx] = np.where(straddle, near, np.minimum(2 * r[idx], width))
    raise ConvergenceError(f"{len(idx)} zero bracket(s) open after {_REFINE_STEPS} steps", x)


def find_zeros(
    psi: DirichletCharacter, t_min: float, t_max: float, step: float = 0.02
) -> ScanResult:
    """Sign-change scan of the rotated line value, refined to certified brackets.

    The grid is split into panels of ``_PANEL_POINTS`` points, each
    evaluated at its own Euler-Maclaurin shift.  A panel of K points takes
    each residue's direct sum as one product of a B x N by an
    N x ceil(K/B) matrix, B = ceil(sqrt(K)) (see ``_euler_maclaurin``);
    when t_max is not on the step the grid appends it, and the kernel sums
    that off-step endpoint directly.  Consecutive panels share
    one ordinate, which takes the later panel's value; the two evaluations
    must agree or the scan raises BranchError.  A grid point where the value
    dips near zero without a sign change is flagged as a suspected double
    zero, never dropped silently (see ``_sign_changes``).

    The sign-change brackets of each panel are then refined together, so
    every line evaluation runs at that panel's shift (see ``_refine``).
    Each starts at the root of the cubic through the 4 grid values around
    it, whose error is O(step^4), 1e-8 typically at the default step; most
    close in two pairs of evaluations, with a floor of 1e-12 times the
    grid's median |value|.  Each zero is returned as gamma = x, radius 0.5e-9.
    """
    if not psi.primitive:
        raise DomainError("scan needs a primitive character")
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    if not 0 < step <= 0.05:
        raise DomainError("step must be positive and at most 0.05")
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
    scale = float(np.partition(np.abs(vals), middle)[middle].mean()) or 1.0
    starts, flo, dips = _sign_changes(vals, scale)
    flagged = tuple((float(grid[i - 1]), float(grid[i + 1])) for i in dips)

    # the 4 grid points around each bracket, kept inside the grid at its ends
    near = np.clip(starts - 1, 0, max(len(grid) - 4, 0))[:, None] + np.arange(min(len(grid), 4))
    x0 = _cubic_root(grid[near], vals[near], grid[starts], grid[starts + 1], flo, vals[starts + 1])
    panel = starts // (_PANEL_POINTS - 1)
    floor = 1e-12 * scale
    gammas = []
    for i in np.split(np.arange(len(panel)), np.flatnonzero(np.diff(panel)) + 1):
        ix = starts[i]
        gammas.extend(_refine(psi, grid[ix], grid[ix + 1], flo[i], vals[ix + 1], floor, x0[i]))
    zeros = tuple(CriticalZero(float(g), _ZERO_RADIUS) for g in gammas)
    return ScanResult(zeros, flagged, len(panel_starts))


# the line values' accuracy is checked up to this height, and the c* audit
# evaluates L up to 3 alpha_hat above a zero, so it caps alpha_hat too
_T_LIMIT = 1000.0
# a chunk of the c* audit spans at most one scan panel at the default step,
# so each chunk's kernel passes run at a shift fit for its own ordinates
_AUDIT_CHUNK_T = (_PANEL_POINTS - 1) * 0.02


def _c_star_batch(
    psi: DirichletCharacter, gammas: np.ndarray, alpha_hat: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c*, |M'|, |imaginary residue|) at every ordinate of ``gammas``.

    The ordinates, sorted as a scan gives them, go in runs that share a
    chunk of t no wider than ``_AUDIT_CHUNK_T``.  Per run, one ``_m_line``
    call with ``ds`` gives M' at the zeros and M at the 3 shifted points.
    c* is NaN where |M'| < 1e-10 (a degenerate zero) or where
    -i M1 M2 M3 / M' has an imaginary residue above 1e-6.
    """
    if not 0 < alpha_hat <= _T_LIMIT:
        raise DomainError(f"alpha_hat must be finite, positive and at most {_T_LIMIT:g}")
    g = np.asarray(gammas, dtype=np.float64)
    m_prime = np.empty(len(g), dtype=np.complex128)
    triple = np.empty(len(g), dtype=np.complex128)
    chunk = np.floor(g / _AUDIT_CHUNK_T)
    runs = np.split(np.arange(len(g)), np.flatnonzero(np.diff(chunk)) + 1) if len(g) else []
    for idx in runs:
        # row j of pts is the run's zeros shifted by j alpha_hat
        pts = g[idx] + alpha_hat * np.arange(4)[:, None]
        m, m_ds = _m_line(psi, pts.ravel(), ds=True)
        m_prime[idx] = m_ds[: len(idx)]
        triple[idx] = m[len(idx) :].reshape(3, -1).prod(axis=0)
    m_abs = np.abs(m_prime)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -1j * triple / m_prime
    residue = np.abs(val.imag)
    ratio = np.where((m_abs >= 1e-10) & (residue <= 1e-6), val.real, np.nan)
    return ratio, m_abs, residue


def c_star(rho: CriticalZero, psi: DirichletCharacter, alpha_hat: float) -> float:
    """Signed triple-product ratio at a zero with shifts i j alpha_hat.

    -i M(rho+b1) M(rho+b2) M(rho+b3) / M'(rho), where b_j = i j alpha_hat and
    M' = -i dM/dt is analytic (see ``_m_line``).  The value is
    branch-independent: flipping the rotation sign flips all four factors.
    This is ``_c_star_batch`` at one zero; it raises DomainError where
    |M'| < 1e-10 and BranchError where the imaginary residue exceeds 1e-6.
    """
    ratio, m_abs, residue = _c_star_batch(psi, np.array([rho.gamma]), alpha_hat)
    if m_abs[0] < 1e-10:
        raise DomainError("degenerate zero: derivative vanishes")
    if not residue[0] <= 1e-6:
        raise BranchError(f"triple product not real: residue {residue[0]:.3e}")
    return float(ratio[0])


# ---------------------------------------------------------------------------
# smoothing weights


@dataclass(frozen=True)
class WeightParams:
    """Desk-scale stand-ins for the smoothing parameters.

    t0 of at least 10 * L2 keeps the window comfortably oscillatory; the
    narrow-window accuracy of the transform, by contrast, improves only as
    t0 / L2^2 shrinks.
    """

    S: float = 10.0
    L2: float = 50.0
    t0: float = 2000.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.S, self.L2, self.t0)):
            raise DomainError("all weight parameters must be positive and finite")

    @property
    def s0(self) -> complex:
        return 0.5 + _TWO_PI * 1j * self.t0


def g_weight(x: float, s_param: float) -> float:
    """Smooth step (1 + erf(S log x)) / 2; complements to 1 under x -> 1/x."""
    if x <= 0:
        raise DomainError("x must be positive")
    if s_param <= 0:
        raise DomainError("smoothing must be positive")
    return 0.5 * (1.0 + math.erf(s_param * math.log(x)))


def omega_weight(s: complex, p: WeightParams) -> complex:
    """Gaussian window sqrt(pi)/L2 * exp((s - s0)^2 / (4 L2^2))."""
    d = complex(s) - p.s0
    return math.sqrt(math.pi) / p.L2 * cmath.exp(d * d / (4.0 * p.L2 * p.L2))


# just past this U, delta_mellin's e^(1.042 U) and then delta_fn's cosh U overflow;
# the panel counts, growing as e^U, are far past ``_MAX_PANELS`` at any desk t0
_U_MAX = 680.0


def _u_cut(p: WeightParams) -> float:
    """U where the Gaussian factor drops below 1e-16; DomainError past ``_U_MAX``."""
    u = math.sqrt(16.0 * math.log(10.0)) / p.L2
    if u > _U_MAX:
        raise DomainError(
            f"L2 = {p.L2:.3g} puts U at {u:.4g}, past {_U_MAX:g}, where the "
            "transform's panel count nears float range"
        )
    return u


# the transforms' panels grow as e^U, U = ``_u_cut(p)``: L2 = 2 at t0 = 60 needs 14,668
_MAX_PANELS = 10_000


def _panel_count(radians: float) -> int:
    """One panel per 12 radians of phase and at least 8; DomainError past ``_MAX_PANELS``."""
    if not radians / 12.0 < _MAX_PANELS:
        raise DomainError(f"the transform needs {radians / 12.0:.3g} panels, above {_MAX_PANELS}")
    return max(8, int(radians / 12.0) + 1)


def delta_fn(x: Union[float, np.ndarray], p: WeightParams) -> Union[complex, np.ndarray]:
    """Oscillatory transform of the window at frequency x, for a number or an array.

    The integral of exp(s0 u - L2^2 u^2 - 2 pi i x (e^u - 1)) over
    [-U, U], U = ``_u_cut(p)``, by one fixed 15-point Gauss-Legendre rule.
    Its equal panels are sized by the phase 2 pi (t0 u - x (e^u - 1)),
    whose total variation over [-U, U] is 2 pi V(x) with
    V(x) = 2 t0 u* + x (2 cosh U - 2 e^u*), u* = clip(log(t0 / x), -U, U):
    one panel per 12 radians of the largest variation in the batch, and at
    least 8.  More than ``_MAX_PANELS`` panels raise DomainError.
    """
    xs = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(xs) & (xs > 0)).all():
        raise DomainError("x must be positive and finite")
    umax = _u_cut(p)
    u_star = np.clip(np.log(p.t0 / xs), -umax, umax)
    variation = 2.0 * p.t0 * u_star + xs * (2.0 * math.cosh(umax) - 2.0 * np.exp(u_star))
    n_panels = _panel_count(_TWO_PI * float(variation.max()))
    edges = np.linspace(-umax, umax, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * _NODES15[None, :]).ravel()
    weights = (half * np.broadcast_to(_WEIGHTS15, (n_panels, 15))).ravel()
    base = np.exp(p.s0 * nodes - (p.L2 * nodes) ** 2) * weights
    osc = np.exp(-_TWO_PI * 1j * np.outer(np.exp(nodes) - 1.0, xs.ravel()))
    out = base @ osc
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def delta_mellin(s: complex, p: WeightParams) -> complex:
    """Mellin integral of delta_fn(x) x^(s-1) over the transform's effective support.

    The transform lives where log(x / t0) is within a few 1/L2 (narrow
    window, large t0) or where x - t0 is within a few L2 (wide window,
    decoherence of the slowly-turning phase); the x-range is the union of
    both, cut where the induced Gaussian drops below 1e-16.  The integral
    is taken by equal 15-point Gauss-Legendre panels, each panel's
    abscissae passed to delta_fn as one array.  They are sized by the
    phase: delta_fn(x) turns at most 2 pi (e^U - 1) per unit of x,
    U = ``_u_cut(p)``, and x^(s-1) adds |Im s| log(x_hi / x_lo) over the
    range; one panel per 12 radians of the sum, and at least 8.  More
    than ``_MAX_PANELS`` panels raise DomainError before any evaluation.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    umax = _u_cut(p)
    c = math.sqrt(40.0) / p.L2
    w_add = math.sqrt(40.0) * p.L2 / math.pi
    x_lo = max(1e-12, min(p.t0 * math.exp(-c), p.t0 - w_add))
    x_hi = max(p.t0 * math.exp(c), p.t0 + w_add)
    turn = _TWO_PI * math.expm1(umax)
    variation = turn * (x_hi - x_lo) + abs(s.imag) * math.log(x_hi / x_lo)
    n_panels = _panel_count(variation)

    def f(x):
        return delta_fn(x, p) * np.exp((s - 1.0) * np.log(x))

    return integrate(f, x_lo, x_hi, n_panels).value


# ---------------------------------------------------------------------------
# export


def export_zeros_csv(
    path: str,
    scan: ScanResult,
    psi: DirichletCharacter,
    alpha_hat: float,
) -> int:
    """Write gamma, radius, c_star, forward_gap rows; returns the row count.

    c_star comes from ``_c_star_batch`` and is blank where that gives NaN.
    """
    zs = list(scan)
    ratios = _c_star_batch(psi, np.array([z.gamma for z in zs]), alpha_hat)[0]
    rows = []
    for i, (z, ratio) in enumerate(zip(zs, ratios)):
        gap = zs[i + 1].gamma - z.gamma if i + 1 < len(zs) else None
        cs = "" if math.isnan(ratio) else f"{ratio:.12g}"
        rows.append((f"{z.gamma:.12f}", f"{z.radius:.3e}", cs, f"{gap:.12f}" if gap else ""))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("gamma", "radius", "c_star", "forward_gap"))
        writer.writerows(rows)
    return len(rows)
