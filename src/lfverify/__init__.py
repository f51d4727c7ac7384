"""Verification toolkit for an explicit zero-repulsion contradiction argument.

The package recomputes, from first principles and at desk scale, every
explicitly checkable object the argument rests on:

* ``kernels`` / ``numerics``: the limit kernel closed forms, and the one
  quadrature rule, equal 15-point Gauss-Legendre panels, behind the
  constants and the window transforms;
* ``contradiction``: the full constant pipeline and the claimed
  inequality chain, reported rather than asserted;
* ``characters`` / ``eulerprod``: Dirichlet characters, the arithmetic
  coefficient layer, and exactly checkable per-prime identities;
* ``lfunc``: small-modulus L-functions, critical-line scans, the
  triple-product ratio at zeros, and the smoothing-weight transforms;
* ``cli``: the ``lfverify`` command with JSON/markdown/CSV reports.
"""

from .numerics import ConvergenceError, DomainError, QuadratureResult, integrate
from .kernels import KernelId, LimitModel, default_model, eval_f, eval_g, eval_w, eval_y
from .contradiction import (
    ConstantTable,
    VerificationRecord,
    VerificationReport,
    run_verification,
)
from .characters import DirichletCharacter, primitive_characters, real_primitive_character
from .eulerprod import IDENTITY_CASES, LocalFactorParams, check_local_identity
from .lfunc import (
    BranchError,
    CriticalZero,
    ScanResult,
    WeightParams,
    c_star,
    find_zeros,
    l_function,
    m_function,
)

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "ConstantTable",
    "ConvergenceError",
    "CriticalZero",
    "DirichletCharacter",
    "DomainError",
    "IDENTITY_CASES",
    "KernelId",
    "LimitModel",
    "LocalFactorParams",
    "QuadratureResult",
    "ScanResult",
    "VerificationRecord",
    "VerificationReport",
    "WeightParams",
    "c_star",
    "check_local_identity",
    "default_model",
    "eval_f",
    "eval_g",
    "eval_w",
    "eval_y",
    "find_zeros",
    "integrate",
    "l_function",
    "m_function",
    "primitive_characters",
    "real_primitive_character",
    "run_verification",
    "__version__",
]
