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

The package itself exports only ``__version__``; import the submodules
directly.  Importing the package loads none of them, so each command loads
only what it runs.
"""

__version__ = "0.1.0"
