"""Upper and lower bounds for the multiplication constants of the Sobolev
algebras H^n(R^d), n > d/2, together with the special functions, the
kernel's tanh-sinh rule and the Newton searches they are built on.  Of
Gamma it keeps only ``log_gamma``; the constants that need Gamma or
digamma at d/2 take ``math.gamma`` and a harmonic sum.  Of 2F1 it keeps
only the family F(-n, d/2; c; 1 - t lam^2) of the (B) and (BB) norms,
summed as a series on each of its paths.

The package holds only what the bounds and the command line call.  The
tests' reference implementations (the general real 2F1, adaptive
Gauss-Kronrod quadrature, the Laplace-method engine, the real-space
Macdonald kernel) live under ``tests/oracles/``.
"""

from .bounds import (AsympConstants, BoundResult, ElementaryBoundData,
                     MinorantCoeffs, TrialParams, best_lower,
                     bessel_trial_norm_sq, bessel_trial_sq_norm_sq,
                     envelope_residual, envelope_residual_sup,
                     gaussian_trial_norm_sq,
                     k_bessel, k_bessel_minorant, k_fourier, k_fourier_fixed,
                     k_plus, k_plus_asymp_large, k_plus_asymp_small,
                     k_plus_plus, minorant_coeffs, squared_trial_minorant)
from .kernels import (BoundQuery, DomainError, hyper_kernel, upper_curve,
                      upper_curve_limit)
from .optim import BracketBoundaryError, MaxResult, maximize_2d
from .specfun import HyperEval, hyp2f1, log_gamma

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
