"""Upper and lower bounds for the multiplication constants of the Sobolev
algebras H^n(R^d), n > d/2, together with the special functions, quadrature
and derivative-free optimizers they are built on.
"""

from .bessel import bessel_j, bessel_k
from .bounds import (AsympConstants, BoundResult, ElementaryBoundData,
                     MinorantCoeffs, TrialParams, best_lower,
                     bessel_trial_norm_sq, bessel_trial_sq_norm_sq,
                     envelope_residual, envelope_residual_sup,
                     gaussian_trial_norm_sq,
                     k_bessel, k_bessel_minorant, k_fourier, k_fourier_fixed,
                     k_plus, k_plus_asymp_large, k_plus_asymp_small,
                     k_plus_plus, minorant_coeffs, squared_trial_minorant)
from .kernels import (BoundQuery, DomainError, bessel_macdonald_moment,
                      hyper_kernel, macdonald_profile, upper_curve,
                      upper_curve_limit)
from .laplace import LaplaceSpec, asymp_value, check_asymptotics, split_interior_max
from .optim import BracketBoundaryError, MaxResult, maximize_1d, maximize_2d
from .quad import QuadResult, TailSpec, integrate_finite, integrate_semiinf
from .specfun import (EULER_GAMMA, HyperEval, digamma, gamma, hyp2f1,
                      log_gamma, pochhammer, semifactorial)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
