"""Reference implementations that the tests check sobomul against.

None of this is on the path of a bound or a CLI command: the general
real 2F1, used wherever a test needs 2F1 outside the bounds' family that
``sobomul.specfun.hyp2f1`` serves (``hyp2f1``), the adaptive Gauss-Kronrod
drivers (``gauss_kronrod``), the Laplace-method engine that
certifies the large-n expansions (``laplace``), the real-space Macdonald
kernel with its J*K^2 moment (``macdonald``), the derivative-free 2-D
simplex that the (F) search replaced (``nelder_mead``), Brent's 1-D
search that the (B) and (BB) lambda searches replaced (``brent``), the
one-term-at-a-time 2F1 series loop that the block series must reproduce
bit for bit (``series_loop``) and the residual scan run one gap at a
time through the scalar K+, residual and K++ (``residual_scan``).  Pytest
puts ``tests/`` on ``sys.path``, so tests import them as ``from
oracles.gauss_kronrod import integrate_finite``.
"""
