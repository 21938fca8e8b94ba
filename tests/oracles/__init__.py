"""Reference implementations that the tests check sobomul against.

None of this is on the path of a bound or a CLI command: the adaptive
Gauss-Kronrod drivers (``gauss_kronrod``), the Laplace-method engine that
certifies the large-n expansions (``laplace``) and the real-space Macdonald
kernel with its J*K^2 moment (``macdonald``).  Pytest puts ``tests/`` on
``sys.path``, so tests import them as ``from oracles.gauss_kronrod import
integrate_finite``.
"""
