"""Laplace-asymptotics engine: expansion sums, residual ladders, interior
splits and the cancellation structure of paired branches."""

import math

import numpy as np
import pytest

from oracles import laplace as L


def test_asymp_value_leading_term():
    # sqrt(3) Gamma(1/2) / sqrt(m) = sqrt(3 pi / m)
    spec = L.upper_tail_spec()
    for m in (50.0, 400.0):
        assert L.asymp_value(spec, m) == pytest.approx(math.sqrt(3.0 * math.pi / m),
                                                       rel=1e-13)


def test_asymp_value_empty_expansion():
    spec = L.LaplaceSpec(amplitude=lambda t: t, phase=lambda t: t, b=1.0)
    assert L.asymp_value(spec, 100.0, 0) == 0.0
    with pytest.raises(ValueError):
        L.asymp_value(spec, 100.0, 1)


def test_asymp_value_scaling():
    # the leading term scales exactly like 1/sqrt(n)
    spec = L.upper_tail_spec()
    assert L.asymp_value(spec, 200.0, 1) == pytest.approx(
        L.asymp_value(spec, 100.0, 1) / math.sqrt(2.0), rel=1e-13)


def test_split_coefficients_match_declared_form():
    # minus branch leading amplitude 3 / (2 sqrt 5 2^(alpha/2+1/2))
    alpha = 0.5
    minus, plus, _ = L.plane_wave_split_specs(alpha, doubled=False)
    want = 3.0 / (2.0 * math.sqrt(5.0) * 2.0 ** (alpha / 2.0 + 0.5))
    assert minus.expansion[0] == (pytest.approx(want, rel=1e-13), 0.5)
    assert plus.expansion[0] == (pytest.approx(want, rel=1e-13), 0.5)
    # next-order coefficients are equal and opposite
    assert minus.expansion[1][0] == pytest.approx(-plus.expansion[1][0], rel=1e-13)


def test_phase_minimum_values():
    _, _, phi1 = L.plane_wave_split_specs(0.5, doubled=False)
    assert phi1 == pytest.approx(1.0 / 6.0 - math.log(1.5), rel=1e-14)
    _, _, phi2 = L.plane_wave_split_specs(0.5, doubled=True)
    assert phi2 == pytest.approx(1.0 / 3.0 - math.log(3.0), rel=1e-14)


def test_split_symmetric_parabola():
    # Phi = (s-1)^2, Theta = 1 on (0, 2): both branch phases are t^2
    minus, plus = L.split_interior_max(lambda s: np.ones_like(s),
                                       lambda s: (s - 1.0) ** 2,
                                       a=0.0, c=2.0, h=1.0)
    t = np.array([0.3])
    assert minus.phase(t)[0] == pytest.approx(0.09, abs=1e-14)
    assert plus.phase(t)[0] == pytest.approx(0.09, abs=1e-14)
    assert minus.b == pytest.approx(1.0) and plus.b == pytest.approx(1.0)


def test_split_monotonicity_violation_detected():
    with pytest.raises(ValueError):
        L.split_interior_max(lambda s: np.ones_like(s), np.sin,
                             a=0.0, c=6.0, h=1.0)


def test_tail_spec_residual_ladder():
    rep = L.check_asymptotics(L.upper_tail_spec(), [50, 100, 200, 400])
    assert rep["bounded"]
    # quadrature at m = 400 is within 1% of the leading law
    assert abs(rep["quadrature"][-1] / rep["asymptotic"][-1] - 1.0) < 0.01


def test_centre_spec_residual_ladder():
    rep = L.check_asymptotics(L.upper_centre_spec(2), [50, 100, 200, 400])
    assert rep["bounded"]


def test_doubled_plane_wave_law():
    # X(n) at alpha = 1/2 matches 3 sqrt(pi/7) 2^(alpha/4...) 3^n e^(-n/3)/sqrt(n)
    alpha = 0.5
    minus, plus, phi_min = L.plane_wave_split_specs(alpha, doubled=True)
    for n in (100.0, 200.0):
        x_quad = math.exp(-n * phi_min) * (L.quad_value(minus, n)
                                           + L.quad_value(plus, n))
        want = (3.0 * math.sqrt(math.pi / 7.0) * 2.0 ** (alpha / 2.0)
                * math.exp(n * math.log(3.0) - n / 3.0) / math.sqrt(n))
        assert abs(x_quad / want - 1.0) < 0.02


def test_branch_cancellation():
    # summed branches: residual * n^(3/2) stays bounded (the 1/n terms are
    # opposite); a single branch keeps its 1/n term and the same scaling
    # grows like sqrt(n).
    minus, plus, _ = L.plane_wave_split_specs(0.5, doubled=False)
    ns = [50.0, 100.0, 200.0, 400.0]
    summed, single = [], []
    for n in ns:
        s = L.quad_value(minus, n) + L.quad_value(plus, n)
        a = L.asymp_value(minus, n, 1) + L.asymp_value(plus, n, 1)
        summed.append(abs(s - a) * n ** 1.5)
        single.append(abs(L.quad_value(minus, n) - L.asymp_value(minus, n, 1))
                      * n ** 1.5)
    assert max(summed) <= 3.0 * summed[0]
    assert single[-1] > 2.0 * single[0]  # ~ sqrt(8) growth over the ladder


def test_check_asymptotics_input_validation():
    spec = L.upper_tail_spec()
    with pytest.raises(ValueError):
        L.check_asymptotics(spec, [100.0])
    bare = L.LaplaceSpec(amplitude=lambda t: t, phase=lambda t: t, b=1.0)
    with pytest.raises(ValueError):
        L.check_asymptotics(bare, [50.0, 100.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        L.LaplaceSpec(amplitude=lambda t: t, phase=lambda t: t, b=1.0,
                      expansion=((1.0, 0.5), (1.0, 0.4)))
    with pytest.raises(ValueError):
        L.LaplaceSpec(amplitude=lambda t: t, phase=lambda t: t, b=1.0,
                      expansion=((1.0, -0.5),))
    with pytest.raises(ValueError):
        L.LaplaceSpec(amplitude=lambda t: t, phase=lambda t: t, b=1.0,
                      expansion=((1.0, 0.5),), remainder_exponent=0.4)
