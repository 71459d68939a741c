import numpy as np
import pytest

from sepdeut.model import ModelParams
from sepdeut.wf_momentum import SQRT_2_OVER_PI, form_factors, uw_momentum

# j0(1.475)^2 and j1(1.475)^2: form factors at k = 1 for the equal-range point
GC_AT_1 = 0.45543285331765678
GT_AT_1 = 0.15420012727958567
# momentum wavefunctions at k = 0.5 with the fitted-strength parameters
UK_AT_05 = 1.9768838235972835
WK_AT_05 = 0.22341636861205034

CANONICAL = ModelParams(b1=1.475, b2=1.475, alpha=0.23165, A=0.905, B=1.57)


def test_frozen_form_factors():
    g_c, g_t = form_factors(1.0, CANONICAL).tolist()
    assert g_c == pytest.approx(GC_AT_1, rel=5e-15)
    assert g_t == pytest.approx(GT_AT_1, rel=5e-15)


def test_frozen_momentum_wavefunctions():
    u, w = uw_momentum(0.5, CANONICAL).tolist()
    assert u == pytest.approx(UK_AT_05, rel=5e-15)
    assert w == pytest.approx(WK_AT_05, rel=5e-15)


def test_values_at_zero_momentum():
    # g_C(0) = 1, g_T(0) = 0, so u(0) = A*sqrt(2/pi)/alpha^2 and w(0) = 0
    assert form_factors(0.0, CANONICAL).tolist() == [1.0, 0.0]
    u, w = uw_momentum(0.0, CANONICAL).tolist()
    expected = CANONICAL.A * SQRT_2_OVER_PI / CANONICAL.alpha**2
    assert u == pytest.approx(expected, rel=1e-15)
    assert w == 0.0


def test_range_order_invariance():
    k = np.linspace(0.0, 6.0, 101)
    a = ModelParams(b1=1.0, b2=2.0, alpha=0.23165, A=0.9, B=1.5)
    b = ModelParams(b1=2.0, b2=1.0, alpha=0.23165, A=0.9, B=1.5)
    assert np.array_equal(form_factors(k, a)[0], form_factors(k, b)[0])
    assert np.array_equal(uw_momentum(k, a)[1], uw_momentum(k, b)[1])


def test_envelope_bounds():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.23165, A=1.0, B=1.0)
    k = np.linspace(0.01, 40.0, 2000)
    gc, gt = np.abs(form_factors(k, p))
    assert np.all(gc <= 1.0)
    assert np.all(gt <= 1.0)
    # |j0(x)| <= 1/x and |j1(x)| <= 1.63/x give a k^-2 envelope
    tail = k > 2.0
    assert np.all(gc[tail] <= 1.0 / (p.b1 * p.b2 * k[tail] ** 2))
    assert np.all(gt[tail] <= 2.66 / (p.b1 * p.b2 * k[tail] ** 2))


def test_tensor_small_k_quadratic():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.23165, A=1.0, B=1.0)
    k = np.array([1e-4, 2e-4])
    gt = form_factors(k, p)[1]
    # leading term b1*b2*k^2/9
    lead = p.b1 * p.b2 * k * k / 9.0
    assert gt == pytest.approx(lead, rel=1e-7)


def test_momentum_scaling_in_strengths():
    k = np.linspace(0.0, 5.0, 50)
    p1 = ModelParams(b1=1.2, b2=1.7, alpha=0.25, A=1.0, B=1.0)
    p2 = ModelParams(b1=1.2, b2=1.7, alpha=0.25, A=3.0, B=0.5)
    assert np.allclose(uw_momentum(k, p2), [[3.0], [0.5]] * uw_momentum(k, p1), rtol=1e-15)


def test_vectorized_shapes():
    k = np.linspace(0.0, 4.0, 17)
    assert form_factors(k, CANONICAL).shape == (2, 17)
    assert uw_momentum(k, CANONICAL).shape == (2, 17)
    assert uw_momentum(k.reshape(1, 17), CANONICAL).shape == (2, 1, 17)


@pytest.mark.parametrize("b1, b2", [(1.475, 1.475), (1.0, 2.0), (1.0, 1.0 + 5e-10)])
def test_stacked_amplitudes_equal_single_channel_calls(b1, b2):
    # each row is its channel's formula applied to its form factor row
    p = ModelParams(b1=b1, b2=b2, alpha=0.23165, A=0.905, B=1.57)
    k = np.concatenate([[0.0, 1e-3, 0.25, 0.5 / b2, 0.5 / b1], np.linspace(0.6, 2500.0, 201)])
    g_c, g_t = form_factors(k, p)
    u, w = uw_momentum(k, p)
    assert u.tolist() == (p.A * SQRT_2_OVER_PI * g_c / (k * k + p.alpha**2)).tolist()
    assert w.tolist() == (p.B * SQRT_2_OVER_PI * g_t / (k * k + p.alpha**2)).tolist()
    for i, x in enumerate(k.tolist()):
        assert form_factors(x, p).tolist() == [g_c[i], g_t[i]]
        assert uw_momentum(x, p).tolist() == [u[i], w[i]]
