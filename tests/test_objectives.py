import numpy as np
import pytest
from conftest import fd_riem_grad, sep_chart_grad, u_direction
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spheregd.datagen import gen_bg_matrix
from spheregd.objectives import (
    check_mu,
    dl_objective,
    dl_pop_projected_grad_estimate,
    dl_projected_grad,
    log_cosh,
    sep_objective,
    sep_projected_grad,
)
from spheregd.sphere import chart_to_sphere, sample_uniform_sphere, scale_to_zeta

CROSS_CHECK_TOL = 1e-12  # closed-form outward slope vs. the explicit inner-product route


def dl_pop_grad_estimate(q, mu, theta, num_samples, rng):
    """Plain Monte-Carlo estimate of the infinite-data Euclidean gradient
    E[tanh(q'x / mu) x] over Bernoulli-Gaussian x, in blocks of 1e5 samples."""
    acc = np.zeros(q.size)
    for a in range(0, num_samples, 100_000):
        X = gen_bg_matrix(min(100_000, num_samples - a), q.size, theta, rng)
        acc += np.tanh(X @ q / mu) @ X
    return acc / num_samples


def test_log_cosh_values():
    assert float(log_cosh(0.0, 0.05)) == 0.0
    # asymptote |t| - mu log 2 at |t| >> mu
    assert float(log_cosh(1.0, 0.01)) == pytest.approx(0.9930685281944005, abs=1e-15)


def test_log_cosh_even_and_overflow_safe():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(1000) * 50.0
    a = log_cosh(t, 0.01)
    b = log_cosh(-t, 0.01)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0.0, 1e300)),
    st.floats(1e-6, 1.0),
)
def test_log_cosh_finite_even_and_bracketed(ratios, mu):
    # mu log cosh(t/mu) lies in [|t| - mu log 2, |t|], up to a few roundings of |t| and mu
    t = ratios * mu
    v = log_cosh(t, mu)
    assert np.all(np.isfinite(v))
    assert np.array_equal(v, log_cosh(-t, mu))
    slack = 4.0 * np.finfo(float).eps * (t + mu)
    assert np.all(t - mu * np.log(2.0) - slack <= v) and np.all(v <= t + slack)


def test_mu_validation():
    with pytest.raises(ValueError):
        check_mu(0.0)
    with pytest.warns(RuntimeWarning):
        check_mu(1.0 / 16.0)
    check_mu(0.01)  # silent


@pytest.mark.parametrize("mu", [np.nan, 0.0, -1.0, np.inf])
def test_dl_slopes_check_mu(mu):
    w = np.array([0.3, 0.1, -0.2])
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        dl_projected_grad(w, 0, np.ones((4, 5)), mu)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        dl_pop_projected_grad_estimate(w, 0, mu, 0.25, 1000, rng)
    assert rng.bit_generator.state == before  # checked before any draw


def test_sep_grad_vanishes_at_critical_points():
    for n in (3, 8):
        oracle = sep_objective(0.02)
        assert np.linalg.norm(oracle(np.eye(n)[-1])[1]) <= 1e-12
        q = np.full(n, 1.0 / np.sqrt(n))
        assert np.linalg.norm(oracle(q)[1]) <= 1e-12


def test_sep_gradient_fd():
    oracle = sep_objective(0.05)
    rng = np.random.default_rng(1)
    for n in (3, 10):
        for _ in range(10):
            q = sample_uniform_sphere(n, rng)
            g = oracle(q)[1]
            gf = fd_riem_grad(lambda qq: oracle(qq)[0], q)
            assert np.linalg.norm(gf - g) <= 1e-6 * np.linalg.norm(g)


def test_sep_projected_grad_boundary_zero():
    # w_i equal to the lifted coordinate: the slope cancels exactly
    b = 0.1
    a = np.sqrt((1.0 - b * b) / 2.0)
    w = np.array([a, b])
    assert sep_projected_grad(w, 0, 0.05) == 0.0


def test_sep_projected_grad_value_and_sign_handling():
    val = sep_projected_grad(np.array([0.3, 0.2]), 0, 0.1)
    assert val == pytest.approx(0.6734209983255717, abs=1e-15)
    # odd symmetry folds the negative-coordinate case into the same value
    assert sep_projected_grad(np.array([-0.3, 0.2]), 0, 0.1) == val


def test_sep_projected_grad_zero_coordinate_errors():
    with pytest.raises(ValueError):
        sep_projected_grad(np.array([0.0, 0.2]), 0, 0.1)


def test_sep_projected_grad_matches_vector_route():
    rng = np.random.default_rng(2)
    mu = 0.02
    oracle = sep_objective(mu)
    for _ in range(100):
        w = rng.uniform(-0.4, 0.4, size=5)
        if np.linalg.norm(w) >= 0.95:
            continue
        i = int(rng.integers(0, 5))
        if w[i] == 0.0:
            continue
        q = chart_to_sphere(w)
        u = u_direction(w, i)
        direct = u @ oracle(q)[1]
        assert abs(direct - sep_projected_grad(w, i, mu)) <= CROSS_CHECK_TOL


def test_sep_chart_grad_matches_projection():
    rng = np.random.default_rng(3)
    mu = 0.03
    for _ in range(50):
        w = rng.uniform(-0.3, 0.3, size=4)
        g = sep_chart_grad(w, mu)
        for i in range(4):
            if w[i] != 0.0:
                si = np.sign(w[i])
                assert si * g[i] == pytest.approx(sep_projected_grad(w, i, mu), abs=1e-14)


def test_dl_trivial_cases():
    n = 4
    en = np.eye(n)[-1]
    Y = en.reshape(-1, 1)
    assert np.linalg.norm(dl_objective(Y, 0.05)(en)[1]) <= 1e-12
    val, g = dl_objective(np.zeros((n, 6)), 0.05)(en)
    assert val == 0.0
    assert np.array_equal(g, np.zeros(n))


def test_dl_dimension_mismatch():
    with pytest.raises(ValueError):
        dl_objective(np.zeros((4, 5)), 0.05)(np.zeros(3))
    with pytest.raises(ValueError):
        dl_objective(np.zeros(4), 0.05)


def test_dl_gradient_fd():
    rng = np.random.default_rng(4)
    oracle = dl_objective(rng.standard_normal((5, 20)), 0.05)
    for _ in range(20):
        q = sample_uniform_sphere(5, rng)
        g = oracle(q)[1]
        gf = fd_riem_grad(lambda qq: oracle(qq)[0], q)
        assert np.linalg.norm(gf - g) <= 1e-6 * np.linalg.norm(g)


def test_euclid_grad_lipschitz():
    # tanh(./mu) is (1/mu)-Lipschitz coordinatewise
    mu = 0.02
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal((10_000, 6))
    x2 = x1 + rng.standard_normal((10_000, 6)) * 0.5
    lhs = np.linalg.norm(np.tanh(x1 / mu) - np.tanh(x2 / mu), axis=1)
    rhs = np.linalg.norm(x1 - x2, axis=1) / mu
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_gradient_norm_bounds():
    rng = np.random.default_rng(6)
    mu = 0.01
    sep = sep_objective(mu)
    for n in (5, 20):
        for _ in range(50):
            q = sample_uniform_sphere(n, rng)
            assert np.linalg.norm(sep(q)[1]) <= np.sqrt(n)
        Y = rng.standard_normal((n, 30)) * (rng.random((n, 30)) < 0.4)
        xinf = np.max(np.abs(Y))
        dl = dl_objective(Y, mu)
        for _ in range(20):
            q = sample_uniform_sphere(n, rng)
            assert np.linalg.norm(dl(q)[1]) <= np.sqrt(n) * max(xinf, 1e-12)


def test_projection_positivity_linear_in_zeta():
    # above the slope floor the outward slope admits a linear-in-zeta
    # positive lower envelope with a single coefficient
    mu = 0.01
    thr = mu * np.log(1.0 / mu)
    rng = np.random.default_rng(7)
    ratios = {}
    for z in (0.1, 0.3, 1.0, 3.0):
        vals = []
        for _ in range(200):
            w = scale_to_zeta(rng.standard_normal(7), z)
            winf = np.max(np.abs(w))
            for i in range(7):
                if abs(w[i]) >= thr:
                    s = sep_projected_grad(w, i, mu)
                    assert s > 0.0
                    vals.append(s / (winf * z))
        ratios[z] = min(vals)
    c_fit = min(ratios.values())
    assert c_fit > 0.0


def test_conditioned_estimator_theta_zero():
    w = np.array([0.3, 0.1, -0.2])
    mean, se = dl_pop_projected_grad_estimate(w, 0, 0.01, 0.0, 500, np.random.default_rng(8))
    assert mean == 0.0 and se == 0.0


def test_conditioned_estimator_boundary_symmetric():
    # w_i equal to the lifted coordinate: the integrand is antisymmetric
    b = 0.1
    a = np.sqrt((1.0 - b * b) / 2.0)
    w = np.array([a, b])
    mean, se = dl_pop_projected_grad_estimate(w, 0, 0.01, 0.3, 200_000, np.random.default_rng(9))
    assert abs(mean) <= 4.0 * se


def test_conditioned_estimator_stderr_scaling():
    w = scale_to_zeta(np.random.default_rng(10).standard_normal(9), 0.5)
    i = int(np.argmax(np.abs(w)))
    rng = np.random.default_rng(11)
    sizes = [100, 1000, 10_000, 100_000]
    ses = [dl_pop_projected_grad_estimate(w, i, 0.01, 0.25, N, rng)[1] for N in sizes]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_estimator_cross_consistency():
    n, theta, mu = 10, 0.25, 0.01
    rng = np.random.default_rng(13)
    w = scale_to_zeta(rng.standard_normal(n - 1), 0.5)
    i = int(np.argmax(np.abs(w)))
    q = chart_to_sphere(w)
    u = u_direction(w, i)
    reps = np.array([dl_pop_grad_estimate(q, mu, theta, 20_000, rng) @ u for _ in range(12)])
    naive_m = reps.mean()
    naive_se = reps.std(ddof=1) / np.sqrt(reps.size)
    cond_m, cond_se = dl_pop_projected_grad_estimate(w, i, mu, theta, 200_000, rng)
    assert abs(naive_m - cond_m) <= 4.0 * np.hypot(naive_se, cond_se)


def test_pop_gradient_norm_bound():
    n, theta, mu = 10, 0.25, 0.01
    rng = np.random.default_rng(14)
    bound = np.sqrt(theta * n)
    for _ in range(5):
        q = sample_uniform_sphere(n, rng)
        g = dl_pop_grad_estimate(q, mu, theta, 100_000, rng)
        gr = g - (q @ g) * q
        # generous statistical slack on top of the analytic bound
        assert np.linalg.norm(gr) <= bound * 1.05
