import re
import tracemalloc

import numpy as np
import pytest
from conftest import fd_riem_grad, sep_chart_grad
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spheregd.datagen import gen_bg_matrix
from spheregd.landscape import dl_projected_grad
from spheregd.objectives import (
    _PANEL_BYTES,
    check_mu,
    dl_objective,
    dl_pop_projected_grad_estimate,
    log_cosh,
    sep_objective,
)
from spheregd.sphere import (
    chart_to_sphere,
    outward_direction,
    sample_uniform_sphere,
    scale_to_zeta,
    tangent_project,
)

CROSS_CHECK_TOL = 1e-12  # closed-form outward slope vs. the explicit inner-product route


def sep_slope(w, i, mu):
    """The separable outward slope as projection_scan takes it: the oracle's
    gradient along the outward direction."""
    q, d = outward_direction(w, i)
    return float(sep_objective(mu)(q, value=False)[1] @ d)


def sep_slope_closed_form(w, i, mu):
    """tanh(|w_i|/mu) - tanh(q_n/mu) |w_i| / q_n; the odd symmetry of tanh
    folds both signs of w_i into the same expression."""
    qn = chart_to_sphere(w)[-1]
    a = abs(float(w[i]))
    return float(np.tanh(a / mu) - np.tanh(qn / mu) * a / qn)


def dl_slope_closed_form(w, i, Y, mu):
    """(1/p) sum_k tanh(q'y_k/mu) (sign(w_i) y_{k,i} - |w_i|/q_n y_{k,n})."""
    q = chart_to_sphere(w)
    proj = np.sign(w[i]) * Y[i] - (abs(float(w[i])) / q[-1]) * Y[-1]
    return float(np.mean(np.tanh(Y.T @ q / mu) * proj))


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
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        check_mu(1e300)  # mu^2 overflows; rejected before the mu >= 1/16 warning


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
    # w_i equal to the lifted coordinate: the slope cancels, exactly in closed form
    b = 0.1
    a = np.sqrt((1.0 - b * b) / 2.0)
    w = np.array([a, b])
    assert sep_slope_closed_form(w, 0, 0.05) == 0.0
    assert abs(sep_slope(w, 0, 0.05)) <= 1e-15


def test_sep_projected_grad_value_and_sign_handling():
    with pytest.warns(RuntimeWarning, match="1/16"):  # mu = 0.1 is past the positivity guarantee
        val = sep_slope(np.array([0.3, 0.2]), 0, 0.1)
        # odd symmetry folds the negative-coordinate case into the same value
        assert sep_slope(np.array([-0.3, 0.2]), 0, 0.1) == val
    assert val == pytest.approx(0.6734209983255717, abs=1e-15)


def test_sep_projected_grad_zero_coordinate_errors():
    with pytest.raises(ValueError):
        sep_slope(np.array([0.0, 0.2]), 0, 0.1)


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
        q, d = outward_direction(w, i)
        direct = d @ oracle(q)[1]
        assert abs(direct - sep_slope_closed_form(w, i, mu)) <= CROSS_CHECK_TOL


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.999, exclude_min=True),
    st.floats(0.005, 0.06),
    st.integers(1, 400),
)
def test_outward_slopes_match_closed_forms(n, seed, radius, mu, p):
    # both library slopes, an oracle's gradient along the outward direction,
    # against their closed forms anywhere in the open ball with w_i != 0
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n - 1)
    w *= radius / np.linalg.norm(w)
    i = int(rng.integers(n - 1))
    assume(w[i] != 0.0)
    assert abs(sep_slope(w, i, mu) - sep_slope_closed_form(w, i, mu)) <= 1e-14
    Y = gen_bg_matrix(n, p, 0.3, rng)
    ref = dl_slope_closed_form(w, i, Y, mu)
    assert abs(dl_projected_grad(w, i, Y, mu) - ref) <= max(1e-12 * abs(ref), 1e-15)


def test_sep_chart_grad_matches_projection():
    rng = np.random.default_rng(3)
    mu = 0.03
    for _ in range(50):
        w = rng.uniform(-0.3, 0.3, size=4)
        g = sep_chart_grad(w, mu)
        for i in range(4):
            if w[i] != 0.0:
                si = np.sign(w[i])
                assert si * g[i] == pytest.approx(sep_slope(w, i, mu), abs=1e-14)


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


def test_dl_rejects_empty_data_and_points_of_another_length():
    with pytest.raises(ValueError, match="no columns"):
        dl_objective(np.zeros((4, 0)), 0.01)
    oracle = dl_objective(np.ones((4, 5)), 0.01)
    for q in (np.zeros(3), np.zeros((2, 5)), np.zeros(0)):
        with pytest.raises(ValueError, match=rf"{re.escape(str(q.shape))}.*\(4, 5\)"):
            oracle(q)


def _two_matrix_dl_objective(Y, mu):
    """The oracle before the panel pass: Y and a copy of Y^T, each read in full."""
    YT, p = Y.T.copy(), Y.shape[1]

    def oracle(q, value=True):
        corr = (YT @ q.T).T
        val = np.mean(log_cosh(corr, mu), axis=-1) if value else None
        return val, tangent_project(q, (Y @ np.tanh(corr / mu).T).T / p)

    return oracle


@pytest.mark.parametrize("n", [2, 10, 20])
def test_dl_panels_match_the_two_matrix_oracle(n):
    cols = _PANEL_BYTES // (8 * n)
    rng = np.random.default_rng(n)
    for p in (1, cols - 1, cols, cols + 1, 3 * cols + 7):
        Y = gen_bg_matrix(n, p, 0.25, rng)
        Y[:, 0] += 1.0  # no all-zero data at p = 1
        got, ref = dl_objective(Y, 0.01), _two_matrix_dl_objective(Y, 0.01)
        Q = np.array([sample_uniform_sphere(n, rng) for _ in range(3)])
        (val, g), (rval, rg) = got(Q), ref(Q)
        assert np.all(np.abs(val - rval) <= 1e-13 * np.abs(rval))
        assert np.all(np.linalg.norm(g - rg, axis=1) <= 1e-13 * np.linalg.norm(rg, axis=1))
        assert got(Q, value=False)[0] is None and np.array_equal(got(Q, value=False)[1], g)
        blk = got(Q[[0, 1, 2, 0]].reshape(2, 2, n))  # a (..., n) block keeps its leading shape
        assert blk[0].shape == (2, 2) and np.array_equal(blk[1].reshape(4, n), g[[0, 1, 2, 0]])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 24),
    p=st.integers(1, 8000),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=20, p=3 * (_PANEL_BYTES // 160) + 7, rows=3, seed=1)  # across three panel edges
def test_dl_block_rows_match_one_row_calls(n, p, rows, seed):
    rng = np.random.default_rng(seed)
    oracle = dl_objective(rng.standard_normal((n, p)), 0.01)
    Q = np.array([sample_uniform_sphere(n, rng) for _ in range(rows)])
    val, G = oracle(Q)
    for k in range(rows):
        v1, g1 = oracle(Q[k])
        assert val[k].tobytes() == v1.tobytes() and G[k].tobytes() == g1.tobytes()
        assert oracle(Q[k : k + 1], value=False)[1][0].tobytes() == g1.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 24),
    p=st.integers(1, 8000),
    rows=st.integers(1, 4),
    mu=st.sampled_from((0.005, 0.01, 0.05)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=20, p=3 * (_PANEL_BYTES // 160) + 7, rows=2, mu=0.01, seed=1)  # across three panel edges
def test_oracle_values_are_log_cosh_bit_for_bit(n, p, rows, mu, seed):
    # the oracles take the value from the |t| / mu they also feed to tanh, and
    # write the gradient into out when one is given
    rng = np.random.default_rng(seed)
    Q = np.array([sample_uniform_sphere(n, rng) for _ in range(rows)])
    Y = rng.standard_normal((n, p))
    sep, dl = sep_objective(mu), dl_objective(Y, mu)
    a = np.abs(Q) / mu  # log_cosh keeps the bits of its direct expression
    assert log_cosh(Q, mu).tobytes() == (mu * (a - np.log(2.0) + np.log1p(np.exp(-2.0 * a)))).tobytes()
    assert sep(Q)[0].tobytes() == np.sum(log_cosh(Q, mu), -1).tobytes()
    val = dl(Q)[0]
    for k in range(rows):
        assert val[k].tobytes() == np.mean(log_cosh(Q[k] @ Y, mu)).tobytes()
    for oracle in (sep, dl):
        for value in (True, False):
            ref, out = oracle(Q, value), np.full(Q.shape, np.nan)
            got = oracle(Q, value, out=out)
            assert got[1] is out and out.tobytes() == ref[1].tobytes()
            assert got[0].tobytes() == ref[0].tobytes() if value else got[0] is None


def _same_values(a, b):
    """The same shape, NaN at the same places and the same bits elsewhere."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# |q| >= 45 puts |q| / mu past 710, where exp(|q| / mu) overflows, for every mu < 1/16
_SEP_ENTRIES = (
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0, np.inf, -np.inf, np.nan])
    | st.floats(45.0, 1e6) | st.floats(-1e6, -45.0) | st.floats(-1.0, 1.0)
)


@settings(max_examples=150, deadline=None)
@given(
    mu=st.floats(np.finfo(float).tiny, 1.0 / 16.0, exclude_max=True),
    # a point (n,), a (B, n) block and a (w, B, n) window
    Q=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12), elements=_SEP_ENTRIES),
)
@example(mu=1e-3, Q=np.resize([1.0, -0.0, 5e-324, 0.8, np.inf, -1.0, np.nan, 0.5], (4, 2, 3)))
def test_sep_values_have_the_oracle_bits(mu, Q):
    # the engine takes a traced separable window's values by one values call
    # on its (w, B, n) iterates; each row must keep its oracle value's bits
    oracle = sep_objective(mu)
    with np.errstate(all="ignore"):  # inf and NaN rows, and sums past the largest float
        got = oracle.values(Q)
        assert _same_values(got, oracle(Q)[0])
        for v, q in zip(np.reshape(got, -1), Q.reshape(-1, Q.shape[-1])):
            assert _same_values(v, oracle(q)[0]) and _same_values(v, np.add.reduce(log_cosh(q, mu)))


def test_dl_oracle_keeps_no_copy_of_the_data():
    n, p = 20, 20_000
    rng = np.random.default_rng(0)
    Y, q = rng.standard_normal((n, p)), sample_uniform_sphere(n, rng)
    dl_objective(Y[:, :10], 0.01)(q[None], value=False)  # the first call may import modules
    tracemalloc.start()
    try:
        dl_objective(Y, 0.01)(q[None], value=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * p * 8


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
                    s = sep_slope(w, i, mu)
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
    q, u = outward_direction(w, i)
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
