import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregd.datagen import gen_instance
from spheregd.descent import (
    BallStop,
    DescentConfig,
    recovery_error,
    riemannian_gd,
    riemannian_gd_block,
)
from spheregd.objectives import sep_objective
from spheregd.sphere import chart_to_sphere, sample_uniform_sphere, scale_to_zeta


def test_immediate_termination_at_critical_point():
    n = 5
    oracle = sep_objective(0.02)
    cfg = DescentConfig(eta=0.01, max_iters=100)
    tr = riemannian_gd(oracle, np.eye(n)[-1], cfg)
    assert tr.status == "grad_tol"
    assert tr.iters.size == 1
    assert tr.grad_norm[0] == 0.0


def test_reaches_target_ball_from_section():
    n, mu = 3, 0.03
    eta = min(0.01 / n, mu / 2.0)
    r = mu * np.log(1.0 / mu)
    w0 = scale_to_zeta(np.array([0.7, -0.6]), 0.5)
    q0 = chart_to_sphere(w0)
    cfg = DescentConfig(eta=eta, max_iters=20_000, stop_ball=BallStop(norm="linf", radius=r))
    tr = riemannian_gd(sep_objective(mu), q0, cfg)
    assert tr.status == "ball_entered"
    assert tr.w_inf[-1] < r


def test_monotone_descent_and_iterate_bound():
    n, mu, eta = 8, 0.05, 0.02  # eta < mu/2
    oracle = sep_objective(mu)
    for seed in range(20):
        q0 = sample_uniform_sphere(n, np.random.default_rng(seed))
        cfg = DescentConfig(eta=eta, max_iters=2000, stop_grad_tol=1e-8)
        tr = riemannian_gd(oracle, q0, cfg)
        assert np.all(np.diff(tr.f) <= 1e-12)
        lhs = tr.f[0] - tr.f[-1]
        rhs = 0.5 * eta * float(np.sum(tr.grad_norm[:-1] ** 2))
        assert lhs >= rhs - 1e-10


def test_trace_shape_invariants_and_unit_norm():
    n, mu = 6, 0.03
    inner = sep_objective(mu)
    norm_devs = []

    def oracle(q, value=True):  # sees every iterate the loop visits, as a one-row block
        norm_devs.append(abs(np.linalg.norm(q) - 1.0))
        return inner(q, value)

    q0 = sample_uniform_sphere(n, np.random.default_rng(7))
    cfg = DescentConfig(eta=0.002, max_iters=500)
    tr = riemannian_gd(oracle, q0, cfg)
    assert tr.iters.size <= cfg.max_iters + 1
    assert np.all(np.diff(tr.iters) == 1)
    assert len(norm_devs) == tr.iters.size
    assert max(norm_devs) <= 1e-10
    assert abs(np.linalg.norm(tr.q_final) - 1.0) <= 1e-10


def test_nan_abort():
    def bad(q, value=True):
        return np.full(len(q), np.nan), np.zeros(q.shape)

    q0 = np.eye(4)[0]
    tr = riemannian_gd(bad, q0, DescentConfig(eta=0.1, max_iters=10))
    assert tr.status == "aborted_nan"
    assert tr.iters.size == 1


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_block_rows_match_one_row_runs():
    # 13 rows that end every way: ball_entered, max_iters under a small budget,
    # grad_tol from e_n, and aborted_nan where the oracle turns non-finite
    n, mu = 6, 0.03
    inner = sep_objective(mu)

    def oracle(q, value=True):
        f, g = inner(q, value)
        bad = np.abs(q[..., 0]) > 0.95
        return (None if f is None else np.where(bad, np.nan, f)), np.where(bad[..., None], np.nan, g)

    rng = np.random.default_rng(4)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(12)] + [np.eye(n)[-1]])
    ball = BallStop(norm="linf", radius=mu * np.log(1.0 / mu))
    cfg = DescentConfig(eta=0.01, max_iters=150, stop_ball=ball)
    block = riemannian_gd_block(oracle, q0, cfg, traced=True)
    last = riemannian_gd_block(oracle, q0, cfg)
    assert {tr.status for tr in block} == {"ball_entered", "max_iters", "grad_tol", "aborted_nan"}
    columns = ("iters", "f", "grad_norm", "zeta", "w_inf", "dist_target", "q_final")
    for q, tr, tr_last in zip(q0, block, last):
        one = riemannian_gd(oracle, q, cfg)
        assert tr.status == one.status == tr_last.status
        for name in columns:
            assert _same(getattr(tr, name), getattr(one, name)), name
        for name in columns[:-1]:  # untraced: the last iterate only
            assert _same(getattr(tr_last, name), getattr(one, name)[-1:]), name
        assert _same(tr_last.q_final, one.q_final)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_block_rows_do_not_depend_on_the_block(n, rows, traced, seed, data):
    mu = 0.05
    rng = np.random.default_rng(seed)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(rows)])
    ball = BallStop(norm="linf", radius=mu * np.log(1.0 / mu))
    cfg = DescentConfig(eta=0.02, max_iters=100, stop_ball=ball)
    whole = riemannian_gd_block(sep_objective(mu), q0, cfg, traced=traced)
    perm = np.array(data.draw(st.permutations(range(rows))))
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=3))) if rows > 1 else []
    for part in np.split(perm, cuts):
        for k, tr in zip(part, riemannian_gd_block(sep_objective(mu), q0[part], cfg, traced=traced)):
            assert tr.status == whole[k].status
            for name in ("iters", "f", "grad_norm", "zeta", "w_inf", "dist_target", "q_final"):
                assert _same(getattr(tr, name), getattr(whole[k], name)), name


def test_section_zeta_invariant_under_signed_permutations():
    rng = np.random.default_rng(8)
    oracle, cfg = sep_objective(0.05), DescentConfig(eta=0.01, max_iters=1)
    for _ in range(50):
        q = sample_uniform_sphere(6, rng)
        z_ref = riemannian_gd(oracle, q, cfg).zeta[0]
        perm = rng.permutation(6)
        signs = rng.choice([-1.0, 1.0], size=6)
        assert riemannian_gd(oracle, signs * q[perm], cfg).zeta[0] == z_ref


def test_recovery_error():
    rng = np.random.default_rng(9)
    inst = gen_instance(6, 10, 0.3, "random_orthogonal", rng)
    col, err = recovery_error(inst.A0[:, 2], inst)
    assert col == 3 and err <= 1e-12
    col, err = recovery_error(-inst.A0[:, 0], inst)
    assert col == -1 and err <= 1e-12
    for _ in range(20):
        q = sample_uniform_sphere(6, rng)
        _, err = recovery_error(q, inst)
        best = np.max(np.abs(inst.A0.T @ q))
        assert err**2 == pytest.approx(2.0 - 2.0 * best, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(eta=0.0, max_iters=10)
    with pytest.raises(ValueError):
        DescentConfig(eta=0.1, max_iters=0)
    with pytest.raises(ValueError):
        BallStop(norm="l7", radius=0.1)
    with pytest.raises(ValueError):
        BallStop(norm="l2", radius=0.0)
