import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregd.datagen import gen_instance, haar_orthogonal
from spheregd.descent import (
    _WINDOW,
    BallStop,
    DescentConfig,
    recovery_error,
    riemannian_gd,
    riemannian_gd_block,
)
from spheregd.objectives import sep_objective
from spheregd.sphere import chart_to_sphere, exp_map, sample_uniform_sphere, scale_to_zeta


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

    def oracle(q, value=True, out=None):  # sees every iterate the loop visits, as a one-row block
        norm_devs.append(abs(np.linalg.norm(q) - 1.0))
        return inner(q, value, out)

    q0 = sample_uniform_sphere(n, np.random.default_rng(7))
    cfg = DescentConfig(eta=0.002, max_iters=500)
    tr = riemannian_gd(oracle, q0, cfg)
    assert tr.iters.size <= cfg.max_iters + 1
    assert np.all(np.diff(tr.iters) == 1)
    assert len(norm_devs) == tr.iters.size
    assert max(norm_devs) <= 1e-10
    assert abs(np.linalg.norm(tr.q_final) - 1.0) <= 1e-10


def test_nan_abort():
    def bad(q, value=True, out=None):
        g = np.empty(q.shape) if out is None else out
        g.fill(0.0)
        return np.full(len(q), np.nan), g

    q0 = np.eye(4)[0]
    tr = riemannian_gd(bad, q0, DescentConfig(eta=0.1, max_iters=10))
    assert tr.status == "aborted_nan"
    assert tr.iters.size == 1


_COLUMNS = ("iters", "f", "grad_norm", "zeta", "w_inf", "dist_target", "q_final")


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_block_rows_match_one_row_runs():
    # 13 rows that end every way: ball_entered, max_iters under a small budget,
    # grad_tol from e_n, and aborted_nan where the oracle turns non-finite
    n, mu = 6, 0.03
    inner = sep_objective(mu)

    def oracle(q, value=True, out=None):
        f, g = inner(q, value, out)
        bad = np.abs(q[..., 0]) > 0.95
        np.copyto(g, np.nan, where=bad[..., None])
        return (None if f is None else np.where(bad, np.nan, f)), g

    rng = np.random.default_rng(4)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(12)] + [np.eye(n)[-1]])
    ball = BallStop(norm="linf", radius=mu * np.log(1.0 / mu))
    cfg = DescentConfig(eta=0.01, max_iters=150, stop_ball=ball)
    block = riemannian_gd_block(oracle, q0, cfg, traced=True)
    last = riemannian_gd_block(oracle, q0, cfg)
    assert {tr.status for tr in block} == {"ball_entered", "max_iters", "grad_tol", "aborted_nan"}
    for q, tr, tr_last in zip(q0, block, last):
        one = riemannian_gd(oracle, q, cfg)
        assert tr.status == one.status == tr_last.status
        for name in _COLUMNS:
            assert _same(getattr(tr, name), getattr(one, name)), name
        for name in _COLUMNS[:-1]:  # untraced: the last iterate only
            assert _same(getattr(tr_last, name), getattr(one, name)[-1:]), name
        assert _same(tr_last.q_final, one.q_final)


def _step_by_step(objective, q0, cfg, traced, target_basis=None):
    """Reference for one row, a (1, n) block: the stop rules checked at each
    iterate before stepping, the meaning the engine's per-window checks keep.
    Returns the row's status, its trace columns (every iterate's, or the last
    one's when untraced) and the iterates it visited."""
    q = np.array(q0, dtype=float)[None]
    RT = None if target_basis is None else np.asarray(target_basis).T
    tol, ball = cfg.stop_grad_tol, cfg.stop_ball
    assert ball is None or ball.norm == "linf"
    rec, visited = [], []
    for t in range(cfg.max_iters + 1):
        f, g = objective(q)
        gn = np.sqrt(np.vecdot(g, g))
        ab = np.sort(np.abs(q if RT is None else (RT @ q.T).T), axis=-1)
        rec.append((f[0], gn[0], ab[0, -1], ab[0, -2]))
        visited.append(q[0].copy())
        in_ball = ball is not None and ab[0, -2] < ball.radius
        finite = np.isfinite(gn[0]) and (np.isfinite(f[0]) or not traced)  # untraced, the value is read at the stop
        if finite and gn[0] > tol and not in_ball and t < cfg.max_iters:
            q = exp_map(q, -cfg.eta * g)
            continue
        if not (np.isfinite(f[0]) and np.isfinite(gn[0])):
            status = "aborted_nan"
        else:
            status = "grad_tol" if gn[0] <= tol else "ball_entered" if in_ball else "max_iters"
        break
    f, gn, top, second = (np.array(c) for c in zip(*(rec if traced else rec[-1:])))
    zeta = np.divide(top, second, out=np.full(second.shape, np.inf), where=second != 0.0) - 1.0
    iters = np.arange(t + 1) if traced else np.array([t])
    dist = np.sqrt(np.fmax(0.0, 2.0 - 2.0 * top))
    return status, (iters, f, gn, zeta, second, dist, q[0]), visited


def _assert_matches_step_by_step(objective, q0, cfg, traced, target_basis=None):
    for q, tr in zip(q0, riemannian_gd_block(objective, q0, cfg, target_basis, traced=traced)):
        status, cols, _ = _step_by_step(objective, q, cfg, traced, target_basis)
        assert tr.status == status
        for name, col in zip(_COLUMNS, cols):
            assert _same(getattr(tr, name), col), name


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("max_iters", [1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 3])
def test_window_matches_step_by_step_engine(max_iters, traced):
    # every way to stop: grad_tol from e_n, ball_entered from inside and near
    # the ball, max_iters, aborted_nan where the oracle turns non-finite, and a
    # value that turns NaN alone (read only at the stop when untraced)
    n, mu = 6, 0.03
    inner = sep_objective(mu)

    def oracle(q, value=True, out=None):
        f, g = inner(q, value, out)
        bad = np.abs(q[..., 0]) > 0.95
        if f is not None:
            f = np.where(bad | (np.abs(q[..., 1]) > 0.95), np.nan, f)
        np.copyto(g, np.nan, where=bad[..., None])
        return f, g

    rng = np.random.default_rng(4)
    near = [chart_to_sphere(np.full(n - 1, r)) for r in (0.05, 0.15, 0.3)]
    near += [np.roll(q, k) for q in near[1:] for k in (1, 2)]  # toward e_1 and e_2
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(12)] + near + [np.eye(n)[-1]])
    ball = BallStop(norm="linf", radius=mu * np.log(1.0 / mu))
    _assert_matches_step_by_step(oracle, q0, DescentConfig(eta=0.01, max_iters=max_iters, stop_ball=ball), traced)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("max_iters", [1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 3])
def test_block_values_match_step_by_step_engine(max_iters, traced, rotated):
    # the bare sep_objective carries values: the engine steps with value=False
    # and takes a traced window's values, or an untraced row's stop value, from
    # values, while the reference asks each step's oracle call for the value
    n, mu = 6, 0.03
    sep = sep_objective(mu)
    asked = []

    def spy(q, value=True, out=None):
        asked.append(value)
        return sep(q, value, out)

    spy.values = sep.values
    rng = np.random.default_rng(4)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(12)]
                  + [chart_to_sphere(np.full(n - 1, r)) for r in (0.05, 0.15, 0.3)] + [np.eye(n)[-1]])
    basis = haar_orthogonal(n, rng) if rotated else None
    cfg = DescentConfig(eta=0.01, max_iters=max_iters, stop_ball=BallStop(norm="linf", radius=mu * np.log(1.0 / mu)))
    riemannian_gd_block(spy, q0, cfg, basis, traced=traced)
    assert asked and not any(asked)
    _assert_matches_step_by_step(sep, q0, cfg, traced, basis)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("stop", ["ball", "grad_tol"])
def test_rows_stop_at_every_offset_of_a_window(stop, traced):
    # start row j at iterate j of one run: it stops j iterations earlier, so
    # the rows of one block stop at every offset inside a window
    n, mu = 6, 0.03
    oracle = sep_objective(mu)
    if stop == "ball":
        cfg = DescentConfig(eta=0.01, max_iters=5000, stop_ball=BallStop(norm="linf", radius=mu * np.log(1.0 / mu)))
    else:
        cfg = DescentConfig(eta=0.01, max_iters=5000, stop_grad_tol=1e-2)
    q = sample_uniform_sphere(n, np.random.default_rng(3))
    status, _, visited = _step_by_step(oracle, q, cfg, True)
    assert status == ("ball_entered" if stop == "ball" else "grad_tol") and len(visited) > 2 * _WINDOW
    q0 = np.array(visited[: _WINDOW + 3])
    offsets = {int(tr.iters[-1]) % _WINDOW for tr in riemannian_gd_block(oracle, q0, cfg, traced=traced)}
    assert offsets == set(range(_WINDOW))
    _assert_matches_step_by_step(oracle, q0, cfg, traced)


@pytest.mark.parametrize(
    "traced, rotated", [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-rotated", "True-rotated"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_aborts_at_its_iteration_without_warnings(bad, traced, rotated):
    # rows step on through the rest of the window after the gradient turns
    # non-finite; those steps, and their rotation into a target frame, are
    # discarded and raise no floating-point warning
    n, mu = 6, 0.03
    inner = sep_objective(mu)

    def oracle(q, value=True, out=None):
        f, g = inner(q, value, out)
        np.copyto(g, bad, where=np.max(np.abs(q), axis=-1, keepdims=True) > 0.9)
        return f, g

    rng = np.random.default_rng(3)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(8)])
    basis = haar_orthogonal(n, rng) if rotated else None
    cfg = DescentConfig(eta=0.01, max_iters=5000, stop_ball=BallStop(norm="linf", radius=mu * np.log(1.0 / mu)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = riemannian_gd_block(oracle, q0, cfg, basis, traced=traced)
        _assert_matches_step_by_step(oracle, q0, cfg, traced, basis)
    assert {tr.status for tr in traces} == {"aborted_nan"}
    assert any(int(tr.iters[-1]) % _WINDOW < _WINDOW - 1 for tr in traces)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 8), st.integers(1, 8), st.booleans(), st.booleans(), st.sampled_from(["linf", "l2"]),
    st.integers(0, 2**32 - 1), st.data(),
)
def test_block_rows_do_not_depend_on_the_block(n, rows, traced, rotated, norm, seed, data):
    # with a target basis, each row's frame rotation must not depend on its block either
    mu = 0.05
    rng = np.random.default_rng(seed)
    q0 = np.array([sample_uniform_sphere(n, rng) for _ in range(rows)])
    basis = haar_orthogonal(n, rng) if rotated else None
    ball = BallStop(norm=norm, radius=mu * np.log(1.0 / mu))
    cfg = DescentConfig(eta=0.02, max_iters=100, stop_ball=ball)
    whole = riemannian_gd_block(sep_objective(mu), q0, cfg, basis, traced=traced)
    perm = np.array(data.draw(st.permutations(range(rows))))
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=3))) if rows > 1 else []
    for part in np.split(perm, cuts):
        for k, tr in zip(part, riemannian_gd_block(sep_objective(mu), q0[part], cfg, basis, traced=traced)):
            assert tr.status == whole[k].status
            for name in _COLUMNS:
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
    col, err = recovery_error(inst.A0[:, 2], inst.A0)
    assert col == 3 and err <= 1e-12
    col, err = recovery_error(-inst.A0[:, 0], inst.A0)
    assert col == -1 and err <= 1e-12
    for _ in range(20):
        q = sample_uniform_sphere(6, rng)
        _, err = recovery_error(q, inst.A0)
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
    with pytest.raises(TypeError):  # no default radius, which the radius check would reject
        BallStop()


@pytest.mark.parametrize(
    "make",
    [
        lambda: DescentConfig(eta=np.nan, max_iters=10),
        lambda: DescentConfig(eta=np.inf, max_iters=10),
        lambda: DescentConfig(eta=0.1, max_iters=10, stop_grad_tol=np.nan),
        lambda: DescentConfig(eta=1e-6, max_iters=np.nan),
        lambda: DescentConfig(eta=1e-6, max_iters=np.inf),
        lambda: DescentConfig(eta=1e-6, max_iters=2.5),
        lambda: BallStop(norm="linf", radius=np.nan),
        lambda: BallStop(norm="l2", radius=np.inf),
    ],
    ids=["eta-nan", "eta-inf", "grad-tol-nan", "max-iters-nan", "max-iters-inf", "max-iters-fractional",
         "radius-nan", "radius-inf"],
)
def test_config_rejects_non_finite(make):
    with pytest.raises(ValueError):
        make()
