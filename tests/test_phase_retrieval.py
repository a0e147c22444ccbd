import math

import numpy as np
import pytest

from spheregd.constants import PR_DECOMP_TOL, PR_IDENTITY_RTOL, PR_ORTHO_TOL
from spheregd.phase_retrieval import (
    iteration_budget,
    max_step_size,
    pr_decompose,
    pr_descend,
    pr_dist_to_solutions,
    pr_experiment,
    pr_gradient,
    pr_reconstruct,
    pr_region,
    pr_step,
    pr_value,
    region_invariance_check,
    sample_ball,
)


def _rand_signal(n, rng, norm=1.0):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x * (norm / np.linalg.norm(x))


def test_value_examples():
    x = np.zeros(3, complex)
    x[0] = 1.0
    assert pr_value(np.zeros(3, complex), x) == pytest.approx(1.0, abs=1e-15)
    z = 0.5 * x
    assert pr_value(z, x) == pytest.approx(0.5625, abs=1e-15)
    for theta in (0.0, 1.1, 4.0):
        assert abs(pr_value(np.exp(1j * theta) * x, x)) <= 1e-12


def test_gradient_zeros():
    rng = np.random.default_rng(0)
    x = _rand_signal(4, rng)
    assert np.linalg.norm(pr_gradient(np.zeros(4, complex), x)) == 0.0
    assert np.linalg.norm(pr_gradient(x, x)) <= 1e-15
    # saddle ring: orthogonal to x at norm ||x||/sqrt(2)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w -= (np.vdot(x, w) / np.vdot(x, x)) * x
    w *= 1.0 / (np.sqrt(2.0) * np.linalg.norm(w))
    assert np.linalg.norm(pr_gradient(w, x)) <= 1e-14


def test_decompose_examples_and_roundtrip():
    rng = np.random.default_rng(1)
    x = _rand_signal(5, rng, norm=1.4)
    dec = pr_decompose(x, x)
    assert dec.zeta == pytest.approx(1.4, abs=1e-14)
    assert dec.phi == pytest.approx(0.0, abs=1e-14)
    assert np.linalg.norm(dec.w) <= 1e-14

    # exactly orthogonal state: support-disjoint construction
    x2 = np.zeros(4, complex)
    x2[0] = 2.0
    z2 = np.zeros(4, complex)
    z2[1] = 1.0 - 0.5j
    dec2 = pr_decompose(z2, x2)
    assert dec2.zeta == 0.0 and dec2.phi == 0.0
    assert np.array_equal(dec2.w, z2)

    for _ in range(100):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        dec = pr_decompose(z, x)
        assert abs(np.vdot(x, dec.w)) <= PR_ORTHO_TOL
        assert np.max(np.abs(pr_reconstruct(dec, x) - z)) <= PR_DECOMP_TOL
        assert 0.0 <= dec.phi < 2.0 * math.pi


def test_step_scalar_recurrence_example():
    x = np.zeros(2, complex)
    x[0] = 1.0
    z = 0.5 * x
    for eta in (0.01, 0.05, 0.11):
        z1 = pr_step(z, x, eta)
        dec = pr_decompose(z1, x)
        # ||z||^2 - ||x||^2 = -0.75 so the margin scales by (1 + 1.5 eta)
        assert dec.zeta == pytest.approx(0.5 * (1.0 + 1.5 * eta), abs=1e-14)


def test_minimizer_is_fixed_point():
    rng = np.random.default_rng(2)
    x = _rand_signal(3, rng)
    z = np.exp(0.7j) * x
    z1 = pr_step(z, x, 0.03)
    assert np.max(np.abs(z1 - z)) <= 1e-14


def test_phase_invariant_along_step():
    rng = np.random.default_rng(3)
    x = _rand_signal(6, rng)
    eta = 0.9 * max_step_size(x, 0.2)
    z = sample_ball(6, 1.0 / np.sqrt(2.0), rng)
    for _ in range(50):
        before = pr_decompose(z, x)
        z = pr_step(z, x, eta)
        after = pr_decompose(z, x)
        if before.zeta > 1e-12:
            dphi = (after.phi - before.phi + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(dphi) <= 1e-10


def test_region_classification():
    x = np.zeros(3, complex)
    x[0] = 1.0
    assert pr_region(np.zeros(3, complex), x, 0.1) == "S1"
    z = np.sqrt(0.9) * x
    assert pr_region(z, x, 0.05) == "S2"  # 0.9 <= 1 - 0.05
    assert pr_region(z, x, 0.2) == "S3"  # 0.9 > 1 - 0.2
    assert pr_region(np.sqrt(1.3) * x, x, 0.2) == "outside"
    with pytest.raises(ValueError):
        pr_region(z, x, 0.3)


def test_dist_identity_against_phase_grid():
    rng = np.random.default_rng(4)
    x = _rand_signal(4, rng)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = pr_dist_to_solutions(z, x)
        thetas = np.linspace(0.0, 2.0 * math.pi, 1 << 18, endpoint=False)
        grid = np.min(
            np.linalg.norm(np.exp(1j * thetas)[:, None] * x[None, :] - z[None, :], axis=1)
        )
        assert d * d == pytest.approx(grid * grid, abs=1e-8)


def test_identities_along_trajectories():
    c = 1.0 / 35.0
    for n in (2, 8):
        x = np.zeros(n, complex)
        x[0] = 1.0
        eta = 0.95 * max_step_size(x, c)
        rng = np.random.default_rng(5)
        z0 = None
        while z0 is None:
            cand = sample_ball(n, 1.0 / math.sqrt(2.0), rng)
            if pr_decompose(cand, x).zeta >= 0.02:
                z0 = cand
        run = pr_descend(z0, x, eta, c, 1000, stop_at_target=False)
        assert run.max_zeta_dev <= PR_IDENTITY_RTOL
        assert run.max_w_dev <= PR_IDENTITY_RTOL


def test_region_invariance():
    rng = np.random.default_rng(6)
    x = _rand_signal(5, rng)
    for c in (1.0 / 35.0, 0.2):
        eta = 0.99 * max_step_size(x, c)
        union_bad, s1_bad = region_invariance_check(x, c, eta, 100_000, rng)
        assert union_bad == 0
        assert s1_bad == 0


def test_shell_step_inequalities():
    # margin grows at least by (1 + eta ||x||^2) per step inside the core
    # shell, and the orthogonal part never grows outside it
    rng = np.random.default_rng(7)
    x = _rand_signal(6, rng, norm=1.3)
    x2 = float(np.vdot(x, x).real)
    c = 0.15
    eta = 0.9 * max_step_size(x, c)
    for _ in range(500):
        z = sample_ball(6, math.sqrt(1.0 + c) * math.sqrt(x2), rng)
        region = pr_region(z, x, c)
        if region == "outside":
            continue
        before = pr_decompose(z, x)
        after = pr_decompose(pr_step(z, x, eta), x)
        wb = np.linalg.norm(before.w)
        wa = np.linalg.norm(after.w)
        if region == "S1":
            assert after.zeta >= (1.0 + eta * x2) * before.zeta * (1.0 - 1e-12)
            assert wa >= wb * (1.0 - 1e-12)
        else:
            assert wa <= wb * (1.0 + 1e-12)
        if region == "S2":
            assert after.zeta >= (1.0 + 2.0 * c * eta * x2) * before.zeta * (1.0 - 1e-12)


def test_experiment_summary():
    n = 6
    c = 1.0 / 35.0
    x = np.zeros(n, complex)
    x[0] = 1.0
    eta = 0.95 * max_step_size(x, c)
    zeta0 = 0.1 / math.sqrt(2.0 * n)
    exp = pr_experiment(n, x, eta, c, zeta0, np.random.default_rng(8).spawn(50))
    assert exp.success_fraction == 1.0
    assert exp.band_fraction <= exp.band_bound + 3.0 * math.sqrt(0.25 / exp.total_draws)
    # margin never falls below min(initial margin, sqrt(7)/4 ||x||)
    for run in exp.runs:
        floor = min(run.zeta_init, math.sqrt(7.0) / 4.0)
        assert run.min_zeta >= floor * (1.0 - 1e-10)
    assert all(r.final_dist < math.sqrt(5.0 * c) for r in exp.runs)


def test_iteration_budget_positive_and_monotone():
    x = np.zeros(4, complex)
    x[0] = 1.0
    c = 1.0 / 35.0
    eta = 0.9 * max_step_size(x, c)
    b1 = iteration_budget(x, eta, c, 0.2)
    b2 = iteration_budget(x, eta, c, 0.02)
    assert 0 < b1 < b2


def test_experiment_rejects_bad_eta():
    x = np.zeros(4, complex)
    x[0] = 1.0
    with pytest.raises(ValueError):
        pr_experiment(4, x, 1.0, 1.0 / 35.0, 0.05, np.random.default_rng(0).spawn(3))


def test_experiment_rejects_empty_rngs():
    x = np.zeros(4, complex)
    x[0] = 1.0
    with pytest.raises(ValueError, match="at least one generator"):
        pr_experiment(4, x, 0.01, 1.0 / 35.0, 0.05, [])
