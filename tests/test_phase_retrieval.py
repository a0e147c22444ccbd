import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from conftest import ZeroFirst
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spheregd import phase_retrieval
from spheregd.descent import _WINDOW
from spheregd.phase_retrieval import (
    _margin,
    _orthogonal,
    iteration_budgets,
    max_step_size,
    pr_decompose,
    pr_descend,
    pr_descend_block,
    pr_experiment,
    pr_value,
    region_invariance_check,
    sample_ball,
    sample_balls,
)

PR_IDENTITY_RTOL = 1e-10  # relative tolerance of the exact zeta / ||w|| update identities
PR_DECOMP_TOL = 1e-12  # decomposition roundtrip
PR_ORTHO_TOL = 1e-10  # orthogonality of the decomposition's w to x


def pr_reconstruct(dec, x):
    """Inverse of pr_decompose."""
    return dec.w + dec.zeta * np.exp(1j * dec.phi) * x / math.sqrt(np.vdot(x, x).real)


def pr_region(z, x, c):
    """Classify z into the nested shells by ||z||^2 / ||x||^2:
    S1 (..1/2], S2 (1/2..1-c], S3 (1-c..1], S4 (1..1+c], else "outside"."""
    r = np.vdot(z, z).real / np.vdot(x, x).real
    for region, top in (("S1", 0.5), ("S2", 1.0 - c), ("S3", 1.0), ("S4", 1.0 + c)):
        if r <= top:
            return region
    return "outside"


def _rand_signal(n, rng, norm=1.0):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x * (norm / np.linalg.norm(x))


def _one_step(z, x, eta):
    # c only sets the target, which a fixed-length run ignores
    return pr_descend(z, x, eta, 0.1, 1, stop_at_target=False).final_z


def test_value_examples():
    x = np.zeros(3, complex)
    x[0] = 1.0
    assert pr_value(np.zeros(3, complex), x) == pytest.approx(1.0, abs=1e-15)
    z = 0.5 * x
    assert pr_value(z, x) == pytest.approx(0.5625, abs=1e-15)
    for theta in (0.0, 1.1, 4.0):
        assert abs(pr_value(np.exp(1j * theta) * x, x)) <= 1e-12


def test_gradient_zeros():
    # the gradient vanishes at 0, at x and on the saddle ring, so a step stays put
    rng = np.random.default_rng(0)
    x = _rand_signal(4, rng)
    eta = 0.1
    assert np.array_equal(_one_step(np.zeros(4, complex), x, eta), np.zeros(4))
    assert np.linalg.norm(_one_step(x, x, eta) - x) <= eta * 1e-14
    # saddle ring: orthogonal to x at norm ||x||/sqrt(2)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w -= (np.vdot(x, w) / np.vdot(x, x)) * x
    w *= 1.0 / (np.sqrt(2.0) * np.linalg.norm(w))
    assert np.linalg.norm(_one_step(w, x, eta) - w) <= eta * 1e-14


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
        z1 = _one_step(z, x, eta)
        dec = pr_decompose(z1, x)
        # ||z||^2 - ||x||^2 = -0.75 so the margin scales by (1 + 1.5 eta)
        assert dec.zeta == pytest.approx(0.5 * (1.0 + 1.5 * eta), abs=1e-14)


def test_minimizer_is_fixed_point():
    rng = np.random.default_rng(2)
    x = _rand_signal(3, rng)
    z = np.exp(0.7j) * x
    z1 = _one_step(z, x, 0.03)
    assert np.max(np.abs(z1 - z)) <= 1e-14


def test_phase_invariant_along_step():
    rng = np.random.default_rng(3)
    x = _rand_signal(6, rng)
    eta = 0.9 * max_step_size(x, 0.2)
    z = sample_ball(6, 1.0 / np.sqrt(2.0), rng)
    for _ in range(50):
        before = pr_decompose(z, x)
        z = _one_step(z, x, eta)
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


def test_dist_identity_against_phase_grid():
    rng = np.random.default_rng(4)
    x = _rand_signal(4, rng)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = pr_descend(z, x, 0.01, 0.1, 0).final_dist
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
        after = pr_decompose(_one_step(z, x, eta), x)
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
    assert all(r.final_dist < math.sqrt(5.0 * c) for r in exp.runs)


def test_iteration_budget_positive_and_monotone():
    x = np.zeros(4, complex)
    x[0] = 1.0
    c = 1.0 / 35.0
    eta = 0.9 * max_step_size(x, c)
    b1, b2 = iteration_budgets(x, eta, c, [0.2, 0.02])
    assert 0 < b1 < b2


def _one_budget(x2, eta, c, zeta_init):
    # the one-margin budget as a sum of its three terms, in that order
    a = eta * x2
    rates = math.log1p(a), math.log1p(2.0 * c * a), math.log1p(-(1.0 - 2.0 * c) * a)
    t1 = max(0.0, math.log(math.sqrt(x2) / (zeta_init * math.sqrt(2.0))) / rates[0])
    t2 = math.log(2.0) / (2.0 * rates[1])
    t34 = math.log(2.0 * c) / rates[2]
    tr = math.log(4.0 / math.sqrt(7.0)) / rates[1]
    return int(math.ceil(t1 + t2 + t34 * tr)) + 1


def test_budgets_of_a_batch_equal_one_margin_budgets():
    rng = np.random.default_rng(12)
    for n, norm in ((2, 1.0), (8, 1.0), (5, 2.7)):
        x = _rand_signal(n, rng, norm)
        x2 = np.vdot(x, x).real
        for c in (1.0 / 35.0, 0.2):
            eta = 0.95 * max_step_size(x, c)
            zetas = (norm * 10.0 ** rng.uniform(-12.0, 0.0, 500)).tolist()
            assert iteration_budgets(x, eta, c, zetas) == [_one_budget(x2, eta, c, z) for z in zetas]


_BUDGET_EDGES = [1e-300, 1e-8, math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(
    eta=st.sampled_from(_BUDGET_EDGES) | st.floats(1e-6, 0.125),
    c=st.sampled_from(_BUDGET_EDGES + [0.2499, math.nextafter(0.25, 0.0)]) | st.floats(1e-4, 0.2499),
    zeta_init=st.sampled_from(_BUDGET_EDGES) | st.floats(1e-6, 1.0 / math.sqrt(2.0)),
)
def test_iteration_budget_is_a_positive_int_or_a_value_error(eta, c, zeta_init):
    # eta or c of 1e-300 makes a log1p rate 0 or the total infinite
    try:
        [budget] = iteration_budgets(np.eye(4, dtype=complex)[0], eta, c, [zeta_init])
    except ValueError:
        return
    assert type(budget) is int and budget > 0


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


@pytest.mark.parametrize(
    "n, zeta0, draws",
    [
        (32, 0.65, False),  # P = 0.155^32 ~ 1e-26: hopeless, so no generator is touched
        (6, 0.7, True),  # P = 0.02^6: clears zeta0 in 1e5 draws with chance 6.4e-6, so they are drawn
    ],
)
def test_experiment_fails_fast_on_a_hopeless_band(n, zeta0, draws):
    x = np.eye(n, dtype=complex)[0]
    c = 1.0 / 35.0
    rngs, twins = np.random.default_rng(4).spawn(4), np.random.default_rng(4).spawn(4)
    with pytest.raises(ValueError, match="no start clears zeta0"):
        pr_experiment(n, x, 0.95 * max_step_size(x, c), c, zeta0, rngs)
    assert (rngs[0].bit_generator.state != twins[0].bit_generator.state) == draws
    if draws:  # the first generator runs out of draws; each later one has drawn its first start only
        for g in twins[1:]:
            sample_ball(n, 1.0 / math.sqrt(2.0), g)
    assert [g.bit_generator.state for g in rngs[1:]] == [g.bit_generator.state for g in twins[1:]]


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8, 9, 33])
def test_sample_balls_rows_are_sample_ball_draws(n):
    # each row, and each generator's state after it, as a loop of sample_ball
    # over the generators gives them; two generators start with a zero direction
    def gens():
        return [ZeroFirst(s) if s in (0, 57) else np.random.default_rng([n, s]) for s in range(120)]

    rngs, twins = gens(), gens()
    block = sample_balls(n, 0.7, rngs)
    assert _bits(block) == _bits(sample_ball(n, 0.7, g) for g in twins)
    assert [getattr(g, "rng", g).bit_generator.state for g in rngs] == [
        getattr(g, "rng", g).bit_generator.state for g in twins
    ]


def _loop_starts(n, zeta0, rngs):
    # one generator after another, sample_ball until a start's margin about x = e1 clears zeta0
    starts, zetas = [], []
    for g in rngs:
        zeta = -1.0
        while zeta < zeta0:
            z0 = sample_ball(n, 1.0 / math.sqrt(2.0), g)
            ip = np.vdot(np.eye(n, dtype=complex)[0], z0)
            zeta = float(np.hypot(ip.real, ip.imag))
        starts.append(z0)
        zetas.append(zeta)
    return starts, zetas


@pytest.mark.parametrize(
    "n, zeta0, max_iters",
    [
        (8, 0.025, None),  # the gate-10 band: about one start in 100 is redrawn, here 2 of 200
        (8, 0.2, 40),  # about half are redrawn, some several times; the cap binds
        (3, 0.45, None),
    ],
)
def test_experiment_starts_are_drawn_one_generator_after_another(monkeypatch, n, zeta0, max_iters):
    x = np.eye(n, dtype=complex)[0]
    c = 1.0 / 35.0
    eta = 0.95 * max_step_size(x, c)
    engine, seen = phase_retrieval.pr_descend_block, {}

    def record(Z0, *args):
        seen.update(starts=Z0, budgets=list(args[3]))
        return engine(Z0, *args)

    monkeypatch.setattr(phase_retrieval, "pr_descend_block", record)
    rngs, twins = np.random.default_rng(31).spawn(200), np.random.default_rng(31).spawn(200)
    exp = pr_experiment(n, x, eta, c, zeta0, rngs, max_iters)
    starts, zetas = _loop_starts(n, zeta0, twins)
    assert _bits(seen["starts"]) == _bits(starts)
    budgets = [_one_budget(1.0, eta, c, z) for z in zetas]
    assert seen["budgets"] == [b if max_iters is None else min(b, max_iters) for b in budgets]
    assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in twins]
    redrawn = exp.total_draws - len(rngs)
    assert redrawn >= 1 and (zeta0 < 0.1 or redrawn > 50)


def _one_value(z, x):
    # the one-point value with |x^H z|^2 as the scalar complex product
    z2, x2, ip = np.vdot(z, z).real, np.vdot(x, x).real, np.vdot(x, z)
    return float(x2 * x2 + z2 * z2 - x2 * z2 - (ip * ip.conjugate()).real)


@pytest.mark.parametrize("signal", ["e1", "random"])
def test_value_of_a_block_is_each_rows_value(signal):
    # final iterates of converged and of capped runs; an array's
    # (ip * conj(ip)).real rounds unlike the scalar product in some of these rows
    n, c = 8, 1.0 / 35.0
    x = _rand_signal(n, np.random.default_rng(3)) if signal == "random" else np.eye(n, dtype=complex)[0]
    eta = 0.95 * max_step_size(x, c)
    Z = np.array([
        r.final_z
        for cap in (None, 30, 60)
        for r in pr_experiment(n, x, eta, c, 0.025, np.random.default_rng(7).spawn(1000), cap).runs
    ])
    block = pr_value(Z, x)
    assert block.shape == (3000,)
    assert _bits(block) == _bits(pr_value(z, x) for z in Z) == _bits(_one_value(z, x) for z in Z)
    with pytest.raises(ValueError, match="same length"):
        pr_value(Z[None], x)


_Z = np.full(3, 0.1 + 0.2j)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x: pr_value(_Z, x), id="pr_value"),
        pytest.param(lambda x: pr_decompose(_Z, x), id="pr_decompose"),
        pytest.param(lambda x: max_step_size(x, 0.1), id="max_step_size"),
        pytest.param(lambda x: iteration_budgets(x, 0.01, 0.1, [0.2]), id="iteration_budget"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, 5), id="pr_descend"),
        pytest.param(lambda x: pr_descend_block([_Z, _Z], x, 0.01, 0.1, [5, 5]), id="pr_descend_block"),
        pytest.param(
            lambda x: pr_experiment(3, x, 0.01, 0.1, 0.05, [np.random.default_rng(0)]), id="pr_experiment"
        ),
        pytest.param(
            lambda x: region_invariance_check(x, 0.1, 0.01, 10, np.random.default_rng(0)),
            id="region_invariance_check",
        ),
    ],
)
def test_zero_signal_is_rejected(call):
    with pytest.raises(ValueError, match="signal x must be nonzero"):
        call(np.zeros(3, complex))


@pytest.mark.parametrize("eta", [0.0, -0.001, math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x, eta: iteration_budgets(x, eta, 1.0 / 35.0, [0.05]), id="iteration_budget"),
        pytest.param(lambda x, eta: pr_descend(_Z, x, eta, 0.1, 5), id="pr_descend"),
        pytest.param(lambda x, eta: pr_descend_block([_Z, _Z], x, eta, 0.1, [5, 5]), id="pr_descend_block"),
        pytest.param(
            lambda x, eta: pr_experiment(3, x, eta, 0.1, 0.05, [np.random.default_rng(0)]), id="pr_experiment"
        ),
        pytest.param(
            lambda x, eta: region_invariance_check(x, 1.0 / 35.0, eta, 1000, np.random.default_rng(0)),
            id="region_invariance_check",
        ),
    ],
)
def test_non_positive_eta_is_rejected(call, eta):
    with pytest.raises(ValueError, match="eta"):
        call(np.array([1.0, 0.0, 0.0], complex), eta)


@pytest.mark.parametrize("c", [0.0, -0.1, 0.25, 0.3, 0.5, math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x, c: max_step_size(x, c), id="max_step_size"),
        pytest.param(lambda x, c: iteration_budgets(x, 0.01, c, [0.05]), id="iteration_budget"),
        pytest.param(lambda x, c: pr_descend(_Z, x, 0.01, c, 5), id="pr_descend"),
        pytest.param(lambda x, c: pr_descend_block([_Z, _Z], x, 0.01, c, [5, 5]), id="pr_descend_block"),
        pytest.param(lambda x, c: pr_experiment(3, x, 0.01, c, 0.05, [np.random.default_rng(0)]), id="pr_experiment"),
    ],
)
def test_c_outside_a_quarter_is_rejected(call, c):
    with pytest.raises(ValueError, match=r"need 0 < c < 1/4"):
        call(np.array([1.0, 0.0, 0.0], complex), c)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, 2.7), id="pr_descend-fraction"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, math.inf), id="pr_descend-inf"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, math.nan), id="pr_descend-nan"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, -1), id="pr_descend-negative"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, "5"), id="pr_descend-text"),
        pytest.param(lambda x: pr_descend_block([_Z, _Z], x, 0.01, 0.1, [5, 2.7]), id="pr_descend_block-fraction"),
        pytest.param(lambda x: pr_descend_block([_Z, _Z], x, 0.01, 0.1, [5, math.inf]), id="pr_descend_block-inf"),
        pytest.param(lambda x: pr_descend_block([_Z, _Z], x, 0.01, 0.1, [5]), id="pr_descend_block-one-for-two"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, 10**19), id="pr_descend-past-int64"),
        pytest.param(lambda x: pr_descend(_Z, x, 0.01, 0.1, 10**20), id="pr_descend-past-uint64"),
        pytest.param(
            lambda x: pr_descend_block([_Z, _Z], x, 0.01, 0.1, [5, 2.0**63]), id="pr_descend_block-float-2**63"
        ),
    ],
)
def test_bad_budget_is_rejected(call):
    with pytest.raises(ValueError, match="whole iteration budget"):
        call(np.array([1.0, 0.0, 0.0], complex))


def test_budget_past_int64_is_named_and_the_largest_int64_runs():
    x = np.array([1.0, 0.0, 0.0], complex)
    for budget in (2**63, 10**19, 10**20):
        with pytest.raises(ValueError, match=r"from 0 to 2\*\*63 - 1"):
            pr_descend(_Z, x, 0.01, 0.1, budget)
    run = pr_descend(x, x, 0.01, 0.1, 2**63 - 1)  # at the target from the start
    assert (run.iterations, run.status) == (0, "ball_entered")


@st.composite
def _signal_and_block(draw):
    n = draw(st.integers(2, 10))
    b = draw(st.integers(1, 6))
    parts = draw(hnp.arrays(np.float64, (b + 1, 2, n), elements=st.floats(-4.0, 4.0)))
    pts = parts[:, 0] + 1j * parts[:, 1]
    assume(np.vdot(pts[0], pts[0]).real >= 1e-2)
    return pts[0], pts[1:]


@settings(max_examples=200, deadline=None)
@given(_signal_and_block())
def test_decompose_roundtrip_and_block_rows(case):
    x, Z = case
    x2 = float(np.vdot(x, x).real)
    xn = math.sqrt(x2)
    ip = np.vecdot(x, Z)
    zeta, W = _margin(ip, xn), _orthogonal(Z, ip, x, x2)
    for k, z in enumerate(Z):
        dec = pr_decompose(z, x)
        scale = max(1.0, float(np.linalg.norm(z)))
        assert np.max(np.abs(pr_reconstruct(dec, x) - z)) <= PR_DECOMP_TOL * scale
        assert abs(np.vdot(x, dec.w)) <= PR_ORTHO_TOL * xn * scale
        assert dec.zeta >= 0.0 and 0.0 <= dec.phi < 2.0 * math.pi
        assert dec.phi == 0.0 or dec.zeta > 0.0
        # a block row carries the bits of the one-point decomposition
        assert ip[k] == np.vdot(x, z)
        assert zeta[k] == dec.zeta
        assert W[k].tobytes() == dec.w.tobytes()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_w_recurrence_holds_to_rounding_for_e1(n):
    # probe-pr-identities' fixed-length runs: for x = e1 the projection's first
    # coordinate is exactly 0, so ||w|| carries no rounding of x's component
    x = np.eye(n, dtype=complex)[0]
    c = 1.0 / 35.0
    eta = 0.95 * max_step_size(x, c)
    for seed in range(3):
        z0 = sample_ball(n, 1.0 / math.sqrt(2.0), np.random.default_rng(seed))
        run = pr_descend(z0, x, eta, c, 1000, stop_at_target=False)
        assert run.iterations == 1000 and run.max_w_dev <= 1e-14
        assert pr_decompose(z0, x).w[0] == 0.0 and pr_decompose(run.final_z, x).w[0] == 0.0


def _scalar_descend(z, x, eta, c, max_iters, stop_at_target):
    """The one-point loop written out with 1-D numpy calls: the reference the
    engine's row forms must reproduce bit for bit.  Returns the PRTrajectory
    fields, the status the first stop rule that holds in the order non-finite,
    target, budget, then the initial and the smallest margin."""

    def decompose(z):
        ip = np.vdot(x, z)
        return float(abs(ip)) / xn, float(np.linalg.norm(z - ip * (x / x2)))

    x2 = float(np.vdot(x, x).real)
    xn = math.sqrt(x2)
    zeta, wn = decompose(z)
    zeta_init, min_zeta, max_zdev, max_wdev, converged = zeta, zeta, 0.0, 0.0, False
    status = None
    for t in range(max_iters + 1):
        z2 = float(np.vdot(z, z).real)
        dist = math.sqrt(max(0.0, z2 + x2 - 2.0 * zeta * xn))
        converged = converged or dist < math.sqrt(5.0 * c) * xn
        if not math.isfinite(z2):
            status = "aborted_nan"
        elif converged and stop_at_target:
            status = "ball_entered"
        elif t == max_iters:
            status = "max_iters"
        if status:
            break
        pred_zeta = (1.0 - 2.0 * eta * (z2 - x2)) * zeta
        pred_wn = (1.0 - eta * (2.0 * z2 - x2)) * wn
        z = z - eta * ((2.0 * z2 - x2) * z - np.vdot(x, z) * x)
        zeta, wn = decompose(z)
        max_zdev = max(max_zdev, abs(zeta - pred_zeta) / max(abs(pred_zeta), 1e-6 * xn))
        max_wdev = max(max_wdev, abs(wn - pred_wn) / max(abs(pred_wn), 1e-6 * xn))
        min_zeta = min(min_zeta, zeta)
    return (t, converged, z, dist, zeta, max_zdev, max_wdev, status), (zeta_init, min_zeta)


def _bits(values):
    return [np.asarray(v).tobytes() for v in values]


@pytest.mark.parametrize("signal", ["e1", "random"])
@pytest.mark.parametrize("n", [2, 4, 5, 9])
def test_block_rows_match_one_row_runs(n, signal):
    # n = 4, 5, 9 are sizes where sqrt(vecdot(w, w).real) and np.linalg.norm differ
    rng = np.random.default_rng(40 + n)
    x = _rand_signal(n, rng) if signal == "random" else np.eye(n, dtype=complex)[0]
    c = 1.0 / 35.0
    eta = 0.95 * max_step_size(x, c)
    starts = [sample_ball(n, 1.0 / math.sqrt(2.0), rng) for _ in range(12)]
    starts.append(np.exp(0.4j) * 0.95 * x)  # at the target from the start
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w -= np.vdot(x, w) * x  # x has unit norm
    starts.append(0.5 * w / np.linalg.norm(w))  # margin ~ 0
    # budgets at the edges of a window, where a row's last check falls on its first or last iterate
    edges = (2, 8, 25, _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 3, 60, 120, 200)
    budgets = [edges[k % len(edges)] for k in range(len(starts))]
    for stop_at_target in (True, False):
        runs = pr_descend_block(np.array(starts), x, eta, c, budgets, stop_at_target)
        for z0, budget, run in zip(starts, budgets, runs):
            one_row = pr_descend(z0, x, eta, c, budget, stop_at_target)
            bits = _bits(getattr(run, f.name) for f in fields(run))
            assert bits == _bits(getattr(one_row, f.name) for f in fields(run))
            scalar, (zeta_init, min_zeta) = _scalar_descend(z0, x, eta, c, budget, stop_at_target)
            assert bits == _bits(scalar)
            # the margin never falls below min(initial margin, sqrt(7)/4 ||x||), ||x|| = 1,
            # except by rounding at the orthogonal start, whose margin is rounding noise
            if zeta_init > 1e-12:
                assert min_zeta >= min(zeta_init, math.sqrt(7.0) / 4.0) * (1.0 - 1e-10)
            assert _bits([run.final_zeta]) == _bits([pr_decompose(run.final_z, x).zeta])
        if stop_at_target:
            assert any(r.status == "ball_entered" and r.iterations < b for r, b in zip(runs, budgets))
            assert any(r.status == "max_iters" and r.iterations == b for r, b in zip(runs, budgets))
        else:
            assert [r.iterations for r in runs] == budgets
            assert {r.status for r in runs} == {"max_iters"} and any(r.converged for r in runs)


def _run_fields(run):
    return _bits(getattr(run, f.name) for f in fields(run))


def test_rows_reach_the_target_at_every_offset_of_a_window():
    # start row j at iterate j of one slow run: it reaches the target j
    # iterations earlier, so the rows of one block stop at every offset inside a window
    n, c = 6, 1.0 / 35.0
    x = np.eye(n, dtype=complex)[0]
    eta = 0.95 * max_step_size(x, c)
    z0 = 0.5 * np.exp(0.3j) * np.eye(n, dtype=complex)[1] + 1e-3 * x  # margin 1e-3: a slow escape
    hit = pr_descend(z0, x, eta, c, 10_000)
    assert hit.converged and hit.iterations > 2 * _WINDOW
    starts = np.array([pr_descend(z0, x, eta, c, j, stop_at_target=False).final_z for j in range(_WINDOW + 3)])
    budgets = [10_000] * len(starts)
    budgets[-1] = hit.iterations - (len(starts) - 1)  # the last row's target and budget fire at one iterate
    runs = pr_descend_block(starts, x, eta, c, budgets)
    assert [r.iterations for r in runs] == [hit.iterations - j for j in range(len(starts))]
    assert {r.iterations % _WINDOW for r in runs} == set(range(_WINDOW))
    assert {r.status for r in runs} == {"ball_entered"}  # the target rule comes before the budget
    for z, budget, run in zip(starts, budgets, runs):
        assert _run_fields(run) == _bits(_scalar_descend(z, x, eta, c, budget, True)[0])


def test_converged_stays_set_in_later_windows():
    # at 20 times the admissible step a fixed-length row passes in and out of
    # the target; this one visits it in its first window only, and converged
    # still reports the visit at the end of the second
    n, c = 2, 1.0 / 35.0
    x = np.eye(n, dtype=complex)[0]
    eta = 20.0 * max_step_size(x, c)
    z0 = sample_ball(n, 1.0 / math.sqrt(2.0), np.random.default_rng(20))
    assert pr_descend(z0, x, eta, c, 100).iterations < _WINDOW
    ends = [pr_descend(z0, x, eta, c, t, stop_at_target=False) for t in (_WINDOW, _WINDOW + 1)]
    assert all(r.converged and r.final_dist >= math.sqrt(5.0 * c) for r in ends)
    assert _run_fields(ends[1]) == _bits(_scalar_descend(z0, x, eta, c, _WINDOW + 1, False)[0])


def test_row_turning_non_finite_mid_window_leaves_the_others_alone():
    # a start far outside the shells overflows within a few steps; the rest of
    # its window is discarded, no floating-point warning escapes, and the other
    # rows keep their one-row bits
    n, c = 5, 1.0 / 35.0
    rng = np.random.default_rng(11)
    x = _rand_signal(n, rng)
    eta = 0.95 * max_step_size(x, c)
    starts = [sample_ball(n, 1.0 / math.sqrt(2.0), rng) for _ in range(4)]
    starts.insert(2, 1e3 * sample_ball(n, 1.0, rng))
    budgets = [3 * _WINDOW] * len(starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = pr_descend_block(np.array(starts), x, eta, c, budgets, stop_at_target=False)
        alone = [pr_descend(z, x, eta, c, b, stop_at_target=False) for z, b in zip(starts, budgets)]
    bad = runs.pop(2)
    assert 0 < bad.iterations < _WINDOW - 1 and not bad.converged and not math.isfinite(bad.final_dist)
    assert _run_fields(bad) == _run_fields(alone.pop(2))
    starts.pop(2)
    for z, run, one in zip(starts, runs, alone):
        assert run.iterations == 3 * _WINDOW
        assert _run_fields(run) == _run_fields(one) == _bits(_scalar_descend(z, x, eta, c, 3 * _WINDOW, False)[0])


def test_descend_stops_on_non_finite_state():
    x = np.eye(4, dtype=complex)[0]
    z0 = sample_ball(4, 1.0 / math.sqrt(2.0), np.random.default_rng(9))
    with np.errstate(over="ignore", invalid="ignore"):
        run = pr_descend(z0, x, 250.0 * max_step_size(x, 0.1), 0.1, 1000)
    assert run.iterations < 1000 and not run.converged
    assert run.status == "aborted_nan" and not math.isfinite(run.final_dist)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_block_rows_do_not_depend_on_the_block(n, rows, stop_at_target, seed, data):
    rng = np.random.default_rng(seed)
    x = _rand_signal(n, rng)
    c = 1.0 / 35.0
    eta = 0.95 * max_step_size(x, c)
    Z0 = np.array([sample_ball(n, 1.0 / math.sqrt(2.0), rng) for _ in range(rows)])
    budgets = rng.integers(0, 120, rows)
    whole = pr_descend_block(Z0, x, eta, c, budgets, stop_at_target)
    perm = np.array(data.draw(st.permutations(range(rows))))
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=3))) if rows > 1 else []
    for part in np.split(perm, cuts):
        for k, run in zip(part, pr_descend_block(Z0[part], x, eta, c, budgets[part], stop_at_target)):
            assert _bits(getattr(run, f.name) for f in fields(run)) == _bits(
                getattr(whole[k], f.name) for f in fields(run)
            )
