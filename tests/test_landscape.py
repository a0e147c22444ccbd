import numpy as np
import pytest
from conftest import sep_chart_grad

from spheregd.descent import DescentConfig, riemannian_gd_block
from spheregd.landscape import (
    CriticalPoint,
    classify_support,
    enumerate_critical_points,
    fluctuation_probe,
    projection_constant_floor,
    projection_scan,
    volume_curve,
    volume_estimate,
)
from spheregd.objectives import sep_objective
from spheregd.sphere import chart_to_sphere, exp_map, outward_direction, sample_uniform_sphere, scale_to_zeta

CRITICAL_GRAD_TOL = 1e-10  # Riemannian gradient norm at enumerated critical points
TIE_TOL = 1e-9  # thickness of "tied max magnitude" in predict_flow_limit


def predict_flow_limit(q):
    """Critical point that gradient flow from q converges to: coordinates
    within TIE_TOL of the maximal magnitude keep their signs, the rest vanish."""
    q = np.asarray(q, dtype=float)
    m = float(np.max(np.abs(q)))
    pattern = tuple(int(np.sign(v)) if abs(v) >= m - TIE_TOL else 0 for v in q)
    k = sum(1 for v in pattern if v != 0)
    return CriticalPoint(pattern=pattern, support_size=k, kind=classify_support(k, q.size))


def _counts(points):
    out = {}
    for cp in points:
        out[cp.kind] = out.get(cp.kind, 0) + 1
    return out


def test_enumeration_counts():
    pts = enumerate_critical_points(1)
    assert len(pts) == 2
    assert all(cp.kind == "degenerate" for cp in pts)

    pts = enumerate_critical_points(2)
    assert len(pts) == 8
    assert _counts(pts) == {"minimizer": 4, "maximizer": 4}

    pts = enumerate_critical_points(3)
    assert len(pts) == 26
    assert _counts(pts) == {"minimizer": 6, "saddle": 12, "maximizer": 8}


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_critical_points(13)
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_critical_points(0)


def test_critical_points_have_zero_gradient():
    for n in (2, 4, 6):
        oracle = sep_objective(0.02)
        for cp in enumerate_critical_points(n):
            g = oracle(cp.point)[1]
            assert np.linalg.norm(g) <= CRITICAL_GRAD_TOL


def test_predict_flow_limit_examples():
    cp = predict_flow_limit(np.eye(3)[2])
    assert cp.pattern == (0, 0, 1)
    q = np.array([1.0, 1.0, 0.5])
    q /= np.linalg.norm(q)
    cp = predict_flow_limit(q)
    assert cp.pattern == (1, 1, 0)
    assert cp.kind == "saddle"


def test_flow_limit_matches_descent():
    n, mu = 5, 0.05
    oracle = sep_objective(mu)
    rng = np.random.default_rng(0)
    q0 = [sample_uniform_sphere(n, rng) for _ in range(100)]
    cfg = DescentConfig(eta=mu / 4.0, max_iters=20_000, stop_grad_tol=1e-10)
    for q, tr in zip(q0, riemannian_gd_block(oracle, q0, cfg)):
        assert np.linalg.norm(tr.q_final - predict_flow_limit(q).point) <= 1e-3


def test_flow_limit_of_generic_point_is_minimizer():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = sample_uniform_sphere(7, rng)
        assert predict_flow_limit(q).kind == "minimizer"


def test_tied_coordinates_on_boundary_manifolds():
    # a point with >= 2 tied max coordinates belongs to a non-minimizer manifold
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = sample_uniform_sphere(5, rng)
        j = np.argsort(np.abs(q))[-2:]
        q[j[0]] = np.sign(q[j[0]]) * abs(q[j[1]])
        q /= np.linalg.norm(q)
        cp = predict_flow_limit(q)
        assert cp.kind in ("saddle", "maximizer")


def test_ties_preserved_under_descent():
    # symmetry argument: tied max-coordinates stay tied along the flow
    oracle = sep_objective(0.05)
    q = np.array([0.55, 0.55, 0.4, 0.3, 0.2])
    q /= np.linalg.norm(q)
    q[1] = np.sign(q[1]) * abs(q[0])
    q /= np.linalg.norm(q)
    for _ in range(300):
        _, g = oracle(q)
        q = exp_map(q, -0.01 * g)
        assert abs(abs(q[0]) - abs(q[1])) <= 1e-12


def test_u_direction_values():
    w = np.array([0.3, 0.2])
    q, u = outward_direction(w, 0)
    assert np.array_equal(q, chart_to_sphere(w))
    assert np.allclose(u, [1.0, 0.0, -0.32163376045133846], atol=1e-15)
    assert abs(q @ u) <= 1e-15
    # norm identity ||u||^2 = 1 + w_i^2/q_n^2 <= 2 inside the section
    assert np.linalg.norm(u) ** 2 == pytest.approx(1.0 + (0.3 / q[-1]) ** 2, abs=1e-14)
    # the sign of w_i sets the e_i entry alone
    qm, um = outward_direction(np.array([-0.3, 0.2]), 0)
    assert um[0] == -1.0 and um[1] == 0.0
    assert um[-1] == u[-1] and qm[-1] == q[-1]
    _, u1 = outward_direction(np.array([0.3, -0.2]), 1)
    assert u1[0] == 0.0 and u1[1] == -1.0
    with pytest.raises(ValueError):
        outward_direction(np.array([0.0, 0.2]), 0)


def test_volume_estimate_symmetric_section():
    frac, se = volume_estimate(3, 0.0, 1_000_000, np.random.default_rng(4))
    assert abs(frac - 1.0 / 6.0) <= 3.0 * se


def test_volume_guard():
    with pytest.raises(ValueError):
        volume_estimate(3, 0.0, 100, np.random.default_rng(0))


def test_volume_estimate_matches_curve():
    frac, _ = volume_estimate(4, 0.2, 50_000, np.random.default_rng(9))
    assert frac == volume_curve(4, [0.2], 50_000, np.random.default_rng(9))[0]


def test_volume_monotone_in_zeta():
    zetas = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0]
    fr = volume_curve(5, zetas, 200_000, np.random.default_rng(5))
    assert np.all(np.diff(fr) <= 0.0)


def test_volume_lower_bound_small_n():
    frac, se = volume_estimate(3, 0.2, 1_000_000, np.random.default_rng(6))
    bound = 1.0 / 6.0 - 0.2 * np.log(3.0) / 3.0
    assert frac >= bound - 3.0 * se


def test_projection_scan_positive_and_floor():
    rng = np.random.default_rng(8)
    mu = 0.01
    rows, fitted = projection_scan(8, mu, [0.1, 0.5, 1.0], 100, rng)
    assert fitted > 0.0
    floor = projection_constant_floor(mu)
    assert floor > 0.0
    # the analytic floor is loose but should not be violated at this mu
    below = [r for r in rows if r[4] < floor]
    assert not below, f"{len(below)} rows under the analytic floor"


def test_hessian_signs_by_kind():
    # numerical chart Hessians at one point of each kind (n = 3)
    mu = 0.03

    def hess(w):
        w = np.asarray(w, dtype=float)
        h = 1e-6
        H = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            H[:, j] = (sep_chart_grad(w + e, mu) - sep_chart_grad(w - e, mu)) / (2.0 * h)
        return 0.5 * (H + H.T)

    ev_min = np.linalg.eigvalsh(hess(np.zeros(2)))
    assert np.all(ev_min > 0.0)
    ev_sad = np.linalg.eigvalsh(hess(np.array([1.0 / np.sqrt(2.0), 0.0])))
    assert ev_sad[0] < 0.0 < ev_sad[1]
    ev_max = np.linalg.eigvalsh(hess(np.full(2, 1.0 / np.sqrt(3.0))))
    assert np.all(ev_max < 0.0)


def test_fluctuation_probe_direction_and_degenerate_theta():
    rng = np.random.default_rng(9)
    w = scale_to_zeta(rng.standard_normal(7), 0.5)
    i = int(np.argmax(np.abs(w)))
    rows = fluctuation_probe(w, i, 0.01, 0.25, [100, 10_000], 10, rng, ref_samples=200_000)
    assert rows[1][1] < rows[0][1]
    rows0 = fluctuation_probe(w, i, 0.01, 0.0, [10, 100], 3, rng, ref_samples=1000)
    assert all(dev == 0.0 for _, dev in rows0)
