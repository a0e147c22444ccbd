import numpy as np
import pytest
from conftest import ZeroFirst
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spheregd.sphere import (
    chart_to_sphere,
    exp_map,
    geodesic_step,
    in_section,
    sample_uniform_sphere,
    scale_to_zeta,
    tangent_project,
)

UNIT_NORM_TOL = 1e-12  # sphere membership after construction and after every geodesic step
PROJECTION_IDEMPOTENT_TOL = 1e-14  # projecting twice equals projecting once
BALL_SLACK = 1e-12  # slack for the section ball-inclusion checks


def zeta(w):
    """Margin q_n / ||w||_inf - 1 of the chart point q(w); +inf at w = 0."""
    winf = float(np.max(np.abs(w))) if w.size else 0.0
    return np.inf if winf == 0.0 else float(chart_to_sphere(w)[-1] / winf - 1.0)


def linf_inner_radius(zeta0, n):
    """Radius of the largest L-inf chart ball inside the zeta0 section:
    1/sqrt((2+zeta0) zeta0 + n)."""
    return 1.0 / np.sqrt((2.0 + zeta0) * zeta0 + n)


def test_chart_center():
    assert np.array_equal(chart_to_sphere(np.zeros(2)), [0.0, 0.0, 1.0])


def test_chart_345():
    q = chart_to_sphere([0.6, 0.0])
    assert np.allclose(q, [0.6, 0.0, 0.8], atol=1e-15)


def test_chart_value():
    q = chart_to_sphere([0.3, 0.2])
    assert q[2] == pytest.approx(0.9327379053088816, abs=1e-15)


def test_chart_domain_error():
    with pytest.raises(ValueError):
        chart_to_sphere([0.8, 0.7])
    with pytest.raises(ValueError):
        chart_to_sphere([1.0, 0.0])


def test_chart_roundtrip_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.uniform(-0.5, 0.5, size=4)
        assert np.array_equal(chart_to_sphere(w)[:-1], w)


def test_tangent_project_radial_and_tangent():
    e3 = np.eye(3)[2]
    assert np.array_equal(tangent_project(e3, e3), np.zeros(3))
    assert np.array_equal(tangent_project(e3, np.eye(3)[0]), np.eye(3)[0])


def test_tangent_project_orthogonality_and_idempotence():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = sample_uniform_sphere(7, rng)
        g = rng.standard_normal(7) * 3.0
        v = tangent_project(q, g)
        assert abs(q @ v) <= 1e-12
        v2 = tangent_project(q, v)
        assert np.max(np.abs(v2 - v)) <= PROJECTION_IDEMPOTENT_TOL


def test_exp_map_identity_and_quarter_circle():
    q = np.eye(3)[0]
    assert np.array_equal(exp_map(q, np.zeros(3)), q)
    out = exp_map(q, (np.pi / 2.0) * np.eye(3)[1])
    assert np.allclose(out, np.eye(3)[1], atol=1e-15)


def test_exp_map_block_matches_rows():
    rng = np.random.default_rng(12)
    Q = np.array([sample_uniform_sphere(7, rng) for _ in range(9)])
    V = tangent_project(Q, 0.3 * rng.standard_normal(Q.shape))
    V[4] = 0.0
    out = exp_map(Q, V)
    for q, v, row in zip(Q, V, out):
        one = exp_map(q, v)
        assert one.tobytes() == row.tobytes()
        nv = np.linalg.norm(v)  # the 1-D formula, written out
        if nv:
            ref = np.cos(nv) * q + (np.sin(nv) / nv) * v
            assert one.tobytes() == (ref / np.linalg.norm(ref)).tobytes()
    assert out[4].tobytes() == Q[4].tobytes()


def _exp_map_rows(Q, V):
    """The geodesic step written out one row at a time: q where v = 0, else
    cos(|v|) q + (sin(|v|) / |v|) v, renormalized."""
    out = Q.copy()
    for k, (q, v) in enumerate(zip(Q, V)):
        nv = np.sqrt(np.vecdot(v, v))
        if nv != 0.0:
            r = np.cos(nv) * q + (np.sin(nv) / nv) * v
            out[k] = r / np.sqrt(np.vecdot(r, r))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(2, 60), st.integers(0, 2**32 - 1), st.data())
def test_geodesic_step_buffers_match_exp_map(b, n, seed, data):
    # the engine's form: one step object per block shape, called again and
    # again with v in a scratch buffer it overwrites and out given
    kinds = data.draw(st.lists(st.sampled_from(("step", "zero", "long", "nan", "inf")), min_size=b, max_size=b))
    rng = np.random.default_rng(seed)
    step, out = geodesic_step((b, n)), np.empty((b, n))
    for _ in range(2):  # the second call must not see the first one's columns
        Q = rng.standard_normal((b, n))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        V = tangent_project(Q, rng.standard_normal((b, n))) * rng.uniform(0.0, 0.2, (b, 1))
        for k, kind in enumerate(kinds):
            if kind == "zero":
                V[k] = 0.0
            elif kind == "long":
                V[k] *= 100.0
            elif kind != "step":
                V[k, rng.integers(n)] = np.nan if kind == "nan" else np.inf
        Q0, V0 = Q.copy(), V.copy()
        with np.errstate(invalid="ignore"):
            ref, rows = exp_map(Q, V), _exp_map_rows(Q, V)
            got = step(Q, V.copy(), out)
        assert got is out
        assert got.tobytes() == ref.tobytes() == rows.tobytes()
        assert Q.tobytes() == Q0.tobytes() and V.tobytes() == V0.tobytes()
        rng.shuffle(kinds)


def test_exp_map_unit_norm():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = sample_uniform_sphere(6, rng)
        v = tangent_project(q, rng.standard_normal(6))
        v *= rng.uniform(0.0, np.pi) / max(np.linalg.norm(v), 1e-12)
        out = exp_map(q, v)
        assert abs(np.linalg.norm(out) - 1.0) <= UNIT_NORM_TOL


def test_zeta_values():
    w = np.full(2, 1.0 / np.sqrt(3.0))
    assert zeta(w) == pytest.approx(0.0, abs=1e-12)
    assert zeta(np.array([0.1, 0.1])) == pytest.approx(8.899494936611665, abs=1e-12)
    assert zeta(np.zeros(3)) == np.inf


def test_in_section_boundary():
    # exact boundary points (equal-magnitude coordinates) classify as members
    third = np.full(2, 1.0 / np.sqrt(3.0))
    for w, zeta0, member in [
        (np.zeros(4), 0.0, True),
        (np.zeros(4), 5.0, True),
        (third, 0.0, True),
        (third, 0.01, False),
        (np.array([0.1, 0.1]), 8.0, True),
    ]:
        assert in_section(chart_to_sphere(w)[-1], np.max(np.abs(w)), zeta0) == member


def test_sample_pin():
    rng = np.random.default_rng(123)
    q = sample_uniform_sphere(4, rng)
    expect = [
        -0.5900597378428528,
        -0.21940290245572028,
        0.7683110285409006,
        0.1157153213418735,
    ]
    assert np.allclose(q, expect, atol=1e-15)


def test_sample_symmetry_statistics():
    rng = np.random.default_rng(3)
    N = 1_000_000
    g = rng.standard_normal((N, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # the canonical section has 1/(2n) of the measure by symmetry
    frac = np.mean(g[:, -1] >= np.abs(g[:, :-1]).max(axis=1))
    se = np.sqrt(frac * (1 - frac) / N)
    assert abs(frac - 1.0 / 6.0) <= 3.0 * se
    # coordinate means vanish by symmetry
    assert np.all(np.abs(g.mean(axis=0)) <= 4.0 / np.sqrt(N))


def test_sample_requires_n_ge_2():
    with pytest.raises(ValueError):
        sample_uniform_sphere(1, np.random.default_rng(0))
    q, twin = sample_uniform_sphere(5, ZeroFirst(7)), ZeroFirst(7)
    twin.standard_normal(5)
    g = twin.standard_normal(5)
    assert q.tobytes() == (g / np.linalg.norm(g)).tobytes()  # the all-zero first draw is redrawn


@pytest.mark.parametrize("n,zeta0", [(3, 0.0), (3, 0.5), (8, 0.2), (20, 1.0)])
def test_section_ball_inclusions(n, zeta0):
    # inner L-inf ball: every w with ||w||_inf <= s(zeta0) is in the section;
    # outer L2 ball: every section member has ||w||_2 <= sqrt(n-1) s(zeta0)
    rng = np.random.default_rng(17)
    s = linf_inner_radius(zeta0, n)
    W = rng.uniform(-s, s, size=(100_000, n - 1))
    qn = np.sqrt(1.0 - np.einsum("ij,ij->i", W, W))
    assert np.all(in_section(qn, np.abs(W).max(axis=1), zeta0))

    r2 = np.sqrt(n - 1.0) * s
    g = rng.standard_normal((400_000, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    members = g[in_section(g[:, -1], np.abs(g[:, :-1]).max(axis=1), zeta0)]
    assert members.shape[0] > 100
    norms = np.linalg.norm(members[:, :-1], axis=1)
    assert np.all(norms <= r2 * (1.0 + BALL_SLACK))


def test_scale_to_zeta():
    rng = np.random.default_rng(4)
    for z0 in (0.0, 0.1, 1.0, 4.0):
        d = rng.standard_normal(9)
        w = scale_to_zeta(d, z0)
        assert zeta(w) == pytest.approx(z0, abs=1e-12)


@pytest.mark.parametrize("z0", [1e300, np.float64(1e300)], ids=["float", "numpy"])
def test_scale_to_zeta_rejects_a_zeta_whose_square_overflows(z0):
    with pytest.raises(ValueError, match="overflows"):
        scale_to_zeta(np.ones(3), z0)
    with pytest.raises(ValueError, match="direction must be nonzero"):
        scale_to_zeta(np.zeros(3), 0.5)


@st.composite
def _points_and_steps(draw):
    """A (B, n) block of sphere points, raw vectors G and a step length per row,
    zero for some rows."""
    b, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    Q = draw(hnp.arrays(np.float64, (b, n), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(Q, axis=1, keepdims=True)
    assume(np.all(norms >= 1e-3))
    G = draw(hnp.arrays(np.float64, (b, n), elements=st.floats(-1.0, 1.0)))
    steps = draw(hnp.arrays(np.float64, b, elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    return Q / norms, G, steps


@settings(max_examples=100, deadline=None)
@given(_points_and_steps())
def test_exp_map_block_keeps_unit_norm_and_zero_steps(case):
    Q, G, steps = case
    V = steps[:, None] * tangent_project(Q, G)
    out = exp_map(Q, V)
    assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) <= UNIT_NORM_TOL)
    for k in np.flatnonzero(~V.any(axis=1)):
        assert out[k].tobytes() == Q[k].tobytes()


@settings(max_examples=100, deadline=None)
@given(_points_and_steps())
def test_tangent_project_block_idempotent_and_orthogonal(case):
    Q, G, _ = case
    V = tangent_project(Q, G)
    assert np.all(np.abs(np.vecdot(Q, V)) <= 1e-12)
    assert np.all(np.abs(tangent_project(Q, V) - V) <= PROJECTION_IDEMPOTENT_TOL)
