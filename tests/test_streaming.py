"""The streamed Monte-Carlo layer: the same draws and bits as whole-block
sampling, with memory bounded by the block rather than by the sample count."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregd.datagen import GATE_RUN, MC_BLOCK_BYTES, gen_bg_matrix, gen_instance
from spheregd import landscape
from spheregd.landscape import _section_rows, volume_curve
from spheregd.objectives import _sech2, dl_pop_projected_grad_estimate
from spheregd.sphere import chart_to_sphere, in_section, scale_to_zeta


# ---------------------------------------------------------------------------
# whole-block references: each array is drawn by one generator call


def _volume_curve_ref(n, zetas, num_samples, rng):
    hits = np.zeros(len(zetas), dtype=np.int64)
    done = 0
    while done < num_samples:
        m = min(200_000, num_samples - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        qn, winf = g[:, -1].copy(), np.abs(g[:, :-1]).max(axis=1)
        for k, z in enumerate(zetas):
            hits[k] += int(np.count_nonzero(in_section(qn, winf, z)))
        done += m
    return hits / num_samples


def _gen_bg_matrix_ref(n, p, theta, rng):
    gauss = rng.standard_normal((n, p))
    return gauss * (rng.random((n, p)) < theta)


def _projected_blocks_ref(w, i, mu, theta, num_samples, rng):
    """The conditioned estimator's values, one array per 200000-row block."""
    q = chart_to_sphere(w)
    n, qn, wi = q.size, q[-1], abs(float(w[i]))
    qo = q[[j for j in range(n) if j != i and j != n - 1]]
    pref = wi * theta * (1.0 - theta) / mu
    done = 0
    while done < num_samples:
        m = min(200_000, num_samples - done)
        V = rng.standard_normal((m, qo.size))
        X = (V * (rng.random((m, qo.size)) < theta)) @ qo
        vi = rng.standard_normal(m)
        vn = rng.standard_normal(m)
        yield pref * (_sech2((X + wi * vi) / mu) - _sech2((X + qn * vn) / mu))
        done += m


def _projected_estimate_ref(w, i, mu, theta, num_samples, rng):
    total = m2 = 0.0
    done = 0
    for vals in _projected_blocks_ref(w, i, mu, theta, num_samples, rng):
        m = vals.size
        s = float(vals.sum())
        dev = vals - s / m
        delta = s / m - total / max(done, 1)
        m2 += float(dev @ dev) + delta * delta * done * m / (done + m)
        total += s
        done += m
    return total / num_samples, float(np.sqrt(m2 / max(num_samples - 1, 1) / num_samples))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# bit identity, below, at, one past and across each block size


@pytest.mark.parametrize("n", [2, 10, 50])
def test_volume_curve_matches_whole_blocks(n):
    rows = MC_BLOCK_BYTES // (8 * n)
    zetas = [0.0, 0.01, 0.1, 0.5, 1.0]
    for N in sorted({10_000, max(rows, 10_000), max(rows + 1, 10_000), 200_001}):
        for seed in (0, 1):
            got = volume_curve(n, zetas, N, np.random.default_rng(seed))
            assert _same_bits(got, _volume_curve_ref(n, zetas, N, np.random.default_rng(seed)))


@pytest.mark.parametrize("n", [2, 10, 50])
def test_section_rows_do_not_depend_on_the_block(n):
    # per-row norms and maxima: any split of the rows gives the bits of one block
    rows = MC_BLOCK_BYTES // (8 * n)
    sizes = [rows, rows, 1, 3 * rows + 5, 7]
    g = np.random.default_rng(3).standard_normal((sum(sizes), n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rng = np.random.default_rng(3)
    blocks = (_section_rows(rng.standard_normal((m, n))) for m in sizes)
    qn, winf = (np.concatenate(parts) for parts in zip(*blocks))
    assert _same_bits(qn, g[:, -1]) and _same_bits(winf, np.abs(g[:, :-1]).max(axis=1))


@pytest.mark.parametrize("n", [2, 10, 50])
def test_gated_draws_match_whole_blocks(n):
    for p in sorted({(GATE_RUN - 1) // n, GATE_RUN // n, GATE_RUN // n + 1, 3 * GATE_RUN // n + 1}):
        got = gen_bg_matrix(n, p, 0.25, np.random.default_rng(p))
        assert _same_bits(got, _gen_bg_matrix_ref(n, p, 0.25, np.random.default_rng(p)))
    inst = gen_instance(n, GATE_RUN // n + 1, 0.3, "random_orthogonal", np.random.default_rng(4))
    ref = _gen_bg_matrix_ref(n, GATE_RUN // n + 1, 0.3, np.random.default_rng(4))
    assert _same_bits(inst.Y, inst.A0 @ ref)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_population_estimates_match_whole_blocks(n):
    mu, theta = 0.01, 0.25
    w = 0.1 * np.random.default_rng(n).standard_normal(n - 1)
    gated = max(n - 2, 1)  # gated entries per conditioned sample
    for N in sorted({1, GATE_RUN // gated, GATE_RUN // gated + 1, 200_001}):
        got = dl_pop_projected_grad_estimate(w, 0, mu, theta, N, np.random.default_rng(N))
        assert _same_bits(got, _projected_estimate_ref(w, 0, mu, theta, N, np.random.default_rng(N)))


@pytest.mark.parametrize("n", [2, 4, 10])
def test_population_stderr_matches_a_two_pass_reference(n):
    # the per-block (mean, M2) merge against one pass for the mean and one for
    # the squared deviations, over the same draws spread across three blocks
    w = scale_to_zeta(np.random.default_rng(n).standard_normal(n - 1), 0.5)
    N, mu, theta = 450_001, 0.01, 0.25
    mean, se = dl_pop_projected_grad_estimate(w, 0, mu, theta, N, np.random.default_rng(7))
    vals = np.concatenate(list(_projected_blocks_ref(w, 0, mu, theta, N, np.random.default_rng(7))))
    assert vals.size == N and mean == sum(float(v.sum()) for v in np.split(vals, [200_000, 400_000])) / N
    ref = np.sqrt(np.sum((vals - vals.mean()) ** 2) / (N - 1) / N)
    assert se > 0.0 and abs(se - ref) <= 1e-12 * ref


def test_no_draw_thread_outlives_volume_curve(monkeypatch):
    before = threading.active_count()
    volume_curve(10, [0.0, 0.5], 300_000, np.random.default_rng(0))
    assert threading.active_count() == before
    calls = []

    def fail_on_the_second_block(qn, winf, zeta0):
        calls.append(qn.size)
        if len(calls) == 2:
            raise RuntimeError("reduction failed")
        return in_section(qn, winf, zeta0)

    monkeypatch.setattr(landscape, "in_section", fail_on_the_second_block)
    with pytest.raises(RuntimeError, match="reduction failed") as raised:
        volume_curve(10, [0.0], 300_000, np.random.default_rng(0))
    # the traceback keeps volume_curve's frame alive: the join cannot wait for its collection
    assert raised.tb is not None and len(calls) == 2 and threading.active_count() == before


# ---------------------------------------------------------------------------
# memory: numpy reports its buffers to tracemalloc


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_volume_curve_memory_is_bounded_by_the_block():
    # whole 200000-row blocks peaked at 156 MiB here
    assert _traced_peak(volume_curve, 50, [0.0], 200_000, np.random.default_rng(0)) < 8 * 2**20


def test_gen_bg_matrix_memory_is_near_its_result():
    # the result is 8 MB; gating by a whole array of uniforms peaked at 16.3 MiB
    assert _traced_peak(gen_bg_matrix, 10, 100_000, 0.25, np.random.default_rng(0)) <= 1.25 * 8e6


def test_identity_instance_memory_is_near_its_data():
    # Y is X0 itself (8 MB); keeping X0 beside a copy of it peaked at 16 MB
    assert _traced_peak(gen_instance, 10, 100_000, 0.25, "identity", np.random.default_rng(0)) <= 1.25 * 8e6


# ---------------------------------------------------------------------------
# properties of the shared sample pool


@st.composite
def _volume_case(draw):
    n = draw(st.integers(2, 12))
    zetas = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
    perm = draw(st.permutations(range(len(zetas))))
    return n, zetas, perm, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_volume_case())
def test_volume_curve_nested_fractions(case):
    n, zetas, perm, seed = case
    fr = volume_curve(n, sorted(zetas), 10_000, np.random.default_rng(seed))
    assert np.all((fr >= 0.0) & (fr <= 1.0))
    assert np.all(np.diff(fr) <= 0.0)  # one pool for the whole grid: exactly nested
    shuffled = volume_curve(n, [zetas[k] for k in perm], 10_000, np.random.default_rng(seed))
    unshuffled = volume_curve(n, zetas, 10_000, np.random.default_rng(seed))
    assert np.array_equal(shuffled, unshuffled[list(perm)])
