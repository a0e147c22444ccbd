import hashlib

import numpy as np
import pytest

from spheregd.datagen import gen_bg_matrix, gen_instance, haar_orthogonal
from spheregd.objectives import dl_objective
from spheregd.sphere import sample_uniform_sphere

ORTHOGONALITY_TOL = 1e-10  # A0^T A0 - I in Frobenius norm for generated dictionaries


def _x0(n, p, theta, seed):
    """The sparse code of gen_instance(n, p, theta, mode, default_rng(seed)): its first draw."""
    return gen_bg_matrix(n, p, theta, np.random.default_rng(seed))


def test_bg_degenerate_theta_is_gaussian():
    rng = np.random.default_rng(0)
    X = gen_bg_matrix(200, 500, 1.0, rng).ravel()
    N = X.size
    # moment checks for a standard normal sample
    assert abs(X.mean()) <= 5.0 / np.sqrt(N)
    assert abs(X.var() - 1.0) <= 5.0 * np.sqrt(2.0 / N)
    kurt = np.mean(X**4) / X.var() ** 2
    assert abs(kurt - 3.0) <= 5.0 * np.sqrt(24.0 / N)


def test_bg_nonzero_count():
    rng = np.random.default_rng(1)
    theta, n, p = 0.1, 300, 400
    X = gen_bg_matrix(n, p, theta, rng)
    k = np.count_nonzero(X)
    sd = np.sqrt(n * p * theta * (1 - theta))
    assert abs(k - theta * n * p) <= 5.0 * sd


def test_bg_checksum_pinned():
    rng = np.random.default_rng(42)
    X = gen_bg_matrix(5, 7, 0.3, rng)
    assert hashlib.sha256(X.tobytes()).hexdigest()[:16] == "35ecc23d65de0d19"


def test_bg_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        gen_bg_matrix(0, 3, 0.5, rng)
    with pytest.raises(ValueError):
        gen_bg_matrix(3, 3, 1.5, rng)


def test_identity_mode():
    inst = gen_instance(6, 40, 0.3, "identity", np.random.default_rng(3))
    assert inst.Y.tobytes() == _x0(6, 40, 0.3, 3).tobytes()
    assert np.array_equal(inst.A0, np.eye(6))


def test_orthogonality():
    for seed in range(5):
        inst = gen_instance(8, 10, 0.3, "random_orthogonal", np.random.default_rng(seed))
        err = np.linalg.norm(inst.A0.T @ inst.A0 - np.eye(8))
        assert err <= ORTHOGONALITY_TOL
        assert np.array_equal(inst.Y, inst.A0 @ _x0(8, 10, 0.3, seed))


def test_haar_sign_convention_makes_determinant_balanced():
    # crude unbiasedness probe: determinant signs are +-1 roughly evenly
    rng = np.random.default_rng(4)
    dets = [np.sign(np.linalg.det(haar_orthogonal(5, rng))) for _ in range(400)]
    assert abs(np.mean(dets)) < 0.2


def test_change_of_variables():
    rng = np.random.default_rng(5)
    inst = gen_instance(6, 50, 0.3, "random_orthogonal", rng)
    fy = dl_objective(inst.Y, 0.05)
    fx = dl_objective(_x0(6, 50, 0.3, 5), 0.05)
    for _ in range(20):
        q = sample_uniform_sphere(6, rng)
        a = fy(q)[0]
        b = fx(inst.A0.T @ q)[0]
        assert abs(a - b) <= 1e-12


def test_determinism():
    a = gen_instance(7, 30, 0.25, "random_orthogonal", np.random.default_rng(99))
    b = gen_instance(7, 30, 0.25, "random_orthogonal", np.random.default_rng(99))
    assert np.array_equal(a.A0, b.A0)
    assert np.array_equal(a.Y, b.Y)


def test_unknown_mode():
    with pytest.raises(ValueError):
        gen_instance(4, 5, 0.3, "banana", np.random.default_rng(0))
