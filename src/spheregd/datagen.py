"""Synthetic problem instances Y = A0 X0 with sparse Bernoulli-Gaussian X0."""

from dataclasses import dataclass

import numpy as np

MC_BLOCK_BYTES = 1 << 20  # one streamed Monte-Carlo block; with its temporaries it stays in L2
GATE_RUN = 1 << 13  # 64 KiB of uniforms, under malloc's 128 KiB mmap threshold: a freed run never raises it


@dataclass(frozen=True)
class DictionaryInstance:
    """A generated problem with ground truth retained for evaluation."""

    n: int
    p: int
    theta: float
    A0: np.ndarray
    X0: np.ndarray
    Y: np.ndarray


def check_theta(theta):
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta = {theta} outside [0, 1]")


def gen_bg_matrix(n, p, theta, rng):
    """n x p matrix of independent Bernoulli(theta)-gated standard normals."""
    if n < 1 or p < 1:
        raise ValueError("need n, p >= 1")
    check_theta(theta)
    return gate_in_place(rng.standard_normal((n, p)), theta, rng)


def gate_in_place(X, theta, rng):
    """X *= rng.random(X.shape) < theta for a C-contiguous X, with the uniforms
    drawn in flat C order GATE_RUN at a time: a generator fills arrays
    strictly in order, so X gets the bits of the one-call form."""
    flat = X.reshape(-1, copy=False)
    for a in range(0, flat.size, GATE_RUN):
        flat[a : a + GATE_RUN] *= rng.random(min(GATE_RUN, flat.size - a)) < theta
    return X


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix.

    QR of a Gaussian matrix, with column signs fixed so the triangular
    factor has positive diagonal; without the sign fix the draw is biased.
    """
    g = rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return qmat * d


def gen_instance(n, p, theta, dictionary_mode, rng):
    """Generate Y = A0 X0; dictionary_mode is "identity" or "random_orthogonal"."""
    X0 = gen_bg_matrix(n, p, theta, rng)
    if dictionary_mode == "identity":
        A0 = np.eye(n)
        Y = X0.copy()
    elif dictionary_mode == "random_orthogonal":
        A0 = haar_orthogonal(n, rng)
        Y = A0 @ X0
    else:
        raise ValueError(f"unknown dictionary_mode {dictionary_mode!r}")
    return DictionaryInstance(n=n, p=p, theta=theta, A0=A0, X0=X0, Y=Y)
