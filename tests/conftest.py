"""Shared numerical oracles and a stub generator for the test suite.

The finite-difference gradient here is deliberately independent of the
library's gradient code paths: it only consumes objective *values* along
geodesics, so it can certify the analytic gradients.  The chart gradient is
a closed form that the library's slopes are checked against.
"""

import numpy as np

from spheregd.sphere import chart_to_sphere, exp_map


def tangent_basis(q):
    """Orthonormal basis of the tangent space at q.

    Householder reflection mapping e_n to q; its first n-1 columns are an
    orthonormal set orthogonal to q.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    en = np.zeros(n)
    en[-1] = 1.0
    v = q - en
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        return np.eye(n)[:, : n - 1]
    v = v / nv
    H = np.eye(n) - 2.0 * np.outer(v, v)
    return H[:, : n - 1]


def fd_directional(fval, q, d, h=1e-5):
    """Central finite difference of fval along the geodesic through q with
    unit tangent direction d."""
    return (fval(exp_map(q, h * d)) - fval(exp_map(q, -h * d))) / (2.0 * h)


def fd_riem_grad(fval, q, h=1e-5):
    """Finite-difference Riemannian gradient: directional derivatives along an
    orthonormal tangent basis, reassembled into a tangent vector."""
    B = tangent_basis(q)
    g = np.zeros(q.size)
    for k in range(B.shape[1]):
        d = B[:, k]
        g += fd_directional(fval, q, d, h) * d
    return g


class ZeroFirst:
    """A generator whose first normals are all 0, a probability-zero draw."""

    def __init__(self, seed):
        self.rng, self.fresh = np.random.default_rng(seed), True

    def standard_normal(self, shape):
        fresh, self.fresh = self.fresh, False
        return np.zeros(shape) if fresh else self.rng.standard_normal(shape)

    def random(self):
        return self.rng.random()


def sep_chart_grad(w, mu):
    """Gradient of the separable objective in chart coordinates:
    tanh(w_i/mu) - tanh(q_n/mu) w_i / q_n."""
    w = np.asarray(w, dtype=float)
    qn = chart_to_sphere(w)[-1]
    return np.tanh(w / mu) - np.tanh(qn / mu) * (w / qn)

