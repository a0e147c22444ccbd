"""Shared numerical oracles for the test suite.

The finite-difference gradient here is deliberately independent of the
library's gradient code paths: it only consumes objective *values* along
geodesics, so it can certify the analytic gradients.  The chart gradient and
outward direction are closed forms that the library's slopes are checked
against.
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


def sep_chart_grad(w, mu):
    """Gradient of the separable objective in chart coordinates:
    tanh(w_i/mu) - tanh(q_n/mu) w_i / q_n."""
    w = np.asarray(w, dtype=float)
    qn = chart_to_sphere(w)[-1]
    return np.tanh(w / mu) - np.tanh(qn / mu) * (w / qn)


def u_direction(w, i):
    """Outward tangent direction e_i sign(w_i) - e_n |w_i|/q_n at q(w), w_i != 0."""
    w = np.asarray(w, dtype=float)
    if w[i] == 0.0:
        raise ValueError("w_i = 0: outward direction undefined")
    q = chart_to_sphere(w)
    d = np.zeros(q.size)
    d[i] = 1.0 if w[i] > 0 else -1.0
    d[-1] = -abs(float(w[i])) / q[-1]
    return d
