"""Smoothed-sparsity objectives on the sphere and their gradients.

Two objectives share the scalar surrogate mu * log(cosh(t / mu)): the
separable model summing over the coordinates of q, and the data-driven one
averaging over columns y of a data matrix.  Monte-Carlo estimators for the
infinite-data quantities draw from the generator they are passed, in
fixed-size blocks, so a seed fixes the estimate.
"""

import warnings

import numpy as np

from .datagen import check_theta, gate_in_place
from .sphere import chart_to_sphere, tangent_project

_LOG2 = float(np.log(2.0))


def check_mu(mu):
    """Validate the smoothing parameter.

    Errors unless 0 < mu < inf (nan included); warns (does not error) at
    mu >= 1/16, where the positivity guarantee for the outward gradient
    projection no longer holds.
    """
    if not 0.0 < mu < np.inf:
        raise ValueError("mu must be positive and finite")
    if mu >= 1.0 / 16.0:
        warnings.warn(
            f"mu = {mu} >= 1/16: outward-projection positivity is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )


def log_cosh(t, mu):
    """mu * log(cosh(t/mu)), evaluated as |t| - mu log 2 + mu log1p(e^{-2|t|/mu}).

    The direct form overflows once |t|/mu exceeds ~700; this one never does.
    """
    a = np.abs(np.asarray(t, dtype=float)) / mu
    return mu * (a - _LOG2 + np.log1p(np.exp(-2.0 * a)))


def sep_objective(mu):
    """Oracle (q, value=True) -> (value, Riemannian gradient) for the separable
    objective sum_i mu log cosh(q_i / mu).

    q may be a point or a (..., n) block of points, one per row; each row gets
    the bits of its own 1-D call.  With value=False the value is not computed
    and None stands in its place.
    """
    check_mu(mu)

    def oracle(q, value=True):
        val = np.sum(log_cosh(q, mu), axis=-1) if value else None
        return val, tangent_project(q, np.tanh(q / mu))

    return oracle


def sep_chart_grad(w, mu):
    """Gradient of the separable objective in chart coordinates:
    tanh(w_i/mu) - tanh(q_n/mu) w_i / q_n."""
    w = np.asarray(w, dtype=float)
    qn = chart_to_sphere(w)[-1]
    return np.tanh(w / mu) - np.tanh(qn / mu) * (w / qn)


def sep_projected_grad(w, i, mu):
    """Outward-direction slope of the separable objective at q(w), coordinate i.

    Closed form tanh(|w_i|/mu) - tanh(q_n/mu) |w_i| / q_n; the odd symmetry of
    tanh folds both signs of w_i into the same expression.  w_i = 0 has no
    outward direction and raises.
    """
    w = np.asarray(w, dtype=float)
    if w[i] == 0.0:
        raise ValueError("w_i = 0: coordinate sign undefined")
    qn = chart_to_sphere(w)[-1]
    a = abs(float(w[i]))
    return float(np.tanh(a / mu) - np.tanh(qn / mu) * a / qn)


def dl_objective(Y, mu):
    """Oracle (q, value=True) -> (value, Riemannian gradient) for the data
    objective: the average of mu log cosh(q'y_k / mu) over the columns y_k of Y.

    Takes a point or a (..., n) block like sep_objective.  The products are
    written (Y^T Q^T)^T and (Y T^T)^T because a one-row block then gives the
    bits of the 1-D call; Q Y and T Y^T differ in the last bits.
    """
    check_mu(mu)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {Y.shape}")
    YT = Y.T.copy()
    p = Y.shape[1]

    def oracle(q, value=True):
        corr = (YT @ q.T).T
        val = np.mean(log_cosh(corr, mu), axis=-1) if value else None
        g = (Y @ np.tanh(corr / mu).T).T / p
        return val, tangent_project(q, g)

    return oracle


def dl_projected_grad(w, i, Y, mu):
    """Finite-sample outward-direction slope at q(w) for data Y:
    (1/p) sum_k tanh(q'y_k/mu) (sign(w_i) y_{k,i} - |w_i|/q_n y_{k,n})."""
    w = np.asarray(w, dtype=float)
    if w[i] == 0.0:
        raise ValueError("w_i = 0: coordinate sign undefined")
    q = chart_to_sphere(w)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != q.shape[0]:
        raise ValueError(f"data matrix shape {Y.shape} incompatible with point of length {q.shape[0]}")
    si = 1.0 if w[i] > 0 else -1.0
    t = np.tanh(Y.T @ q / mu)
    proj = si * Y[i, :] - (abs(float(w[i])) / q[-1]) * Y[-1, :]
    return float(np.mean(t * proj))


def _sech2(x):
    """sech(x)^2 = 4 e^{-2|x|} / (1 + e^{-2|x|})^2, overflow-safe."""
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def dl_pop_projected_grad_estimate(w, i, mu, theta, num_samples, rng):
    """Estimate the infinite-data outward slope at q(w) by conditioned sampling.

    Conditioning on the gating bits of the two distinguished coordinates
    cancels their common part, leaving

        |w_i| theta (1-theta) / mu
            * E[ sech^2((X + |w_i| v)/mu) - sech^2((X + q_n v')/mu) ],

    where X collects the remaining coordinates' Bernoulli-Gaussian
    contributions and v, v' are standard normals.  This removes the gating
    variance at the two special coordinates relative to projecting a naive
    full-gradient sample.  Returns (mean, standard error).
    """
    check_theta(theta)
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    w = np.asarray(w, dtype=float)
    if w[i] == 0.0:
        raise ValueError("w_i = 0: coordinate sign undefined")
    q = chart_to_sphere(w)
    n = q.size
    qn = q[-1]
    wi = abs(float(w[i]))
    keep = [j for j in range(n) if j != i and j != n - 1]
    qo = q[keep]
    pref = wi * theta * (1.0 - theta) / mu

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < num_samples:
        m = int(min(200_000, num_samples - done))  # the block size fixes a seed's draws
        X = gate_in_place(rng.standard_normal((m, qo.size)), theta, rng) @ qo  # frees the gated block
        vi = rng.standard_normal(m)
        vn = rng.standard_normal(m)
        vals = pref * (_sech2((X + wi * vi) / mu) - _sech2((X + qn * vn) / mu))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m

    mean = total / num_samples
    if num_samples == 1:
        return mean, 0.0
    var = max(0.0, (total_sq / num_samples - mean * mean)) * num_samples / (num_samples - 1)
    return mean, float(np.sqrt(var / num_samples))


def dl_pop_grad_estimate(q, mu, theta, num_samples, rng):
    """Plain Monte-Carlo estimate of the infinite-data Euclidean gradient
    E[tanh(q'x / mu) x] over Bernoulli-Gaussian x."""
    check_theta(theta)
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    q = np.asarray(q, dtype=float)
    acc = np.zeros(q.size)
    done = 0
    while done < num_samples:
        m = int(min(100_000, num_samples - done))  # the block size fixes a seed's draws
        X = gate_in_place(rng.standard_normal((m, q.size)), theta, rng)
        acc += np.tanh(X @ q / mu) @ X
        done += m
    return acc / num_samples


def default_sep_mu(n):
    """Default smoothing for separable runs: 0.1 / (sqrt(n) log n)."""
    return 0.1 / (np.sqrt(n) * np.log(n))


def default_sep_eta(n, mu):
    """Default separable step size: min(0.01/n, mu/2)."""
    return min(0.01 / n, mu / 2.0)
