"""Smoothed-sparsity objectives on the sphere and their gradients.

Two objectives share the scalar surrogate mu * log(cosh(t / mu)): the
separable model summing over the coordinates of q, and the data-driven one
averaging over columns y of a data matrix.  The Monte-Carlo estimator of the
infinite-data outward slope draws from the generator it is passed, in
fixed-size blocks, so a seed fixes the estimate.
"""

import warnings

import numpy as np

from .datagen import check_theta, gate_in_place
from .sphere import outward_direction, tangent_project

_LOG2 = float(np.log(2.0))
_PANEL_BYTES = 1 << 19  # Y per panel of dl_objective's pass: q'P leaves P in L2 for P tanh(q'P / mu)


def check_mu(mu):
    """Validate the smoothing parameter.

    Errors (nan included) unless tiny <= mu < sqrt(max float), tiny the
    smallest normal float, as a subnormal mu overflows t / mu and a larger
    one mu^2; warns (does not error) at mu >= 1/16, where the positivity
    guarantee for the outward gradient projection no longer holds.  The
    warning has this one call site, so a probe that builds many objectives
    warns once under Python's default filter.
    """
    tiny, top = np.finfo(float).tiny, np.sqrt(np.finfo(float).max)
    if not tiny <= mu < top:
        raise ValueError(f"mu must be positive and finite, not subnormal (below {tiny}) and below {top}")
    if mu >= 1.0 / 16.0:
        warnings.warn(f"mu = {mu} >= 1/16: outward-projection positivity is not guaranteed", RuntimeWarning)


def log_cosh(t, mu):
    """mu * log(cosh(t/mu)), evaluated as |t| - mu log 2 + mu log1p(e^{-2|t|/mu}).

    The direct form overflows once |t|/mu exceeds ~700; this one never does.
    """
    a = np.divide(np.abs(t), mu, out=np.empty(np.shape(t)))
    _log_cosh_scaled(a.reshape(-1), mu)  # a 1-D view, so a scalar t works too
    return a[()]


def _log_cosh_scaled(a, mu):
    """log_cosh from a = |t| / mu, an array of at least one dimension, computed
    in a's buffer and returned.  Every operation is the direct expression
    mu * (a - log 2 + log1p(exp(-2 a))) in its order, so the bits are that
    expression's."""
    e = np.multiply(a, -2.0)
    np.log1p(np.exp(e, out=e), out=e)
    a -= _LOG2
    a += e
    a *= mu
    return a


def sep_objective(mu):
    """Oracle (q, value=True, out=None) -> (value, Riemannian gradient) for the
    separable objective sum_i mu log cosh(q_i / mu).

    q may be a point or a (..., n) block of points, one per row; each row gets
    the bits of its own 1-D call.  With value=False the value is not computed
    and None stands in its place.  The gradient is written into out, an array
    of q's shape, when one is given.  oracle.values(Q) is the value alone, for
    a block of any leading shape: the descent engine steps with value=False
    and takes a traced window's values in one call, as per step a value costs
    eight more ufunc calls (a traced step cost 1.4x an untraced one).
    """
    check_mu(mu)

    def values(Q):
        return np.add.reduce(log_cosh(Q, mu), -1)

    def oracle(q, value=True, out=None):
        val = values(q) if value else None
        g = np.divide(q, mu, out=out)
        return val, tangent_project(q, np.tanh(g, out=g), out=g)

    oracle.values = values
    return oracle


def dl_objective(Y, mu):
    """Oracle (q, value=True, out=None) -> (value, Riemannian gradient) for the
    data objective: the average of mu log cosh(q'y_k / mu) over the columns y_k
    of Y.

    Takes a point or a (..., n) block like sep_objective, one row at a time, so
    each row gets the bits of its own 1-D call; the gradient is written into
    out, a C-contiguous array of q's shape, when one is given.  Y is kept, not
    copied, and read once per point in column panels P of _PANEL_BYTES:
    t = q'P / mu, then P tanh(t).  A value, when asked for, is the mean of
    log_cosh over the row's |t|, gathered in one (p,) buffer.  The oracle has
    no values, unlike sep_objective's: its value reuses the step's own t, while
    a value taken after the steps would read Y again, one more q'Y per traced
    iterate (about 10 of 85 us at n=10, p=5000).
    """
    check_mu(mu)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {Y.shape}")
    n, p = Y.shape
    if p == 0:
        raise ValueError("data matrix has no columns")
    cols = max(1, _PANEL_BYTES // (8 * n))
    panels = [(a, Y[:, a : a + cols]) for a in range(0, p, cols)]

    def oracle(q, value=True, out=None):
        if q.shape[-1:] != (n,):
            raise ValueError(f"point of shape {q.shape} does not match data matrix of shape {Y.shape}")
        G = np.empty(q.shape) if out is None else out
        G.fill(0.0)
        val = np.empty(q.shape[:-1]) if value else None
        T, c = np.empty(min(cols, p)), (np.empty(p) if value else None)
        for k, (qk, g) in enumerate(zip(q.reshape(-1, n), G.reshape(-1, n, copy=False))):
            for a, P in panels:
                t = np.matmul(qk, P, out=T[: P.shape[1]])
                t /= mu
                if value:
                    np.abs(t, out=c[a : a + P.shape[1]])
                g += P @ np.tanh(t, out=t)
            if value:
                val.flat[k] = np.add.reduce(_log_cosh_scaled(c, mu)) / p  # the bits of np.mean
        G /= p
        return (val[()] if value else None), tangent_project(q, G, out=G)

    return oracle


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
    check_mu(mu)
    check_theta(theta)
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    q, _ = outward_direction(w, i)
    n = q.size
    qn = q[-1]
    wi = abs(float(q[i]))
    keep = [j for j in range(n) if j != i and j != n - 1]
    qo = q[keep]
    pref = wi * theta * (1.0 - theta) / mu

    total = m2 = 0.0  # sum, and sum of squared deviations from the mean, of the blocks so far
    done = 0
    while done < num_samples:
        m = int(min(200_000, num_samples - done))  # the block size fixes a seed's draws
        X = gate_in_place(rng.standard_normal((m, qo.size)), theta, rng) @ qo  # frees the gated block
        vi = rng.standard_normal(m)
        vn = rng.standard_normal(m)
        vals = pref * (_sech2((X + wi * vi) / mu) - _sech2((X + qn * vn) / mu))
        s = float(vals.sum())
        vals -= s / m
        delta = s / m - total / max(done, 1)  # Chan et al.'s merge of the blocks' (mean, M2)
        m2 += float(vals @ vals) + delta * delta * done * m / (done + m)
        total += s
        done += m

    return total / num_samples, float(np.sqrt(m2 / max(num_samples - 1, 1) / num_samples))


def default_sep_mu(n):
    """Default smoothing for separable runs: 0.1 / (sqrt(n) log n), capped at
    0.06 so it stays under 1/16 (only n = 2 reaches the cap)."""
    return min(0.06, 0.1 / (np.sqrt(n) * np.log(n)))


def default_sep_eta(n, mu):
    """Default separable step size: min(0.01/n, mu/2)."""
    return min(0.01 / n, mu / 2.0)
