"""Infinite-data phase retrieval over C^n.

The objective admits the closed form
    ||x||^4 + ||z||^4 - ||x||^2 ||z||^2 - |x^H z|^2
with gradient ((2||z||^2 - ||x||^2) I - x x^H) z.  Decomposing the iterate as
z = w + zeta e^{i phi} x/||x|| (w orthogonal to the signal x) reduces descent
to exact scalar recurrences in (zeta, ||w||): the two directions are fixed by
the dynamics and phi never moves.  Shells in ||z||^2 phase the convergence
analysis, and the margin zeta plays the same role the section margin plays
for the sphere problems: it grows geometrically out of the low-gradient
band around the saddle manifold.
"""

import math
from dataclasses import dataclass

import numpy as np

REGIONS = ("S1", "S2", "S3", "S4")


@dataclass(frozen=True, eq=False)
class PRDecomposition:
    """z = w + zeta e^{i phi} x / ||x|| with w orthogonal to x; phi = 0 when
    zeta = 0."""

    w: np.ndarray
    zeta: float
    phi: float


def _norms(z, x):
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != z.shape:
        raise ValueError("z and x must have the same length")
    x2 = float(np.vdot(x, x).real)
    if x2 == 0.0:
        raise ValueError("signal x must be nonzero")
    return z, x, float(np.vdot(z, z).real), x2


def pr_value(z, x):
    """Objective value ||x||^4 + ||z||^4 - ||x||^2||z||^2 - |x^H z|^2."""
    z, x, z2, x2 = _norms(z, x)
    ip = np.vdot(x, z)
    return float(x2 * x2 + z2 * z2 - x2 * z2 - (ip * ip.conjugate()).real)


def pr_gradient(z, x):
    """Gradient (2||z||^2 - ||x||^2) z - x (x^H z); descent moves z against it."""
    z, x, z2, x2 = _norms(z, x)
    return (2.0 * z2 - x2) * z - np.vdot(x, z) * x


def pr_step(z, x, eta):
    """One descent update z - eta * gradient."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return z - eta * pr_gradient(z, x)


def pr_decompose(z, x):
    """Split z into its signal-aligned polar part and the orthogonal rest."""
    z, x, _, x2 = _norms(z, x)
    xn = math.sqrt(x2)
    ip = np.vdot(x, z)
    zeta = float(abs(ip)) / xn
    phi = float(np.angle(ip)) % (2.0 * math.pi) if zeta > 0.0 else 0.0
    w = z - zeta * np.exp(1j * phi) * x / xn
    return PRDecomposition(w=w, zeta=zeta, phi=phi)


def pr_reconstruct(dec, x):
    """Inverse of pr_decompose."""
    x = np.asarray(x, dtype=complex)
    xn = float(np.linalg.norm(x))
    return dec.w + dec.zeta * np.exp(1j * dec.phi) * x / xn


def pr_region(z, x, c):
    """Classify z into the nested shells by ||z||^2 / ||x||^2:
    S1 (..1/2], S2 (1/2..1-c], S3 (1-c..1], S4 (1..1+c], else "outside"."""
    if not (0.0 < c < 0.25):
        raise ValueError("need 0 < c < 1/4")
    _, _, z2, x2 = _norms(z, x)
    r = z2 / x2
    if r <= 0.5:
        return "S1"
    if r <= 1.0 - c:
        return "S2"
    if r <= 1.0:
        return "S3"
    if r <= 1.0 + c:
        return "S4"
    return "outside"


def pr_dist_to_solutions(z, x):
    """Distance from z to the circle of global minimizers {e^{i t} x}:
    sqrt(||z||^2 + ||x||^2 - 2 zeta ||x||)."""
    z, x, z2, x2 = _norms(z, x)
    xn = math.sqrt(x2)
    zeta = float(abs(np.vdot(x, z))) / xn
    return math.sqrt(max(0.0, z2 + x2 - 2.0 * zeta * xn))


def max_step_size(x, c):
    """Largest admissible step size sqrt(c) / (4 ||x||^2)."""
    if not (0.0 < c < 0.25):
        raise ValueError("need 0 < c < 1/4")
    x = np.asarray(x, dtype=complex)
    return math.sqrt(c) / (4.0 * float(np.vdot(x, x).real))


def sample_ball(n, radius, rng):
    """Uniform point in the complex n-ball of the given radius (the norm of
    the underlying real 2n-dimensional space)."""
    g = rng.standard_normal((n, 2))
    v = g[:, 0] + 1j * g[:, 1]
    nv = float(np.linalg.norm(v))
    while nv == 0.0:
        g = rng.standard_normal((n, 2))
        v = g[:, 0] + 1j * g[:, 1]
        nv = float(np.linalg.norm(v))
    u = rng.random()
    return (radius * u ** (1.0 / (2.0 * n)) / nv) * v


def iteration_budget(x, eta, c, zeta_init):
    """Worst-case iteration count to reach dist(z, solutions) < sqrt(5c)||x||
    from margin zeta_init: a geometric escape out of the low-margin band, a
    crossing of the middle shell, and a contraction of ||w|| with re-entry
    slack."""
    if zeta_init <= 0.0:
        raise ValueError("zeta_init must be positive")
    x = np.asarray(x, dtype=complex)
    x2 = float(np.vdot(x, x).real)
    a = eta * x2
    t1 = max(0.0, math.log(math.sqrt(x2) / (zeta_init * math.sqrt(2.0))) / math.log1p(a))
    t2 = math.log(2.0) / (2.0 * math.log1p(2.0 * c * a))
    t34 = math.log(2.0 * c) / math.log1p(-(1.0 - 2.0 * c) * a)
    tr = math.log(4.0 / math.sqrt(7.0)) / math.log1p(2.0 * c * a)
    return int(math.ceil(t1 + t2 + t34 * tr)) + 1


@dataclass
class PRTrajectory:
    zeta_init: float
    iterations: int
    converged: bool
    final_z: np.ndarray
    final_dist: float
    min_zeta: float
    max_zeta_dev: float  # worst relative deviation of the zeta recurrence
    max_w_dev: float  # worst relative deviation of the ||w|| recurrence


def pr_descend(z0, x, eta, c, max_iters, stop_at_target=True):
    """Run descent from z0, checking the exact scalar recurrences each step.

    Stops as soon as dist(z, solutions) < sqrt(5c)||x|| (unless
    stop_at_target is off, for fixed-length identity probes) or after
    max_iters steps.  The recurrences (zeta and ||w|| scale by known factors
    of ||z||^2) are verified against the recomputed decomposition; the
    comparison floor 1e-6 ||x|| keeps the orthogonal component out of pure
    cancellation noise once it has decayed to a scale the decomposition
    cannot resolve.
    """
    z, x, z2, x2 = _norms(z0, x)
    xn = math.sqrt(x2)
    target = math.sqrt(5.0 * c) * xn
    dec = pr_decompose(z, x)
    zeta_init = dec.zeta
    min_zeta = dec.zeta
    max_zdev = 0.0
    max_wdev = 0.0
    converged = False
    t = 0
    for t in range(max_iters + 1):
        z2 = float(np.vdot(z, z).real)
        dist = math.sqrt(max(0.0, z2 + x2 - 2.0 * dec.zeta * xn))
        if dist < target:
            converged = True
            if stop_at_target:
                break
        if t == max_iters:
            break
        pred_zeta = (1.0 - 2.0 * eta * (z2 - x2)) * dec.zeta
        pred_wn = (1.0 - eta * (2.0 * z2 - x2)) * float(np.linalg.norm(dec.w))
        z = z - eta * ((2.0 * z2 - x2) * z - np.vdot(x, z) * x)
        dec = pr_decompose(z, x)
        wn = float(np.linalg.norm(dec.w))
        zdev = abs(dec.zeta - pred_zeta) / max(abs(pred_zeta), 1e-6 * xn)
        wdev = abs(wn - pred_wn) / max(abs(pred_wn), 1e-6 * xn)
        max_zdev = max(max_zdev, zdev)
        max_wdev = max(max_wdev, wdev)
        min_zeta = min(min_zeta, dec.zeta)
    final_dist = pr_dist_to_solutions(z, x)
    return PRTrajectory(
        zeta_init=zeta_init,
        iterations=t,
        converged=converged,
        final_z=z,
        final_dist=final_dist,
        min_zeta=min_zeta,
        max_zeta_dev=max_zdev,
        max_w_dev=max_wdev,
    )


@dataclass
class PRExperiment:
    runs: list
    total_draws: int
    band_draws: int
    band_fraction: float
    band_bound: float  # sqrt(8/pi) erf(sqrt(2n) zeta0 / ||x||)
    success_fraction: float


def pr_experiment(n, x, eta, c, zeta0, rngs, max_iters=None):
    """Descent from uniform-in-ball starts conditioned on margin >= zeta0.

    Each run draws fresh starts from its own generator in rngs (up to 1e5
    draws) until the margin clears zeta0; rejected draws are tallied, so the
    reported band_fraction estimates the chance that a raw uniform start
    lands in the low-margin initialization-failure band.  Each accepted run
    gets the worst-case iteration budget for its own initial margin, capped
    at max_iters when given.
    """
    rngs = list(rngs)
    if not rngs:
        raise ValueError("need at least one generator in rngs")
    _, x, _, x2 = _norms(np.zeros(n, dtype=complex), x)
    xn = math.sqrt(x2)
    if eta >= max_step_size(x, c):
        raise ValueError("eta must be below sqrt(c)/(4||x||^2)")
    if not (0.0 < zeta0 < xn / math.sqrt(2.0)):
        raise ValueError("zeta0 must sit inside the starting ball")
    radius = xn / math.sqrt(2.0)
    runs = []
    total_draws = 0
    band_draws = 0
    for stream in rngs:
        z0 = None
        for _ in range(100_000):
            cand = sample_ball(n, radius, stream)
            total_draws += 1
            if pr_decompose(cand, x).zeta >= zeta0:
                z0 = cand
                break
            band_draws += 1
        if z0 is None:
            raise RuntimeError("rejection sampling failed: zeta0 too large")
        budget = iteration_budget(x, eta, c, pr_decompose(z0, x).zeta)
        if max_iters is not None:
            budget = min(budget, max_iters)
        runs.append(pr_descend(z0, x, eta, c, budget))
    band_bound = math.sqrt(8.0 / math.pi) * math.erf(math.sqrt(2.0 * n) * zeta0 / xn)
    return PRExperiment(
        runs=runs,
        total_draws=total_draws,
        band_draws=band_draws,
        band_fraction=band_draws / total_draws,
        band_bound=band_bound,
        success_fraction=sum(r.converged for r in runs) / len(runs),
    )


def region_invariance_check(x, c, eta, num_states, rng):
    """One descent step from random states in the union of shells.

    States are sampled uniformly in the ball ||z||^2 <= (1+c)||x||^2 (the
    union of S1..S4).  Returns (union_violations, s1_violations): successors
    leaving the union, and S1 successors leaving S1 u S2.
    """
    x = np.asarray(x, dtype=complex)
    x2 = float(np.vdot(x, x).real)
    if eta >= max_step_size(x, c):
        raise ValueError("eta must be below sqrt(c)/(4||x||^2)")
    n = x.size
    radius = math.sqrt((1.0 + c) * x2)
    union_bad = 0
    s1_bad = 0
    done = 0
    while done < num_states:
        m = int(min(50_000, num_states - done))  # the block size fixes a seed's draws
        g = rng.standard_normal((m, 2 * n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        u = rng.random((m, 1)) ** (1.0 / (2.0 * n))
        pts = radius * u * g / norms
        Z = pts[:, :n] + 1j * pts[:, n:]
        z2 = np.einsum("ij,ij->i", Z.real, Z.real) + np.einsum("ij,ij->i", Z.imag, Z.imag)
        ip = Z @ np.conj(x)  # row-wise x^H z
        Znew = (1.0 - eta * (2.0 * z2 - x2))[:, None] * Z + eta * ip[:, None] * x[None, :]
        z2new = np.einsum("ij,ij->i", Znew.real, Znew.real) + np.einsum("ij,ij->i", Znew.imag, Znew.imag)
        union_bad += int(np.count_nonzero(z2new > (1.0 + c) * x2))
        in_s1 = z2 <= 0.5 * x2
        s1_bad += int(np.count_nonzero(z2new[in_s1] > (1.0 - c) * x2))
        done += m
    return union_bad, s1_bad
