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

from .descent import _WINDOW, STATUS_BALL, STATUS_MAX, STATUS_NAN


@dataclass(frozen=True, eq=False)
class PRDecomposition:
    """z = w + zeta e^{i phi} x / ||x|| with w orthogonal to x; phi = 0 when
    zeta = 0."""

    w: np.ndarray
    zeta: float
    phi: float


def _signal(x):
    """The signal as a complex array, with its squared norm ||x||^2 > 0."""
    x = np.asarray(x, dtype=complex)
    x2 = float(np.vdot(x, x).real)
    if x2 == 0.0:
        raise ValueError("signal x must be nonzero")
    return x, x2


def _points(z, x, ndims=(1,)):
    x, x2 = _signal(x)
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != x.shape or z.ndim not in ndims:
        raise ValueError("z and x must have the same length")
    return z, x, x2


def pr_value(z, x):
    """Objective value ||x||^4 + ||z||^4 - ||x||^2||z||^2 - |x^H z|^2 of a
    point, or of each row of a (B, n) block with the bits of its one-row call."""
    z, x, x2 = _points(z, x, (1, 2))
    z2, ip = np.vecdot(z, z).real, np.vecdot(x, z)
    # |x^H z|^2 as the scalar ip * conj(ip) rounds it, which an array's product may not
    value = x2 * x2 + z2 * z2 - x2 * z2 - (ip.real * ip.real - ip.imag * -ip.imag)
    return float(value) if z.ndim == 1 else value


def _margin(ip, xn):
    """zeta = |x^H z| / ||x|| from x^H z, as hypot: np.abs of complex arrays rounds unlike abs()."""
    return np.hypot(ip.real, ip.imag) / xn


def _orthogonal(Z, ip, x, x2):
    """w = z - (x^H z) x / ||x||^2 of each point along Z's last axis, given
    its x^H z, as a product with x / ||x||^2: numpy's scalar and array complex
    divisions round differently.  For x = e1, w[0] is exactly 0."""
    return Z - ip[..., None] * (x / x2)


def _row_norms(W):
    # np.linalg.norm's complex form, whose bits sqrt(vecdot(W, W).real) does not give
    return np.sqrt(np.vecdot(W.real, W.real) + np.vecdot(W.imag, W.imag))


def _step(Z, z2, ip, x, x2, eta, out=None):
    """One descent step z - eta ((2||z||^2 - ||x||^2) z - (x^H z) x) of each
    point along Z's last axis, given its ||z||^2 and x^H z."""
    return np.subtract(Z, eta * ((2.0 * z2 - x2)[..., None] * Z - ip[..., None] * x), out=out)


def pr_decompose(z, x):
    """Split z into its signal-aligned polar part and the orthogonal rest."""
    z, x, x2 = _points(z, x)
    ip = np.vecdot(x, z[None])  # the engine's row forms, so its rows carry these bits
    zeta, phi = float(_margin(ip, math.sqrt(x2))[0]), float(np.angle(ip[0])) % (2.0 * math.pi)
    phi = phi if zeta > 0.0 and phi < 2.0 * math.pi else 0.0  # a tiny negative angle rounds to 2 pi
    return PRDecomposition(_orthogonal(z[None], ip, x, x2)[0], zeta, phi)


def _check_c(c):
    if not 0.0 < c < 0.25:  # also rejects NaN
        raise ValueError("need 0 < c < 1/4")


def max_step_size(x, c):
    """Largest admissible step size sqrt(c) / (4 ||x||^2)."""
    _check_c(c)
    return math.sqrt(c) / (4.0 * _signal(x)[1])


def sample_ball(n, radius, rng):
    """Uniform point in the complex n-ball of the given radius (the norm of
    the underlying real 2n-dimensional space)."""
    nv = 0.0
    while nv == 0.0:  # redraw the direction of a zero draw
        g = rng.standard_normal((n, 2))
        v = g[:, 0] + 1j * g[:, 1]
        nv = float(np.linalg.norm(v))
    return (radius * rng.random() ** (1.0 / (2.0 * n)) / nv) * v


def sample_balls(n, radius, rngs):
    """One sample_ball point per generator as a (B, n) block: each generator
    draws in sample_ball's order, and each row has sample_ball's bits."""
    G = np.array([rng.standard_normal((n, 2)) for rng in rngs])
    nv = _row_norms(V := G[..., 0] + 1j * G[..., 1])
    scale = [radius * rng.random() ** (1.0 / (2.0 * n)) / v if v else 0.0 for rng, v in zip(rngs, nv.tolist())]
    Z = np.array(scale)[:, None] * V
    for k in np.flatnonzero(nv == 0.0):  # a zero direction is drawn again before its uniform
        Z[k] = sample_ball(n, radius, rngs[k])
    return Z


def iteration_budgets(x, eta, c, zetas):
    """Worst-case iteration count to reach dist(z, solutions) < sqrt(5c)||x||
    from each margin in zetas: a geometric escape out of the low-margin band,
    then a crossing of the middle shell and a contraction of ||w|| with
    re-entry slack, the two terms that do not depend on the margin."""
    if not (0.0 < eta < math.inf and all(0.0 < z < math.inf for z in zetas)):
        raise ValueError("eta and zeta_init must be positive and finite")
    _check_c(c)
    x2 = _signal(x)[1]
    a = eta * x2
    rates = math.log1p(a), math.log1p(2.0 * c * a), math.log1p(-(1.0 - 2.0 * c) * a)
    if 0.0 in rates:
        raise ValueError("eta ||x||^2 or c eta ||x||^2 rounds to 0: no finite iteration budget")
    t2 = math.log(2.0) / (2.0 * rates[1])
    t34_tr = math.log(2.0 * c) / rates[2] * (math.log(4.0 / math.sqrt(7.0)) / rates[1])
    totals = [max(0.0, math.log(math.sqrt(x2) / (z * math.sqrt(2.0))) / rates[0]) + t2 + t34_tr for z in zetas]
    if not all(map(math.isfinite, totals)):
        raise ValueError("the iteration budget overflows: eta, c or zeta_init is too small")
    return [int(math.ceil(total)) + 1 for total in totals]


@dataclass
class PRTrajectory:
    iterations: int
    converged: bool
    final_z: np.ndarray
    final_dist: float
    final_zeta: float
    max_zeta_dev: float  # worst relative deviation of the zeta recurrence
    max_w_dev: float  # worst relative deviation of the ||w|| recurrence
    status: str  # the first stop rule that holds at the last iterate


def pr_descend_block(Z0, x, eta, c, budgets, stop_at_target=True):
    """Run descent from every row of the (B, n) block Z0 in lockstep, checking
    the exact scalar recurrences once per window of _WINDOW steps.

    Row k stops at its first iterate where a stop rule holds: ||z||^2 is not
    finite, dist(z, solutions) < sqrt(5c)||x|| (unless stop_at_target is off,
    for fixed-length identity probes), or budgets[k] steps are taken.  Its
    status is the first rule that holds there, in the sphere engine's order
    "aborted_nan", "ball_entered", "max_iters"; converged tells whether the
    row ever reached the target.  The recurrences (zeta and ||w|| scale by
    known factors of ||z||^2) are verified against zeta and ||w|| recomputed
    from x^H z and the projection w = z - (x^H z) x / ||x||^2; the comparison
    floor 1e-6 ||x|| keeps the orthogonal component out of pure cancellation
    noise once it has decayed to a scale the projection cannot resolve.

    Inside a window step s only reads Zs[s] and its x^H z and writes Zs[s + 1]
    and its x^H z, so x^H z is taken once per iterate; zeta, ||w||, the stop
    rules and the recurrence checks then run once over the window's iterates.
    A row's steps past its stop are discarded, and no step raises a
    floating-point warning.  A row leaves the block when it stops; rows never
    interact, so each row's run equals that of a one-row block bit for bit.

    Returns one PRTrajectory per row.
    """
    Z, x, x2 = _points(np.atleast_2d(Z0), x, (2,))
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    _check_c(c)
    b = np.asarray(budgets)
    whole = b.dtype.kind in "iuf" and np.all(np.isfinite(b) & (b == np.trunc(b)) & (b >= 0) & (b < 2**63))
    if b.shape != Z.shape[:1] or not whole:  # steps are counted in int64
        raise ValueError("need one whole iteration budget from 0 to 2**63 - 1 per start")
    budgets = b.astype(int)
    xn = math.sqrt(x2)
    target = math.sqrt(5.0 * c) * xn
    stats = np.zeros((2, len(Z)))  # per running row: worst zeta and ||w|| deviations
    converged = np.zeros(len(Z), dtype=bool)
    rows = np.arange(len(Z))  # caller's row index of each row still running
    runs = [None] * len(Z)
    ip = np.vecdot(x, Z)  # x^H z of each running row's current iterate
    t0 = 0  # iteration of the window's first iterate
    with np.errstate(invalid="ignore", over="ignore"):  # a row may step on to non-finite values
        while rows.size:
            w = min(_WINDOW, int(budgets[rows].max()) + 1 - t0)
            Zs, IP = np.empty((w + 1,) + Z.shape, dtype=complex), np.empty((w + 1, len(Z)), dtype=complex)
            z2 = np.empty((w, len(Z)))
            Zs[0], IP[0] = Z, ip
            for s in range(w):
                z2[s] = np.vecdot(Zs[s], Zs[s]).real
                _step(Zs[s], z2[s], IP[s], x, x2, eta, out=Zs[s + 1])
                IP[s + 1] = np.vecdot(x, Zs[s + 1])
            zeta, wn = _margin(IP, xn), _row_norms(_orthogonal(Zs, IP, x, x2))
            dist = np.sqrt(np.maximum(0.0, z2 + x2 - 2.0 * zeta[:w] * xn))  # non-finite for a non-finite state
            conv = converged | np.logical_or.accumulate(dist < target, axis=0)
            budget_spent = np.arange(t0, t0 + w)[:, None] >= budgets[rows]
            rules = np.stack([~np.isfinite(z2), conv & stop_at_target, budget_spent])  # in the order of the statuses
            fired = rules.any(axis=0)
            stopped, at = fired.any(axis=0), fired.argmax(axis=0)  # each row's first stop in the window
            zw = np.stack([zeta, wn])  # the recurrences predict zw[:, s + 1] from zw[:, s] and z2[s]
            pred = np.stack([1.0 - 2.0 * eta * (z2 - x2), 1.0 - eta * (2.0 * z2 - x2)]) * zw[:, :w]
            dev = np.abs(zw[:, 1:] - pred) / np.maximum(np.abs(pred), 1e-6 * xn)
            stepped = np.arange(w)[:, None] < np.where(stopped, at, w)
            stats = np.fmax(stats, np.fmax.reduce(dev, axis=1, where=stepped, initial=-np.inf))
            k, s = np.flatnonzero(stopped), at[stopped]  # each stopped row and its last iterate
            ends = zip(rows[k].tolist(), (t0 + s).tolist(), conv[s, k].tolist(), Zs[s, k], dist[s, k].tolist(),
                       zeta[s, k].tolist(), *stats[:, k].tolist(), rules[:, s, k].argmax(axis=0).tolist())
            for row, *end, rule in ends:
                runs[row] = PRTrajectory(*end, (STATUS_NAN, STATUS_BALL, STATUS_MAX)[rule])
            Z, ip, converged, rows = Zs[w][~stopped], IP[w][~stopped], conv[-1][~stopped], rows[~stopped]
            stats = stats[:, ~stopped]
            t0 += w
    return runs


def pr_descend(z0, x, eta, c, max_iters, stop_at_target=True):
    """One run from z0: the one-row case of pr_descend_block."""
    return pr_descend_block(np.asarray(z0)[None], x, eta, c, [max_iters], stop_at_target)[0]


@dataclass
class PRExperiment:
    runs: list
    total_draws: int
    band_fraction: float
    band_bound: float  # sqrt(8/pi) erf(sqrt(2n) zeta0 / ||x||)
    success_fraction: float


def pr_experiment(n, x, eta, c, zeta0, rngs, max_iters=None):
    """Descent from uniform-in-ball starts conditioned on margin >= zeta0.

    Each run draws fresh starts from its own generator in rngs (up to 1e5
    draws) until the margin clears zeta0: the first draws as one block, then
    each rejected start alone, in the order of rngs (a generator that runs
    out raises, every later one having drawn once).  None draws when the exact
    start law P(margin >= zeta0) = (1 - 2 zeta0^2/||x||^2)^n gives a chance
    below 1e-9 of clearing it in 1e5 draws; rejected draws are tallied, so the
    reported band_fraction estimates the chance that a raw uniform start
    lands in the low-margin initialization-failure band.  The accepted starts
    then descend as one block, each with the worst-case iteration budget for
    its own initial margin, capped at max_iters when given.
    """
    rngs = list(rngs)
    if not rngs:
        raise ValueError("need at least one generator in rngs")
    x, x2 = _signal(x)
    xn = math.sqrt(x2)
    if not 0.0 < eta < max_step_size(x, c):
        raise ValueError("eta must be positive and below sqrt(c)/(4||x||^2)")
    if not (0.0 < zeta0 < xn / math.sqrt(2.0)):
        raise ValueError("zeta0 must sit inside the starting ball")
    radius = xn / math.sqrt(2.0)
    law = (1.0 - 2.0 * zeta0 * zeta0 / x2) ** n  # a law that rounds to 1 clears at the first draw
    too_large = ValueError(f"no start clears zeta0 = {zeta0} in 100000 draws: zeta0 is too large")
    if law < 1.0 and -math.expm1(1e5 * math.log1p(-law)) < 1e-9:  # hopeless: fail without drawing
        raise too_large
    starts = sample_balls(n, radius, rngs)  # every generator's first draw
    zetas = _margin(np.vecdot(x, starts), xn).tolist()
    total_draws = len(rngs)
    for k in [k for k, zeta in enumerate(zetas) if zeta < zeta0]:  # redraw rejected starts in seed order
        for _ in range(99_999):
            z0 = sample_ball(n, radius, rngs[k])
            total_draws += 1
            zeta = float(_margin(np.vecdot(x, z0), xn))
            if zeta >= zeta0:
                break
        else:
            raise too_large
        starts[k], zetas[k] = z0, zeta
    budgets = iteration_budgets(x, eta, c, zetas)
    runs = pr_descend_block(starts, x, eta, c, [b if max_iters is None else min(b, max_iters) for b in budgets])
    return PRExperiment(
        runs=runs,
        total_draws=total_draws,
        band_fraction=(total_draws - len(rngs)) / total_draws,  # every draw but each run's last was rejected
        band_bound=math.sqrt(8.0 / math.pi) * math.erf(math.sqrt(2.0 * n) * zeta0 / xn),
        success_fraction=sum(r.converged for r in runs) / len(runs),
    )


def region_invariance_check(x, c, eta, num_states, rng):
    """One descent step from random states in the union of shells.

    States are sampled uniformly in the ball ||z||^2 <= (1+c)||x||^2 (the
    union of S1..S4).  Returns (union_violations, s1_violations): successors
    leaving the union, and S1 successors leaving S1 u S2.
    """
    x, x2 = _signal(x)
    if not 0.0 < eta < max_step_size(x, c):
        raise ValueError("eta must be positive and below sqrt(c)/(4||x||^2)")
    n = x.size
    radius = math.sqrt((1.0 + c) * x2)
    union_bad = s1_bad = done = 0
    while done < num_states:
        m = int(min(50_000, num_states - done))  # the block size fixes a seed's draws
        g = rng.standard_normal((m, 2 * n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        u = rng.random((m, 1)) ** (1.0 / (2.0 * n))
        pts = radius * u * g / norms
        Z = pts[:, :n] + 1j * pts[:, n:]
        z2 = np.vecdot(Z, Z).real
        Znew = _step(Z, z2, np.vecdot(x, Z), x, x2, eta)
        z2new = np.vecdot(Znew, Znew).real
        union_bad += int(np.count_nonzero(z2new > (1.0 + c) * x2))
        in_s1 = z2 <= 0.5 * x2
        s1_bad += int(np.count_nonzero(z2new[in_s1] > (1.0 - c) * x2))
        done += m
    return union_bad, s1_bad
