"""Critical-point structure and geometric probes for the separable objective.

The separable objective's critical points are exactly the normalized sign
patterns in {-1, 0, +1}^n; their stability is determined by support size
(1-sparse patterns are the minimizers, full-support patterns the maximizers,
everything else a saddle).  Gradient flow from a generic point keeps the
signs of its maximal-magnitude coordinates and kills the rest, which gives a
closed-form flow-limit map and a membership test for the stable manifolds.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import TIE_TOL
from .datagen import gen_bg_matrix
from .objectives import (
    check_mu,
    dl_pop_projected_grad_estimate,
    dl_projected_grad,
    sep_projected_grad,
)
from .sphere import chart_to_sphere, in_section, scale_to_zeta

ENUMERATION_MAX_N = 12  # 3^n - 1 points; keep the blow-up bounded


@dataclass(frozen=True)
class CriticalPoint:
    pattern: tuple  # entries in {-1, 0, +1}, not all zero
    support_size: int
    kind: str  # "minimizer" | "saddle" | "maximizer" | "degenerate" (n = 1)

    @property
    def point(self):
        """The critical point itself: pattern / sqrt(support_size)."""
        return np.asarray(self.pattern, dtype=float) / np.sqrt(self.support_size)


def classify_support(support_size, n):
    """Stability kind from support size; n = 1 is flagged as degenerate since
    its two points are simultaneously minimal and maximal."""
    if n == 1:
        return "degenerate"
    if support_size == 1:
        return "minimizer"
    if support_size == n:
        return "maximizer"
    return "saddle"


def enumerate_critical_points(n):
    """All 3^n - 1 sign-pattern critical points with their classification."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"n = {n} exceeds the enumeration guard ({ENUMERATION_MAX_N})")
    out = []
    for pat in itertools.product((-1, 0, 1), repeat=n):
        k = sum(1 for v in pat if v != 0)
        if k == 0:
            continue
        out.append(CriticalPoint(pattern=pat, support_size=k, kind=classify_support(k, n)))
    return out


def predict_flow_limit(q):
    """Critical point that gradient flow from q converges to: coordinates
    within TIE_TOL of the maximal magnitude keep their signs, the rest vanish."""
    q = np.asarray(q, dtype=float)
    m = float(np.max(np.abs(q)))
    pattern = tuple(int(np.sign(v)) if abs(v) >= m - TIE_TOL else 0 for v in q)
    k = sum(1 for v in pattern if v != 0)
    return CriticalPoint(pattern=pattern, support_size=k, kind=classify_support(k, q.size))


def stable_manifold_membership(q, cp):
    """Whether q lies on the stable manifold of cp: the maximal-magnitude
    coordinate set of q must equal cp's support with matching signs."""
    return predict_flow_limit(q).pattern == cp.pattern


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


def _section_block(n, m, rng):
    """Rows of m uniform points on S^{n-1}, with their q_n (a copy) and ||w||_inf."""
    g = rng.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g, g[:, -1].copy(), np.abs(g[:, :-1]).max(axis=1)


def volume_estimate(n, zeta0, num_samples, rng):
    """Monte-Carlo fraction of the sphere lying in the single zeta0 section.

    Membership is raw (no canonicalization): the last coordinate must
    dominate.  Returns (fraction, binomial standard error).
    """
    frac = float(volume_curve(n, [zeta0], num_samples, rng)[0])
    return frac, float(np.sqrt(frac * (1.0 - frac) / num_samples))


def volume_curve(n, zetas, num_samples, rng):
    """Section-volume fractions over a zeta grid, sharing one sample pool so
    the estimates are exactly nested (monotone nonincreasing in zeta)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if num_samples < 10_000:
        raise ValueError("need num_samples >= 1e4 for a meaningful estimate")
    zetas = np.asarray(zetas, dtype=float)
    if not np.all((zetas >= 0.0) & (zetas < np.inf)):
        raise ValueError("zeta must be finite and >= 0")
    hits = np.zeros(zetas.size, dtype=np.int64)
    done = 0
    while done < num_samples:
        m = int(min(200_000, num_samples - done))  # the block size fixes a seed's draws
        qn, winf = _section_block(n, m, rng)[1:]  # frees the block before the next draw
        for k, z in enumerate(zetas):
            hits[k] += int(np.count_nonzero(in_section(qn, winf, z)))
        done += m
    return hits / num_samples


def sep_success_bound(n, zeta0):
    """Lower bound max(0, 1 - 2 log(n) zeta0) on the chance that a uniform
    start lies in some section of margin at least zeta0, from which separable
    descent succeeds: 2n sections, each of volume at least
    1/(2n) - zeta0 log(n)/n."""
    return max(0.0, 1.0 - 2.0 * math.log(n) * zeta0)


def sample_uniform_c_zeta(n, zeta0, rng):
    """Uniform sphere point conditioned on the canonical zeta0 section
    (rejection sampling in up to 5000 blocks of 4096 points)."""
    for _ in range(5000):
        g, qn, winf = _section_block(n, 4096, rng)
        ok = np.flatnonzero(in_section(qn, winf, zeta0))
        if ok.size:
            return g[ok[0]].copy()
    raise RuntimeError(f"rejection sampling failed: section zeta0={zeta0} too small at n={n}")


def projection_constant_floor(mu):
    """Analytic positivity floor for the outward slope, valid for mu < 1/16:
    ((1 - mu^2)/(1 + mu^2) - 8 mu) / 2."""
    return ((1.0 - mu * mu) / (1.0 + mu * mu) - 8.0 * mu) / 2.0


def projection_scan(n, mu, zetas, samples_per_zeta, rng):
    """Measure outward slopes across sections of margin zeta > 0.

    For each sampled chart point, every coordinate above the slope floor
    mu*log(1/mu) contributes a row (zeta, ||w||_inf, |w_i|, slope, ratio)
    with ratio = slope / (||w||_inf * zeta).  Returns (rows, fitted_c) where
    fitted_c is the smallest observed ratio: the empirical linear-in-zeta
    lower envelope coefficient.
    """
    check_mu(mu)
    if samples_per_zeta < 1:
        raise ValueError("need samples_per_zeta >= 1")
    thr = mu * np.log(1.0 / mu)
    rows = []
    for z in zetas:
        if z <= 0.0:
            raise ValueError("projection_scan needs zeta > 0")
        for _ in range(samples_per_zeta):
            d = rng.standard_normal(n - 1)
            w = scale_to_zeta(d, z)
            winf = float(np.max(np.abs(w)))
            for i in range(n - 1):
                if abs(w[i]) >= thr:
                    val = sep_projected_grad(w, i, mu)
                    rows.append((float(z), winf, abs(float(w[i])), val, val / (winf * z)))
    if not rows:
        raise ValueError("no coordinate cleared the slope floor; lower mu or raise n")
    fitted_c = min(r[4] for r in rows)
    return rows, fitted_c


def fluctuation_probe(w, i, mu, theta, p_list, trials, rng, ref_samples=500_000):
    """Mean |finite-sample - infinite-data| outward slope versus sample count.

    The infinite-data reference is a single large conditioned Monte-Carlo
    estimate; each (p, trial) pair then draws a fresh Bernoulli-Gaussian data
    matrix.  Returns a list of (p, mean absolute deviation) rows.
    """
    p_list = [int(p) for p in p_list]
    if p_list != sorted(p_list):
        raise ValueError("p_list must be increasing")
    if trials < 1:
        raise ValueError("need trials >= 1")
    w = np.asarray(w, dtype=float)
    n = w.size + 1
    ref, _ = dl_pop_projected_grad_estimate(w, i, mu, theta, ref_samples, rng)
    rows = []
    for p in p_list:
        devs = np.empty(trials)
        for t in range(trials):
            X = gen_bg_matrix(n, p, theta, rng)
            devs[t] = abs(dl_projected_grad(w, i, X, mu) - ref)
        rows.append((p, float(devs.mean())))
    return rows
