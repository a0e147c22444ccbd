"""Critical points of the separable objective, and the Monte-Carlo probes.

The separable objective's critical points are exactly the normalized sign
patterns in {-1, 0, +1}^n; their stability is determined by support size
(1-sparse patterns are the minimizers, full-support patterns the maximizers,
everything else a saddle).  The probes measure section volumes and the
outward slopes that carry descent out of the low-margin band, for the
separable objective and the finite-sample and infinite-data dictionary ones.
"""

import concurrent.futures
import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datagen import MC_BLOCK_BYTES, gen_bg_matrix
from .objectives import (
    check_mu,
    dl_pop_projected_grad_estimate,
    dl_projected_grad,
    sep_projected_grad,
)
from .sphere import in_section, scale_to_zeta

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


def _drawn_ahead(n, num_samples, rng):
    """Yield the (m, n) normal blocks of num_samples rows, each drawn on one
    helper thread while the caller reduces the one before.  A block is held
    here only until the next is asked for, so a caller that drops it (map)
    keeps two alive.  The thread is joined when the generator ends or closes."""
    rows = max(1, MC_BLOCK_BYTES // (8 * n))  # any block size gives the same draws and bits
    sizes = [min(rows, num_samples - a) for a in range(0, num_samples, rows)]
    with concurrent.futures.ThreadPoolExecutor(1) as ex:
        ahead = ex.submit(rng.standard_normal, (sizes[0], n))
        for m in sizes[1:]:
            block = ahead.result()
            ahead = ex.submit(rng.standard_normal, (m, n))
            yield block
        yield ahead.result()


def _section_rows(g):
    """q_n (a copy, so the block is freed) and ||w||_inf of the rows of g
    projected onto the sphere; g is normalised in place."""
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g[:, -1].copy(), np.abs(g[:, :-1]).max(axis=1)


def volume_estimate(n, zeta0, num_samples, rng):
    """Monte-Carlo fraction of the sphere lying in the single zeta0 section.

    Membership is raw (no canonicalization): the last coordinate must
    dominate.  Returns (fraction, binomial standard error).
    """
    frac = float(volume_curve(n, [zeta0], num_samples, rng)[0])
    return frac, float(np.sqrt(frac * (1.0 - frac) / num_samples))


def volume_curve(n, zetas, num_samples, rng):
    """Section-volume fractions over a zeta grid, sharing one sample pool so
    the estimates are exactly nested (monotone nonincreasing in zeta).

    The pool is streamed in blocks of about MC_BLOCK_BYTES, up to two in
    flight: one helper thread draws the next block while this thread
    normalises and counts the current one (numpy releases the GIL in both).
    The helper makes every draw, in order and with the serial block sizes,
    so the fractions, and probe-volume's CSV, are bit for bit those of a
    serial loop.  It is joined before this returns or raises, so a later
    fork sees no thread.  The population estimator in objectives stays
    serial: drawn ahead the same way, the gate-8 reference gained no time
    and held a second 12.8 MB block.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if num_samples < 10_000:
        raise ValueError("need num_samples >= 1e4 for a meaningful estimate")
    zetas = np.asarray(zetas, dtype=float)
    if not np.all((zetas >= 0.0) & (zetas < np.inf)):
        raise ValueError("zeta must be finite and >= 0")
    hits = np.zeros(zetas.size, dtype=np.int64)
    with contextlib.closing(_drawn_ahead(n, num_samples, rng)) as blocks:  # joins on a raise too
        for qn, winf in map(_section_rows, blocks):
            for k, z in enumerate(zetas):
                hits[k] += int(np.count_nonzero(in_section(qn, winf, z)))
    return hits / num_samples


def sep_success_bound(n, zeta0):
    """Lower bound max(0, 1 - 2 log(n) zeta0) on the chance that a uniform
    start lies in some section of margin at least zeta0, from which separable
    descent succeeds: 2n sections, each of volume at least
    1/(2n) - zeta0 log(n)/n."""
    return max(0.0, 1.0 - 2.0 * math.log(n) * zeta0)


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
    if n < 2:
        raise ValueError("need n >= 2")
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
