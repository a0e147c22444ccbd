"""Geometry of the unit sphere S^{n-1} in R^n.

The optimization variable q always lives on the sphere.  Near a basis
direction we work in the coordinate chart

    q(w) = (w, sqrt(1 - ||w||^2)),   w in the open unit ball of R^{n-1},

whose center w = 0 is the north pole e_n.  The margin

    zeta(w) = q_n / ||w||_inf - 1

measures how dominant the last coordinate is; the nested sections
{zeta >= zeta0} shrink from the full "north" section (zeta0 = 0) down to a
neighborhood of the pole as zeta0 grows.
"""

import numpy as np

from .constants import C_ZETA_BOUNDARY_TOL


def chart_to_sphere(w):
    """Lift a chart vector (||w|| < 1) to the sphere point (w, sqrt(1-||w||^2))."""
    w = np.asarray(w, dtype=float)
    ss = float(w @ w)
    if ss >= 1.0:
        raise ValueError(f"chart vector must satisfy ||w|| < 1, got ||w||^2 = {ss}")
    return np.concatenate([w, [np.sqrt(1.0 - ss)]])


def tangent_project(q, g):
    """Project g onto the tangent space at q: g - <q, g> q, row by row along
    the last axis (each row bit for bit as its own 1-D call)."""
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    return g - np.vecdot(q, g)[..., None] * q


def exp_map(q, v):
    """Geodesic step from q along the tangent vector v, arclength ||v||.

    Computes cos(||v||) q + sin(||v||) v / ||v||, renormalized so unit norm
    survives arbitrarily long descent runs.  Works row by row along the last
    axis, so a (B, n) block steps B points at once, each bit for bit as its
    own 1-D call.  A row with v = 0 returns q unchanged.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.sqrt(np.vecdot(v, v))
    if np.count_nonzero(nv) < nv.size:
        out = q.copy()
        moving = nv != 0.0
        out[moving] = exp_map(q[moving], v[moving])
        return out
    nv = nv[..., None]
    out = np.cos(nv) * q + (np.sin(nv) / nv) * v
    return out / np.sqrt(np.vecdot(out, out))[..., None]


def zeta(w):
    """Margin q_n / ||w||_inf - 1 of the chart point q(w); +inf at w = 0."""
    w = np.asarray(w, dtype=float)
    winf = float(np.max(np.abs(w))) if w.size else 0.0
    if winf == 0.0:
        return np.inf
    ss = float(w @ w)
    if ss >= 1.0:
        raise ValueError(f"chart vector must satisfy ||w|| < 1, got ||w||^2 = {ss}")
    return float(np.sqrt(1.0 - ss) / winf - 1.0)


def in_section(qn, winf, zeta0):
    """Section membership q_n >= (1 + zeta0) ||w||_inf, elementwise.  A 1e-12
    relative slack lets exact boundary points (equal-magnitude coordinates)
    classify as members despite rounding in ||w||."""
    return qn >= (1.0 + zeta0) * (1.0 - C_ZETA_BOUNDARY_TOL) * winf


def sample_uniform_sphere(n, rng):
    """Uniform point on S^{n-1}: a normalized vector of independent standard normals."""
    if n < 2:
        raise ValueError("need n >= 2")
    g = rng.standard_normal(n)
    nn = float(np.linalg.norm(g))
    while nn == 0.0:  # probability-zero degenerate draw
        g = rng.standard_normal(n)
        nn = float(np.linalg.norm(g))
    return g / nn


def linf_inner_radius(zeta0, n):
    """Radius of the largest L-inf chart ball inside the zeta0 section:
    1/sqrt((2+zeta0) zeta0 + n)."""
    return 1.0 / np.sqrt((2.0 + zeta0) * zeta0 + n)


def l2_outer_radius(zeta0, n):
    """Radius of the smallest L2 chart ball containing the zeta0 section."""
    return np.sqrt(n - 1.0) * linf_inner_radius(zeta0, n)


def scale_to_zeta(direction, zeta0):
    """Scale a nonzero chart direction so the result has margin exactly zeta0."""
    d = np.asarray(direction, dtype=float)
    dinf = float(np.max(np.abs(d)))
    if dinf == 0.0:
        raise ValueError("direction must be nonzero")
    t = 1.0 / np.sqrt((1.0 + zeta0) ** 2 * dinf**2 + float(d @ d))
    return t * d
