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

C_ZETA_BOUNDARY_TOL = 1e-12  # relative slack of the section-membership comparison


def chart_to_sphere(w):
    """Lift a chart vector (||w|| < 1) to the sphere point (w, sqrt(1-||w||^2))."""
    w = np.asarray(w, dtype=float)
    ss = float(w @ w)
    if ss >= 1.0:
        raise ValueError(f"chart vector must satisfy ||w|| < 1, got ||w||^2 = {ss}")
    return np.concatenate([w, [np.sqrt(1.0 - ss)]])


def outward_direction(w, i):
    """The lift q = q(w) and the outward direction at it for coordinate i:
    d = sign(w_i) e_i - (|w_i| / q_n) e_n, tangent since <q, d> = 0.  An
    objective's outward slope is <grad f(q), d>.  w_i = 0 has no outward
    direction and raises."""
    w = np.asarray(w, dtype=float)
    if w[i] == 0.0:
        raise ValueError("w_i = 0: coordinate sign undefined")
    q = chart_to_sphere(w)
    d = np.zeros(q.size)
    d[i] = np.sign(w[i])
    d[-1] = -abs(w[i]) / q[-1]
    return q, d


def tangent_project(q, g, out=None):
    """Project g onto the tangent space at q: g - <q, g> q, row by row along
    the last axis (each row bit for bit as its own 1-D call).  out may be g."""
    return np.subtract(g, np.vecdot(q, g)[..., None] * q, out=out)


def exp_map(q, v):
    """Geodesic step from q along the tangent vector v, arclength ||v||.

    Computes cos(||v||) q + sin(||v||) v / ||v||, renormalized so unit norm
    survives arbitrarily long descent runs.  Works row by row along the last
    axis, so a (B, n) block steps B points at once, each bit for bit as its
    own 1-D call.  A row with v = 0 returns q unchanged.
    """
    q = np.asarray(q, dtype=float)
    v = np.array(v, dtype=float)  # a copy: the step overwrites it
    return geodesic_step(v.shape)(q, v, np.empty(np.broadcast_shapes(q.shape, v.shape)))


def geodesic_step(shape):
    """The buffer form of exp_map for blocks of the given shape: returns
    step(q, v, out), which writes exp_map(q, v) into out and returns it.

    step overwrites v, and out must be distinct from q and v.  It keeps three
    (..., 1) columns for ||v||, cos and sin, so repeated calls allocate
    nothing.  The ufuncs are bound once, since a descent step on a small block
    costs about as much as the Python calls that make it.
    """
    nv, c, sn = np.empty((3,) + shape[:-1] + (1,))
    nv_rows, c_rows = nv[..., 0], c[..., 0]
    vecdot, sqrt, cos, sin = np.vecdot, np.sqrt, np.cos, np.sin
    multiply, divide, add, copyto, count_nonzero = np.multiply, np.divide, np.add, np.copyto, np.count_nonzero
    rows = nv.size

    def step(q, v, out):
        vecdot(v, v, out=nv_rows)
        sqrt(nv, out=nv)
        sin(nv, out=sn)
        moving = count_nonzero(nv) == rows
        if moving:
            divide(sn, nv, out=sn)
        else:  # a row with v = 0 divides nothing and gets q back below
            divide(sn, nv, out=sn, where=nv != 0.0)
        add(multiply(cos(nv, out=c), q, out=out), multiply(sn, v, out=v), out=out)
        vecdot(out, out, out=c_rows)
        divide(out, sqrt(c, out=c), out=out)
        if not moving:
            copyto(out, q, where=nv == 0.0)
        return out

    return step


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


def scale_to_zeta(direction, zeta0):
    """Scale a nonzero chart direction so the result has margin exactly zeta0."""
    if not 0.0 <= zeta0 < np.inf:  # also rejects NaN
        raise ValueError("zeta must be finite and >= 0")
    d = np.asarray(direction, dtype=float)
    dinf = float(np.max(np.abs(d)))
    if dinf == 0.0:
        raise ValueError("direction must be nonzero")
    try:
        with np.errstate(over="raise"):  # a float raises OverflowError, a numpy scalar FloatingPointError
            grow = (1.0 + zeta0) ** 2
    except ArithmeticError:  # zeta0 above about 1.34e154
        raise ValueError(f"zeta = {zeta0} is too large: (1 + zeta)^2 overflows") from None
    t = 1.0 / np.sqrt(grow * dinf**2 + float(d @ d))
    return t * d
