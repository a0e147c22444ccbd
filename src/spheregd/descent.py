"""Riemannian gradient descent on the sphere: one lockstep engine for a block
of starts, with optional per-iteration tracing."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

# the engine steps with geodesic_step, the buffer form of exp_map; exp_map stays
# importable here because perfbench/tracer.py hooks spheregd.descent.exp_map
from .sphere import exp_map, geodesic_step  # noqa: F401

STATUS_BALL = "ball_entered"
STATUS_GRAD = "grad_tol"
STATUS_MAX = "max_iters"
STATUS_NAN = "aborted_nan"
_STATUSES = (STATUS_NAN, STATUS_GRAD, STATUS_BALL, STATUS_MAX)  # in the order the stop rules are checked

START_NORM_TOL = 1e-9  # accepted deviation of a start point's norm from 1


@dataclass(frozen=True)
class BallStop:
    """Stop once the section-mapped iterate enters a chart ball.

    norm: "linf" or "l2" on the chart vector of the canonicalized iterate,
    measured in the run frame (the target basis when one is supplied to
    riemannian_gd, identity otherwise), so the ball is around the nearest
    signed target.
    """

    norm: str
    radius: float

    def __post_init__(self):
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"unknown ball norm {self.norm!r}")
        if not 0.0 < self.radius < np.inf:  # also rejects NaN
            raise ValueError("ball radius must be positive and finite")


@dataclass(frozen=True)
class DescentConfig:
    eta: float
    max_iters: int
    stop_grad_tol: float = 0.0
    stop_ball: Optional[BallStop] = None

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:  # also rejects NaN
            raise ValueError("eta must be positive and finite")
        if not (1 <= self.max_iters < np.inf and self.max_iters % 1 == 0):  # also rejects NaN
            raise ValueError("max_iters must be a whole number >= 1")
        object.__setattr__(self, "max_iters", int(self.max_iters))  # the engine sizes its windows by it
        if not 0.0 <= self.stop_grad_tol < np.inf:
            raise ValueError("stop_grad_tol must be >= 0 and finite")


@dataclass
class DescentTrace:
    """Per-iteration record of one descent run; an untraced run keeps only
    its last iterate.

    zeta, w_inf and dist_target are computed after mapping the iterate into
    its canonical section (in the target frame when one was supplied).
    """

    iters: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    zeta: np.ndarray
    w_inf: np.ndarray
    dist_target: np.ndarray
    status: str
    q_final: np.ndarray


def recovery_error(q, A0):
    """Distance from q to the nearest signed column of the ground truth
    dictionary A0.  Returns (signed 1-based column index, L2 error)."""
    q = np.asarray(q, dtype=float)
    corr = A0.T @ q
    j = int(np.argmax(np.abs(corr)))
    s = 1.0 if corr[j] >= 0.0 else -1.0
    err = float(np.linalg.norm(q - s * A0[:, j]))
    return int(s) * (j + 1), err


# Steps between stop-rule checks; a row takes at most _WINDOW - 1 discarded
# steps past its stop.  Above 32, separable blocks gained little, while a
# one-row dictionary run wastes about _WINDOW / 2 oracle calls after its stop.
_WINDOW = 32


def riemannian_gd_block(objective, q0, cfg, target_basis=None, traced=False):
    """Iterate q <- exp_q(-eta * grad f(q)) on every row of the (B, n) block q0
    in lockstep, until a stop rule fires for the row.

    objective: callable (Q, value=True, out=None) -> (values, Riemannian
    gradients) on a (B, n) block, one point per row; with value=False the
    values may be None, and given out, a (B, n) array, the gradients are
    written there and out is returned.  An objective.values(Q), the values
    alone for any leading shape and with their bits, makes every step run with
    value=False: a traced window takes its values in one call after its steps,
    and an untraced row's stop value comes from it (dl_objective has none).
    target_basis: optional orthogonal matrix whose signed columns are the
    targets; section statistics and any ball stop are computed in that frame.
    traced: keep every iterate's statistics.  Untraced, each row's trace holds
    only its last iterate and the value is computed there alone.

    Stop rules are checked once per window of _WINDOW steps but mean the same
    per step: a row stops at its first iterate where one fires, and its status
    is the first rule that fires there, in the order non-finite, grad_tol,
    ball, max_iters (so a run started at a critical point terminates
    immediately); its steps past that iterate are discarded.  A non-finite
    gradient, or a non-finite value at a recorded iterate, aborts the row with
    status "aborted_nan"; nothing is clamped.  A row leaves the block when it
    stops.  Rows never interact, and each window rotates every row's iterates
    into the target frame by that row's own product, so each row's trace
    equals that of a one-row block bit for bit, with or without a target basis.

    A window allocates its arrays once, and the engine allocates nothing per
    step: step s reads the iterate Qs[s], has the oracle write Gs[s] and the
    geodesic step write Qs[s + 1], and Qs[w] starts the next window.

    Returns one DescentTrace per row.
    """
    Q = np.array(q0, dtype=float, ndmin=2)
    if np.any(np.abs(np.sqrt(np.vecdot(Q, Q)) - 1.0) > START_NORM_TOL):
        raise ValueError("q0 must have unit norm")
    RT = None if target_basis is None else np.asarray(target_basis, dtype=float).T
    ball, tol, step_scale = cfg.stop_ball, cfg.stop_grad_tol, -cfg.eta
    multiply = np.multiply
    step_value = traced and not hasattr(objective, "values")  # else one values call per traced window
    values = getattr(objective, "values", lambda Q: objective(Q)[0])

    rows = np.arange(len(Q))  # caller's row index of each row still running
    traces = [None] * len(Q)
    history = []  # traced: per window, the trace columns of each caller row
    t0 = 0  # iteration of the window's first step
    while rows.size:
        w = min(_WINDOW, cfg.max_iters + 1 - t0)
        Qs, Gs, V = np.empty((w + 1,) + Q.shape), np.empty((w,) + Q.shape), np.empty(Q.shape)
        Qs[0] = Q
        C = np.empty((5, w, len(rows)))  # each iterate's trace columns, in DescentTrace's order
        F, gn, zeta, w_inf, dist = C  # F: every iterate's value when traced, else each stop's
        geodesic = geodesic_step(Q.shape)
        # a stopped row may step on to non-finite values; zeta is inf on a target
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for s, (q, g, q_next) in enumerate(zip(Qs, Gs, Qs[1:])):
                f = objective(q, value=step_value, out=g)[0]
                if step_value:
                    F[s] = f
                geodesic(q, multiply(g, step_scale, out=V), q_next)
            if traced and not step_value:
                F[:] = values(Qs[:w])
            np.sqrt(np.vecdot(Gs, Gs), out=gn)
            # into the run frame by one (n, n) @ (n, 1) product per row and step, as in a one-row block
            ab = np.sort(np.abs(Qs[:w] if RT is None else np.matmul(RT, Qs[:w, :, :, None])[..., 0]), axis=-1)
            top = ab[..., -1]
            w_inf[:] = ab[..., -2]
            np.subtract(top / w_inf, 1.0, out=zeta)
            np.sqrt(np.fmax(0.0, 2.0 - 2.0 * top), out=dist)
        rules = np.empty((4,) + gn.shape, dtype=bool)  # each iterate's stop rules, in the order of _STATUSES
        rules[0] = ~np.isfinite(gn)
        if traced:
            rules[0] |= ~np.isfinite(F)
        rules[1] = gn <= tol
        # top = largest |coordinate| of the frame-rotated iterate, w_inf = next one;
        # in chart terms w_inf = ||w||_inf and sqrt(1 - top^2) = ||w||_2
        chart = w_inf if ball is None or ball.norm == "linf" else np.sqrt(np.fmax(0.0, 1.0 - top * top))
        rules[2] = ball is not None and chart < ball.radius
        rules[3] = (t0 + np.arange(w) >= cfg.max_iters)[:, None]
        fired = rules.any(axis=0)
        if traced:
            history.append(np.empty((5, w, len(traces))))
            history[-1][:, :, rows] = C
        stopped, at = fired.any(axis=0), fired.argmax(axis=0)  # each row's first stop in the window
        for k, s in zip(np.flatnonzero(stopped).tolist(), at[stopped].tolist()):
            t = t0 + s
            if traced:
                iters, row = np.arange(t + 1), np.concatenate([h[:, :, rows[k]] for h in history], axis=1)[:, : t + 1]
            else:
                F[s, k] = values(Qs[s, k : k + 1])[0]
                iters, row = np.array([t]), C[:, s, k : k + 1]
            status = STATUS_NAN if not np.isfinite(F[s, k]) else _STATUSES[rules[:, s, k].argmax()]
            traces[rows[k]] = DescentTrace(iters, *row.copy(), status, Qs[s, k].copy())
        Q, rows = Qs[w][~stopped], rows[~stopped]
        t0 += w
    return traces


def riemannian_gd(objective, q0, cfg, target_basis=None, traced=True):
    """One run from the point q0: the one-row case of riemannian_gd_block,
    with the same objective contract and stop rules, traced by default."""
    return riemannian_gd_block(objective, np.asarray(q0, dtype=float)[None], cfg, target_basis, traced)[0]
