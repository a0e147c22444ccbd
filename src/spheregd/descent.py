"""Riemannian gradient descent on the sphere: one lockstep engine for a block
of starts, with optional per-iteration tracing."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sphere import exp_map

STATUS_BALL = "ball_entered"
STATUS_GRAD = "grad_tol"
STATUS_MAX = "max_iters"
STATUS_NAN = "aborted_nan"

START_NORM_TOL = 1e-9  # accepted deviation of a start point's norm from 1


@dataclass(frozen=True)
class BallStop:
    """Stop once the section-mapped iterate enters a chart ball.

    norm: "linf" or "l2" on the chart vector of the canonicalized iterate,
    measured in the run frame (the target basis when one is supplied to
    riemannian_gd, identity otherwise), so the ball is around the nearest
    signed target.
    """

    norm: str = "linf"
    radius: float = 0.0

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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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


def _entered_ball(top, second, ball):
    # top = largest |coordinate| of the frame-rotated iterate, second = next one;
    # in chart terms second = ||w||_inf and sqrt(1 - top^2) = ||w||_2.
    if ball.norm == "linf":
        return second < ball.radius
    return np.sqrt(np.fmax(0.0, 1.0 - top * top)) < ball.radius


def _trace(iters, cols, status, q):
    """DescentTrace from the recorded columns (value, gradient norm, largest
    and second largest |coordinate| in the run frame)."""
    f, gn, top, second = cols
    zeta = np.divide(top, second, out=np.full(second.shape, np.inf), where=second != 0.0) - 1.0
    dist = np.sqrt(np.fmax(0.0, 2.0 - 2.0 * top))
    return DescentTrace(iters, f, gn, zeta, second, dist, status, q)


def riemannian_gd_block(objective, q0, cfg, target_basis=None, traced=False):
    """Iterate q <- exp_q(-eta * grad f(q)) on every row of the (B, n) block q0
    in lockstep, until a stop rule fires for the row.

    objective: callable (Q, value=True) -> (values, Riemannian gradients) on a
    (B, n) block, one point per row; with value=False the values may be None.
    target_basis: optional orthogonal matrix whose signed columns are the
    targets; section statistics and any ball stop are computed in that frame.
    traced: keep every iterate's statistics.  Untraced, each row's trace holds
    only its last iterate and the value is computed there alone.

    Stop rules are checked once per window of _WINDOW steps but mean the same
    per step: a row stops at its first iterate where one fires, in the order
    non-finite, grad_tol, ball, max_iters (so a run started at a critical point
    terminates immediately), and its steps past that iterate are discarded.
    A non-finite gradient, or a non-finite value at a recorded iterate, aborts
    the row with status "aborted_nan"; nothing is clamped.  A row leaves the
    block when it stops; rows never interact, so each row's trace equals that
    of a one-row block bit for bit.

    Returns one DescentTrace per row.
    """
    Q = np.array(q0, dtype=float, ndmin=2)
    if np.any(np.abs(np.sqrt(np.vecdot(Q, Q)) - 1.0) > START_NORM_TOL):
        raise ValueError("q0 must have unit norm")
    R = None if target_basis is None else np.asarray(target_basis, dtype=float)
    ball, tol = cfg.stop_ball, cfg.stop_grad_tol

    rows = np.arange(len(Q))  # caller's row index of each row still running
    traces = [None] * len(Q)
    history = []  # traced: per window, value, gradient norm, top and second |coordinate| of each caller row
    t0 = 0  # iteration of the window's first step
    while rows.size:
        w = min(_WINDOW, cfg.max_iters + 1 - t0)
        Qs, Gs = np.empty((2, w) + Q.shape)  # per step: iterate, gradient
        As, F = (Qs if R is None else np.empty_like(Qs)), np.empty((w, len(rows)))
        with np.errstate(invalid="ignore", over="ignore"):  # a stopped row may step on to non-finite values
            for s in range(w):
                Qs[s] = Q
                if R is not None:
                    As[s] = (R.T @ Q.T).T
                F[s], Gs[s] = objective(Q, value=traced)  # untraced, the value None reads as NaN, unused
                Q = exp_map(Q, -cfg.eta * Gs[s])
        gn = np.sqrt(np.vecdot(Gs, Gs))
        ab = np.sort(np.abs(As), axis=-1)
        top, second = ab[..., -1], ab[..., -2]
        go = np.isfinite(gn) & (gn > tol)
        if traced:
            go &= np.isfinite(F)
            history.append(np.empty((4, w, len(traces))))
            history[-1][:, :, rows] = F, gn, top, second
        if ball is not None:
            go &= ~_entered_ball(top, second, ball)
        if t0 + w > cfg.max_iters:
            go[-1] = False
        at, stopped = np.argmin(go, axis=0), ~go.all(axis=0)  # each row's first stop in the window
        for s in np.unique(at[stopped]).tolist():
            stop = np.flatnonzero(stopped & (at == s))
            t = t0 + s
            vals = F[s, stop] if traced else objective(Qs[s, stop])[0]
            for k, val in zip(stop, vals):
                status = (STATUS_NAN if not (np.isfinite(val) and np.isfinite(gn[s, k]))
                          else STATUS_GRAD if gn[s, k] <= tol
                          else STATUS_BALL if ball is not None and _entered_ball(top[s, k], second[s, k], ball)
                          else STATUS_MAX)
                if traced:
                    cols = np.concatenate([h[:, :, rows[k]] for h in history], axis=1)[:, : t + 1]
                    iters, cols = np.arange(t + 1), cols.copy()
                else:
                    iters, cols = np.array([t]), np.array([[val], [gn[s, k]], [top[s, k]], [second[s, k]]])
                traces[rows[k]] = _trace(iters, cols, status, Qs[s, k].copy())
        Q, rows = Q[~stopped], rows[~stopped]
        t0 += w
    return traces


def riemannian_gd(objective, q0, cfg, target_basis=None, traced=True):
    """One run from the point q0: the one-row case of riemannian_gd_block,
    with the same objective contract and stop rules, traced by default."""
    return riemannian_gd_block(objective, np.asarray(q0, dtype=float)[None], cfg, target_basis, traced)[0]
