"""Riemannian gradient descent on the sphere: one lockstep engine for a block
of starts, with optional per-iteration tracing."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import START_NORM_TOL
from .sphere import exp_map

STATUS_BALL = "ball_entered"
STATUS_GRAD = "grad_tol"
STATUS_MAX = "max_iters"
STATUS_NAN = "aborted_nan"


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
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class DescentConfig:
    eta: float
    max_iters: int
    stop_grad_tol: float = 0.0
    stop_ball: Optional[BallStop] = None

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stop_grad_tol < 0.0:
            raise ValueError("stop_grad_tol must be >= 0")


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


def recovery_error(q, instance):
    """Distance from q to the nearest signed column of the instance's ground
    truth dictionary.  Returns (signed 1-based column index, L2 error)."""
    q = np.asarray(q, dtype=float)
    corr = instance.A0.T @ q
    j = int(np.argmax(np.abs(corr)))
    s = 1.0 if corr[j] >= 0.0 else -1.0
    err = float(np.linalg.norm(q - s * instance.A0[:, j]))
    return int(s) * (j + 1), err


# Traced runs record history in chunks of this many steps: growing a run
# copies nothing, and at most one chunk is slack.
_CHUNK = 1024


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

    Stop rules are evaluated at each iterate before stepping, in the order
    non-finite, grad_tol, ball, max_iters, so a run started at a critical point
    terminates immediately.  A non-finite gradient, or a non-finite value at a
    recorded iterate, aborts the row with status "aborted_nan"; nothing is
    clamped.  A row leaves the block when it stops; rows never interact, so
    each row's trace equals that of a one-row block bit for bit.

    Returns one DescentTrace per row.
    """
    Q = np.array(q0, dtype=float, ndmin=2)
    if np.any(np.abs(np.sqrt(np.vecdot(Q, Q)) - 1.0) > START_NORM_TOL):
        raise ValueError("q0 must have unit norm")
    R = None if target_basis is None else np.asarray(target_basis, dtype=float)
    ball, tol = cfg.stop_ball, cfg.stop_grad_tol

    rows = np.arange(len(Q))  # caller's row index of each row still running
    traces = [None] * len(Q)
    chunks = []  # traced: per step and row, value, gradient norm, top and second |coordinate|
    for t in range(cfg.max_iters + 1):
        f, G = objective(Q, value=traced)
        gn = np.sqrt(np.vecdot(G, G))
        ab = np.sort(np.abs(Q if R is None else (R.T @ Q.T).T), axis=-1)
        top, second = ab[:, -1], ab[:, -2]
        if traced:
            if t % _CHUNK == 0:
                chunks.append(np.empty((4, _CHUNK, len(traces))))
            for col, v in zip(chunks[-1], (f, gn, top, second)):
                col[t % _CHUNK][rows] = v

        go = np.isfinite(gn) & (gn > tol)
        if traced:
            go &= np.isfinite(f)
        if ball is not None:
            go &= ~_entered_ball(top, second, ball)
        if t == cfg.max_iters:
            go[:] = False
        if np.count_nonzero(go) < go.size:
            stop = np.flatnonzero(~go)
            vals = f[stop] if traced else objective(Q[stop])[0]
            for k, val in zip(stop, vals):
                if not (np.isfinite(val) and np.isfinite(gn[k])):
                    status = STATUS_NAN
                elif gn[k] <= tol:
                    status = STATUS_GRAD
                elif ball is not None and _entered_ball(top[k], second[k], ball):
                    status = STATUS_BALL
                else:
                    status = STATUS_MAX
                if traced:
                    cols = np.concatenate([c[:, :, rows[k]] for c in chunks], axis=1)[:, : t + 1]
                    iters, cols = np.arange(t + 1), cols.copy()
                else:
                    iters, cols = np.array([t]), np.array([[val], [gn[k]], [top[k]], [second[k]]])
                traces[rows[k]] = _trace(iters, cols, status, Q[k].copy())
            Q, G, rows = Q[go], G[go], rows[go]
            if not rows.size:
                break
        Q = exp_map(Q, -cfg.eta * G)
    return traces


def riemannian_gd(objective, q0, cfg, target_basis=None, traced=True):
    """One run from the point q0: the one-row case of riemannian_gd_block,
    with the same objective contract and stop rules, traced by default."""
    return riemannian_gd_block(objective, np.asarray(q0, dtype=float)[None], cfg, target_basis, traced)[0]
