"""Riemannian gradient descent on the sphere with per-iteration tracing."""

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
    """Per-iteration record of one descent run.

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


def section_map(q):
    """Map q into its canonical section: the largest-|coordinate| moves to the
    last position with positive sign.

    Returns (chart vector of the canonical point, signed 1-based index of the
    coordinate that became the section representative).  Ties in magnitude go
    to the smallest index.
    """
    q = np.asarray(q, dtype=float)
    j = int(np.argmax(np.abs(q)))
    s = 1.0 if q[j] >= 0.0 else -1.0
    canon = s * np.concatenate([np.delete(q, j), [q[j]]])
    return canon[:-1], int(s) * (j + 1)


def recovery_error(q, instance):
    """Distance from q to the nearest signed column of the instance's ground
    truth dictionary.  Returns (signed 1-based column index, L2 error)."""
    q = np.asarray(q, dtype=float)
    corr = instance.A0.T @ q
    j = int(np.argmax(np.abs(corr)))
    s = 1.0 if corr[j] >= 0.0 else -1.0
    err = float(np.linalg.norm(q - s * instance.A0[:, j]))
    return int(s) * (j + 1), err


def _entered_ball(top, second, ball):
    # top = largest |coordinate| of the frame-rotated iterate, second = next one;
    # in chart terms second = ||w||_inf and sqrt(1 - top^2) = ||w||_2.
    if ball.norm == "linf":
        return second < ball.radius
    return np.sqrt(max(0.0, 1.0 - top * top)) < ball.radius


def riemannian_gd(objective, q0, cfg, target_basis=None):
    """Iterate q <- exp_q(-eta * grad f(q)) until a stop rule fires.

    objective: callable q -> (value, Riemannian gradient).
    target_basis: optional orthogonal matrix whose signed columns are the
    targets; section statistics and any ball stop are computed in that frame.

    Stop rules are evaluated at each iterate before stepping, so a run started
    at a critical point terminates immediately.  A non-finite value or
    gradient aborts the run with status "aborted_nan"; nothing is clamped.
    """
    q = np.asarray(q0, dtype=float).copy()
    if abs(np.linalg.norm(q) - 1.0) > START_NORM_TOL:
        raise ValueError("q0 must have unit norm")
    R = None
    if target_basis is not None:
        R = np.asarray(target_basis, dtype=float)
    ball = cfg.stop_ball

    it_l, f_l, g_l, z_l, wi_l, d_l = [], [], [], [], [], []
    status = STATUS_MAX
    for t in range(cfg.max_iters + 1):
        val, grad = objective(q)
        gn = float(np.linalg.norm(grad))

        qa = q if R is None else R.T @ q
        ab = np.abs(qa)
        j = int(np.argmax(ab))
        top = float(ab[j])
        ab[j] = -1.0
        second = float(ab.max())

        it_l.append(t)
        f_l.append(val)
        g_l.append(gn)
        z_l.append(np.inf if second == 0.0 else top / second - 1.0)
        wi_l.append(second)
        d_l.append(float(np.sqrt(max(0.0, 2.0 - 2.0 * top))))

        if not (np.isfinite(val) and np.isfinite(gn)):
            status = STATUS_NAN
            break
        if gn <= cfg.stop_grad_tol:
            status = STATUS_GRAD
            break
        if ball is not None and _entered_ball(top, second, ball):
            status = STATUS_BALL
            break
        if t == cfg.max_iters:
            status = STATUS_MAX
            break
        q = exp_map(q, -cfg.eta * grad)

    return DescentTrace(
        iters=np.array(it_l, dtype=int),
        f=np.array(f_l),
        grad_norm=np.array(g_l),
        zeta=np.array(z_l),
        w_inf=np.array(wi_l),
        dist_target=np.array(d_l),
        status=status,
        q_final=q,
    )
