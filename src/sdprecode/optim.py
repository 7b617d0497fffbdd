"""Convex solvers for the minimax precoding designs.

The central object is the homogeneous piecewise-linear objective
``f(x) = max_i c_i^T x`` minimized over a symmetric box.  Two solution
paths are provided:

* a primal accelerated projected gradient (APG) on the log-sum-exp smoothing
  of ``f``, with element-wise clipping as the projection, and
* a dual APG on the Tikhonov-regularized problem, which lives on the unit
  simplex in only ``m`` variables and recovers the primal point in closed
  form through a Huber conjugacy identity.

:func:`min_iq_inf_norm` runs the same APG loop on the peak rail of a complex
vector over an affine set, with the gradient projected onto the nullspace
of the constraint matrix.

All solvers are vectorized over leading batch axes: ``coefficients`` may be
``(..., n, m)`` and every returned diagnostic carries the batch shape.
Instances are independent; nothing here holds state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "MinimaxProblem",
    "ApgParams",
    "ApgResult",
    "DualApgResult",
    "stack_complex",
    "unstack_complex",
    "smoothed_objective",
    "minimax_value",
    "spectral_norm_sq",
    "primal_apg",
    "huber",
    "project_simplex",
    "dual_apg",
    "min_iq_inf_norm",
]


@dataclass(frozen=True)
class MinimaxProblem:
    """``min_x max_i c_i^T x`` with c_i the columns of ``coefficients``.

    ``coefficients`` has shape ``(..., n, m)``; ``box`` is the symmetric
    bound on every coordinate of x.
    """

    coefficients: np.ndarray
    box: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim < 2:
            raise ValueError("coefficients must be at least 2-D (n, m)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        if self.box <= 0:
            raise ValueError("box bound must be positive")

    @property
    def batch_shape(self) -> tuple:
        return self.coefficients.shape[:-2]


@dataclass(frozen=True)
class ApgParams:
    """Step and stopping knobs shared by the primal and dual solvers.

    ``smoothing`` is the log-sum-exp temperature of the primal path;
    ``regularization`` the Tikhonov weight of the dual path.  The step size
    is the reciprocal Lipschitz constant of the relevant gradient, using a
    power-iteration estimate of the squared spectral norm inflated by
    ``_NORM_INFLATION`` to stay on the safe side.  Momentum is reset
    whenever the objective worsens (adaptive restart).
    """

    smoothing: float = 0.05
    regularization: float = 0.005
    tol: float = 1e-5
    max_iters: int = 2000

    def __post_init__(self):
        if self.smoothing <= 0 or self.regularization <= 0:
            raise ValueError("smoothing and regularization must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


# Safety factor on squared operator norms: power iteration approaches the
# true value from below.
_NORM_INFLATION = 1.02


@dataclass(frozen=True)
class ApgResult:
    x: np.ndarray
    value: np.ndarray          # true piecewise-linear objective at x
    smoothed_value: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    restarts: np.ndarray


@dataclass(frozen=True)
class DualApgResult:
    multipliers: np.ndarray
    x: np.ndarray
    dual_value: np.ndarray
    primal_value: np.ndarray   # regularized primal objective at the recovered x
    gap: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    restarts: np.ndarray


def stack_complex(z: np.ndarray) -> np.ndarray:
    """Map a complex vector to [Re; Im] along the last axis."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=-1)


def unstack_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`stack_complex`."""
    x = np.asarray(x)
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def _colspace(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """z_i = c_i^T x, batched: (..., m)."""
    return np.matmul(x[..., None, :], c)[..., 0, :]


def minimax_value(problem: MinimaxProblem, x: np.ndarray) -> np.ndarray:
    """Exact objective ``max_i c_i^T x``."""
    return _colspace(problem.coefficients,
                     np.asarray(x, dtype=float)).max(axis=-1)


def _log_sum_exp(z, smoothing):
    """``mu * log(sum_i exp(z_i/mu))`` over the last axis, with max
    subtraction for stability, and its gradient, the softmax weights."""
    zmax = z.max(axis=-1, keepdims=True)
    w = np.exp((z - zmax) / smoothing)
    wsum = w.sum(axis=-1, keepdims=True)
    return zmax[..., 0] + smoothing * np.log(wsum[..., 0]), w / wsum


def smoothed_objective(coefficients, x, smoothing):
    """Log-sum-exp smoothing of the minimax objective and its exact gradient.

    Returns ``(value, gradient)`` with
    ``value = mu * log(sum_i exp(c_i^T x / mu))``; the gradient is the
    softmax-weighted column combination.  The value over-estimates the true
    maximum by at most ``mu * log(m)``.
    """
    c = np.asarray(coefficients, dtype=float)
    value, w = _log_sum_exp(_colspace(c, np.asarray(x, dtype=float)),
                            smoothing)
    return value, np.matmul(c, w[..., None])[..., 0]


def spectral_norm_sq(coefficients, max_iters=200, tol=1e-7) -> np.ndarray:
    """Power-iteration estimate of the squared spectral norm, batched.

    Deterministic ramp start; iterates on the Gram operator of the smaller
    side.  The estimate approaches the true value from below, which is why
    step-size users inflate it slightly.
    """
    c = np.asarray(coefficients, dtype=float)
    n, m = c.shape[-2:]
    lead = c.shape[:-2]
    work_small = m <= n

    dim = m if work_small else n
    v = 1.0 + np.arange(dim) / dim
    v = np.broadcast_to(v / np.linalg.norm(v), lead + (dim,)).copy()

    lam = np.zeros(lead)
    for _ in range(max_iters):
        if work_small:
            w = np.matmul(c, v[..., None])[..., 0]
            lam_new = np.einsum("...n,...n->...", w, w)
            v = np.matmul(w[..., None, :], c)[..., 0, :]
        else:
            w = np.matmul(v[..., None, :], c)[..., 0, :]
            lam_new = np.einsum("...n,...n->...", w, w)
            v = np.matmul(c, w[..., None])[..., 0]
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        v = v / np.maximum(norm, 1e-300)
        if np.all(np.abs(lam_new - lam) <= tol * np.maximum(lam_new, 1e-300)):
            lam = lam_new
            break
        lam = lam_new
    return lam if lam.ndim else float(lam)


def _apg(x0, step, params: ApgParams, value_grad, project):
    """FISTA with adaptive restart, minimizing over a projected set, batched.

    ``x0`` is the ``(..., n)`` feasible start, ``step`` the step size per
    instance, ``value_grad(x)`` returns the objective and its gradient and
    ``project`` maps a point back onto the feasible set.  Each instance
    stops once the iterate moves less than ``params.tol`` in the 2-norm, or
    runs to the cap; momentum restarts whenever the objective rises.
    Returns ``(x, value, iterations, converged, restarts)``.
    """
    lead = x0.shape[:-1]
    step = np.broadcast_to(step, lead)[..., None]
    x = x0
    x_ex = x.copy()
    t = np.ones(lead)
    f_cur, _ = value_grad(x)
    converged = np.zeros(lead, dtype=bool)
    iterations = np.zeros(lead, dtype=np.int64)
    restarts = np.zeros(lead, dtype=np.int64)

    for _ in range(params.max_iters):
        active = ~converged
        if not np.any(active):
            break
        _, grad = value_grad(x_ex)
        x_new = project(x_ex - step * grad)
        x_new = np.where(active[..., None], x_new, x)
        f_new, _ = value_grad(x_new)

        worse = active & (f_new > f_cur)
        t = np.where(worse, 1.0, t)
        restarts += worse
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = ((t - 1.0) / t_new)[..., None]
        x_ex = x_new + beta * (x_new - x)

        shift = np.linalg.norm(x_new - x, axis=-1)
        converged |= active & (shift <= params.tol)
        iterations += active
        x = x_new
        t = t_new
        f_cur = np.where(active, f_new, f_cur)
    return x, f_cur, iterations, converged, restarts


def primal_apg(problem: MinimaxProblem, params: ApgParams,
               x0: Optional[np.ndarray] = None) -> ApgResult:
    """Accelerated gradient on the smoothed objective with box clipping.

    Starts from ``x0`` (zero when omitted) and stops per instance once the
    iterate displacement drops below ``params.tol`` in the 2-norm, or flags
    non-convergence at the iteration cap.  Momentum restarts whenever the
    smoothed objective rises.
    """
    c = problem.coefficients
    mu = params.smoothing
    n = c.shape[-2]
    if x0 is None:
        x0 = np.zeros(problem.batch_shape + (n,))
    lead = np.broadcast_shapes(problem.batch_shape, x0.shape[:-1])

    norm_sq = np.asarray(spectral_norm_sq(c)) * _NORM_INFLATION
    step = mu / np.maximum(norm_sq, 1e-300)

    x = np.broadcast_to(np.asarray(x0, dtype=float), lead + (n,)).copy()
    x, f_cur, iterations, converged, restarts = _apg(
        x, step, params, lambda v: smoothed_objective(c, v, mu),
        lambda v: np.clip(v, -problem.box, problem.box))
    return ApgResult(x=x, value=minimax_value(problem, x), smoothed_value=f_cur,
                     iterations=iterations, converged=converged,
                     restarts=restarts)


def huber(y, tau) -> np.ndarray:
    """Quadratic-to-linear penalty: y^2/(2 tau) inside |y| <= tau, |y| - tau/2 outside.

    Satisfies ``min_{-1<=x<=1} (y x + tau x^2 / 2) = -huber(y, tau)``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    y = np.asarray(y, dtype=float)
    out = np.where(np.abs(y) <= tau, y * y / (2.0 * tau), np.abs(y) - tau / 2.0)
    return out if out.ndim else float(out)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1}, sort-based, batched."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, m + 1)
    positive = u + (1.0 - css) / j > 0.0
    rho = positive.sum(axis=-1)
    theta = (np.take_along_axis(css, rho[..., None] - 1, axis=-1)[..., 0] - 1.0) / rho
    return np.maximum(v - theta[..., None], 0.0)


def _dual_value_and_grad(c, lam, tau):
    """Concave dual objective and gradient; x(lam) is the clipped scaled column mix."""
    y = np.matmul(c, lam[..., None])[..., 0]
    x = np.clip(-y / tau, -1.0, 1.0)
    value = -huber(y, tau).sum(axis=-1)
    grad = np.matmul(x[..., None, :], c)[..., 0, :]
    return value, grad, x


def dual_apg(problem: MinimaxProblem, params: ApgParams) -> DualApgResult:
    """Simplex-constrained APG on the dual of the regularized minimax problem.

    Maximizes ``g(lam) = -sum_i huber((C lam)_i, tau)`` over the unit
    simplex and recovers the box point
    ``x = clip(-C lam / tau)``, which is the unique minimizer of the strongly
    convex inner problem.  ``gap = primal - dual`` at the final iterate is
    nonnegative up to roundoff and shrinks to zero at optimality.
    """
    if problem.box != 1.0:
        raise ValueError("the dual path requires the unit box")
    c = problem.coefficients
    tau = params.regularization
    lead = problem.batch_shape
    m = c.shape[-1]

    norm_sq = np.asarray(spectral_norm_sq(c)) * _NORM_INFLATION
    step = tau / np.maximum(norm_sq, 1e-300)

    def negated(lam):
        # Maximizing g is minimizing -g; negation is exact, so the iterates
        # are those of ascent on g itself.
        value, grad, _ = _dual_value_and_grad(c, lam, tau)
        return -value, -grad

    lam, _, iterations, converged, restarts = _apg(
        np.full(lead + (m,), 1.0 / m), step, params, negated, project_simplex)
    g_val, _, x = _dual_value_and_grad(c, lam, tau)
    primal = minimax_value(problem, x) + 0.5 * tau * (x * x).sum(axis=-1)
    return DualApgResult(multipliers=lam, x=x, dual_value=g_val,
                         primal_value=primal, gap=primal - g_val,
                         iterations=iterations, converged=converged,
                         restarts=restarts)


def min_iq_inf_norm(r: np.ndarray, steering: np.ndarray,
                    params: Optional[ApgParams] = None,
                    ) -> Tuple[np.ndarray, ApgResult]:
    """Minimize the peak rail of ``v`` subject to ``steering @ v = steering @ r``.

    The peak rail is ``max(|Re|, |Im|)`` over the entries.  ``r`` is
    ``(..., N)`` and ``steering`` a full-rank ``(K, N)`` matrix with
    ``K <= N``; leading axes of ``r`` are independent instances sharing it.
    The APG runs on the stacked reals of ``v`` from ``r``, with the
    log-sum-exp of ``[Re v, Im v, -Re v, -Im v]`` as the objective and its
    gradient projected onto the nullspace of ``steering`` (the projector
    comes from one thin QR), so every iterate stays feasible.  A short
    smoothing continuation warm-starts each stage, so the final temperature
    controls accuracy.  ``r`` itself is always a fallback: the returned
    objective never exceeds its peak rail.  Returns ``v`` and the result of
    the last stage, whose ``x`` is the stacked ``v``.
    """
    r = np.asarray(r, dtype=complex)
    steering = np.asarray(steering, dtype=complex)
    k, n = steering.shape
    q, upper = np.linalg.qr(np.conj(steering).T)
    diag = np.abs(np.diagonal(upper))
    if diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
        raise ValueError("steering matrix is rank deficient")
    q_conj = np.conj(q)

    def value_grad(x, mu):
        value, w = _log_sum_exp(np.concatenate([x, -x], axis=-1), mu)
        g = unstack_complex(w[..., :2 * n] - w[..., 2 * n:])
        return value, stack_complex(g - (g @ q_conj) @ q.T)

    rr = stack_complex(r)                         # (..., 2N)
    baseline = np.abs(rr).max(axis=-1)
    scale = float(np.max(baseline)) or 1.0
    if params is None:
        params = ApgParams(smoothing=1e-3 * scale, tol=1e-6 * scale,
                           max_iters=1500)

    # Smoothing continuation: start coarse (relative to the data scale) and
    # shrink toward the requested temperature, warm-starting each stage.
    stages = [params.smoothing]
    while stages[-1] < 0.02 * scale:
        stages.append(stages[-1] * 5.0)
    stages.reverse()

    x = rr
    for mu in stages:
        iters = params.max_iters if mu == stages[-1] \
            else max(1, params.max_iters // 2)
        # ||[I; -I]||^2 = 2, and the projector does not raise it.
        x, f_cur, iterations, converged, restarts = _apg(
            x, mu / (2.0 * _NORM_INFLATION), replace(params, max_iters=iters),
            lambda v: value_grad(v, mu), lambda v: v)

    # Falling back to r whenever the solver did worse keeps the minimized
    # norm at or below the unassisted one on every instance.
    value = np.abs(x).max(axis=-1)
    fallback = value > baseline
    x = np.where(fallback[..., None], rr, x)
    result = ApgResult(x=x, value=np.where(fallback, baseline, value),
                       smoothed_value=f_cur, iterations=iterations,
                       converged=converged, restarts=restarts)
    return unstack_complex(x), result
