"""Convex solvers for the minimax precoding designs.

The central object is a piecewise-linear objective
``f(x) = max_i (c_i^T x + d_i)`` minimized over a box (or unconstrained).
Two solution paths are provided:

* a primal accelerated projected gradient (APG) on the log-sum-exp smoothing
  of ``f``, with element-wise clipping as the projection, and
* a dual APG on the Tikhonov-regularized problem, which lives on the unit
  simplex in only ``m`` variables and recovers the primal point in closed
  form through a Huber conjugacy identity.

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
    "stacked_real_basis",
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
    """``min_x max_i (c_i^T x + d_i)`` with c_i the columns of ``coefficients``.

    ``coefficients`` has shape ``(..., n, m)``; ``offsets`` is ``(..., m)`` or
    None for the homogeneous case.  ``box`` is the symmetric bound on every
    coordinate of x, or None for an unconstrained problem.
    """

    coefficients: np.ndarray
    offsets: Optional[np.ndarray] = None
    box: Optional[float] = 1.0

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim < 2:
            raise ValueError("coefficients must be at least 2-D (n, m)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        if self.offsets is not None:
            d = np.asarray(self.offsets, dtype=float)
            if d.shape[-1] != c.shape[-1]:
                raise ValueError("offsets length must match the column count")
            object.__setattr__(self, "offsets", d)
        if self.box is not None and self.box <= 0:
            raise ValueError("box bound must be positive")

    @property
    def batch_shape(self) -> tuple:
        lead = self.coefficients.shape[:-2]
        if self.offsets is not None:
            lead = np.broadcast_shapes(lead, self.offsets.shape[:-1])
        return lead


@dataclass(frozen=True)
class ApgParams:
    """Step and stopping knobs shared by the primal and dual solvers.

    ``smoothing`` is the log-sum-exp temperature of the primal path;
    ``regularization`` the Tikhonov weight of the dual path.  The step size
    is the reciprocal Lipschitz constant of the relevant gradient, using a
    power-iteration estimate of the squared spectral norm inflated by
    ``norm_inflation`` to stay on the safe side.  Momentum is reset whenever
    the objective worsens (adaptive restart).
    """

    smoothing: float = 0.05
    regularization: float = 0.005
    tol: float = 1e-5
    max_iters: int = 2000
    restart: bool = True
    norm_inflation: float = 1.02

    def __post_init__(self):
        if self.smoothing <= 0 or self.regularization <= 0:
            raise ValueError("smoothing and regularization must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def stacked_real_basis(b: np.ndarray) -> np.ndarray:
    """Real 2N x 2M block matrix acting as ``b`` does on stacked vectors."""
    b = np.asarray(b, dtype=complex)
    top = np.concatenate([b.real, -b.imag], axis=-1)
    bot = np.concatenate([b.imag, b.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _colspace(c: np.ndarray, x: np.ndarray, offsets) -> np.ndarray:
    """z_i = c_i^T x + d_i, batched: (..., m)."""
    if c.ndim == 2 and x.ndim > 1:
        # Shared coefficients across instances: one big product beats a
        # broadcasted loop of vector-matrix calls.
        z = (x.reshape(-1, x.shape[-1]) @ c).reshape(x.shape[:-1] + (c.shape[-1],))
    else:
        z = np.matmul(x[..., None, :], c)[..., 0, :]
    if offsets is not None:
        z = z + offsets
    return z


def _combine(c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i c_i, batched: (..., n)."""
    if c.ndim == 2 and weights.ndim > 1:
        flat = weights.reshape(-1, weights.shape[-1]) @ c.T
        return flat.reshape(weights.shape[:-1] + (c.shape[-2],))
    return np.matmul(c, weights[..., None])[..., 0]


def minimax_value(problem: MinimaxProblem, x: np.ndarray) -> np.ndarray:
    """Exact objective ``max_i (c_i^T x + d_i)``."""
    return _colspace(problem.coefficients, np.asarray(x, dtype=float),
                     problem.offsets).max(axis=-1)


def smoothed_objective(coefficients, x, smoothing, offsets=None):
    """Log-sum-exp smoothing of the minimax objective and its exact gradient.

    Returns ``(value, gradient)`` with
    ``value = mu * log(sum_i exp((c_i^T x + d_i)/mu))`` computed with max
    subtraction for stability; the gradient is the softmax-weighted column
    combination.  The value over-estimates the true maximum by at most
    ``mu * log(m)``.
    """
    c = np.asarray(coefficients, dtype=float)
    x = np.asarray(x, dtype=float)
    z = _colspace(c, x, offsets)
    zmax = z.max(axis=-1, keepdims=True)
    w = np.exp((z - zmax) / smoothing)
    wsum = w.sum(axis=-1, keepdims=True)
    value = zmax[..., 0] + smoothing * np.log(wsum[..., 0])
    grad = _combine(c, w / wsum)
    return value, grad


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


def _clip_box(x, box):
    if box is None:
        return x
    return np.clip(x, -box, box)


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

        if params.restart:
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
               x0: Optional[np.ndarray] = None,
               norm_sq: Optional[np.ndarray] = None) -> ApgResult:
    """Accelerated gradient on the smoothed objective with box clipping.

    Starts from ``x0`` (zero when omitted) and stops per instance once the
    iterate displacement drops below ``params.tol`` in the 2-norm, or flags
    non-convergence at the iteration cap.  Momentum restarts whenever the
    smoothed objective rises.  ``norm_sq`` may carry a precomputed squared
    spectral norm (e.g. across warm-started re-solves of one problem).
    """
    c = problem.coefficients
    d = problem.offsets
    mu = params.smoothing
    n = c.shape[-2]
    if x0 is None:
        x0 = np.zeros(problem.batch_shape + (n,))
    lead = np.broadcast_shapes(problem.batch_shape, x0.shape[:-1])

    if norm_sq is None:
        norm_sq = np.asarray(spectral_norm_sq(c))
    norm_sq = np.asarray(norm_sq) * params.norm_inflation
    step = mu / np.maximum(norm_sq, 1e-300)

    x = np.broadcast_to(np.asarray(x0, dtype=float), lead + (n,)).copy()
    x, f_cur, iterations, converged, restarts = _apg(
        x, step, params, lambda v: smoothed_objective(c, v, mu, d),
        lambda v: _clip_box(v, problem.box))
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


def _dual_value_and_grad(c, d, lam, tau):
    """Concave dual objective and gradient; x(lam) is the clipped scaled column mix."""
    y = np.matmul(c, lam[..., None])[..., 0]
    x = np.clip(-y / tau, -1.0, 1.0)
    value = -huber(y, tau).sum(axis=-1)
    grad = np.matmul(x[..., None, :], c)[..., 0, :]
    if d is not None:
        value = value + (lam * d).sum(axis=-1)
        grad = grad + d
    return value, grad, x


def dual_apg(problem: MinimaxProblem, params: ApgParams) -> DualApgResult:
    """Simplex-constrained APG on the dual of the regularized minimax problem.

    Maximizes ``g(lam) = -sum_i huber((C lam)_i, tau)`` (plus the offset term
    when present) over the unit simplex and recovers the box point
    ``x = clip(-C lam / tau)``, which is the unique minimizer of the strongly
    convex inner problem.  ``gap = primal - dual`` at the final iterate is
    nonnegative up to roundoff and shrinks to zero at optimality.
    """
    if problem.box is None or problem.box != 1.0:
        raise ValueError("the dual path requires the unit box")
    c = problem.coefficients
    d = problem.offsets
    tau = params.regularization
    lead = problem.batch_shape
    m = c.shape[-1]

    norm_sq = np.asarray(spectral_norm_sq(c)) * params.norm_inflation
    step = tau / np.maximum(norm_sq, 1e-300)

    def negated(lam):
        # Maximizing g is minimizing -g; negation is exact, so the iterates
        # are those of ascent on g itself.
        value, grad, _ = _dual_value_and_grad(c, d, lam, tau)
        return -value, -grad

    lam, _, iterations, converged, restarts = _apg(
        np.full(lead + (m,), 1.0 / m), step, params, negated, project_simplex)
    g_val, _, x = _dual_value_and_grad(c, d, lam, tau)
    primal = minimax_value(problem, x) + 0.5 * tau * (x * x).sum(axis=-1)
    return DualApgResult(multipliers=lam, x=x, dual_value=g_val,
                         primal_value=primal, gap=primal - g_val,
                         iterations=iterations, converged=converged,
                         restarts=restarts)


def min_iq_inf_norm(r: np.ndarray, basis: np.ndarray,
                    params: Optional[ApgParams] = None,
                    ) -> Tuple[np.ndarray, ApgResult]:
    """Minimize ``max(|Re|, |Im|)`` of ``r + basis @ xi`` over complex ``xi``.

    ``r`` is ``(..., N)`` and ``basis`` ``(N, M)`` with orthonormal columns;
    leading axes of ``r`` are independent instances sharing the basis.  The
    problem is restated as an unconstrained affine minimax over stacked reals
    and handed to the smoothed APG, warm-started through a short smoothing
    continuation so the final temperature controls accuracy.  The zero point
    is always a fallback: the returned objective never exceeds the norm of
    ``r`` itself.
    """
    r = np.asarray(r, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    n_free = basis.shape[-1]
    baseline = np.maximum(np.abs(r.real), np.abs(r.imag)).max(axis=-1)
    if n_free == 0:
        zero = np.zeros(r.shape[:-1] + (0,), dtype=complex)
        dummy = np.zeros(r.shape[:-1])
        return zero, ApgResult(
            x=np.zeros(r.shape[:-1] + (0,)), value=baseline,
            smoothed_value=baseline, iterations=dummy.astype(np.int64),
            converged=np.ones(r.shape[:-1], dtype=bool),
            restarts=dummy.astype(np.int64))

    g = stacked_real_basis(basis)                 # (2N, 2M)
    rr = stack_complex(r)                         # (..., 2N)
    c = np.concatenate([g.T, -g.T], axis=-1)      # (2M, 4N)
    offsets = np.concatenate([rr, -rr], axis=-1)  # (..., 4N)

    scale = float(np.max(np.abs(rr))) or 1.0
    if params is None:
        params = ApgParams(smoothing=1e-3 * scale, tol=1e-6 * scale,
                           max_iters=1500)

    # Smoothing continuation: start coarse (relative to the data scale) and
    # shrink toward the requested temperature, warm-starting each stage.
    stages = [params.smoothing]
    while stages[-1] < 0.02 * scale:
        stages.append(stages[-1] * 5.0)
    stages.reverse()
    problem = MinimaxProblem(coefficients=c, offsets=offsets, box=None)

    x0 = np.zeros(offsets.shape[:-1] + (2 * n_free,))
    norm_sq = spectral_norm_sq(c)
    result = None
    for mu in stages:
        iters = params.max_iters if mu == stages[-1] \
            else max(1, params.max_iters // 2)
        result = primal_apg(problem, replace(params, smoothing=mu,
                                             max_iters=iters),
                            x0, norm_sq=norm_sq)
        x0 = result.x

    # Falling back to xi = 0 whenever the solver did worse keeps the
    # minimized norm at or below the unassisted one on every instance.
    use_zero = result.value > baseline
    x = np.where(use_zero[..., None], 0.0, result.x)
    result = replace(result, x=x,
                     value=np.where(use_zero, baseline, result.value))
    xi = x[..., :n_free] + 1j * x[..., n_free:]
    return xi, result
