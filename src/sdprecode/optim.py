"""Convex solvers for the minimax precoding designs.

The central object is the homogeneous piecewise-linear objective
``f(x) = max_i c_i^T x`` minimized over the unit box.  Two solution
paths are provided, each stepping at the reciprocal of its gradient's
exact Lipschitz constant:

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
    "NULLSPACE_PARAMS",
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
    """``min_x max_i c_i^T x`` over the unit box ``|x_j| <= 1``, with c_i
    the columns of ``coefficients``, of shape ``(..., n, m)``.

    The solvers reach ``C`` only through the methods below, so any object
    with the same methods can stand in for the dense matrix (see
    :class:`sdprecode.precoder.MarginRows`).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim < 2:
            raise ValueError("coefficients must be at least 2-D (n, m)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    @property
    def batch_shape(self) -> tuple:
        return self.coefficients.shape[:-2]

    @property
    def shape(self) -> tuple:
        """``(n, m)``: variables and columns of one instance."""
        return self.coefficients.shape[-2:]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``C w``, batched: ``(..., m) -> (..., n)``."""
        return np.matmul(self.coefficients, w[..., None])[..., 0]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``C^T x``, the column values ``c_i^T x``: ``(..., n) -> (..., m)``."""
        return _colspace(self.coefficients, x)

    def norm_sq(self):
        """Squared spectral norm of ``C`` per instance."""
        return spectral_norm_sq(self.coefficients)

    def take(self, keep) -> "MinimaxProblem":
        """The instances ``keep`` indexes on the flattened batch axis."""
        c = self.coefficients
        return MinimaxProblem(c.reshape((-1,) + c.shape[-2:])[keep])


@dataclass(frozen=True)
class ApgParams:
    """Step and stopping knobs shared by the solvers.

    ``smoothing`` is the log-sum-exp temperature of the primal path;
    ``regularization`` the Tikhonov weight of the dual path.  The step size
    is the reciprocal Lipschitz constant of the relevant gradient, from the
    exact squared spectral norm.  Momentum is reset whenever the objective
    worsens (adaptive restart).  :func:`min_iq_inf_norm` reads
    ``smoothing`` and ``tol`` as fractions of the peak rail of its input.
    The defaults are the settings of the margin design's dual run
    (``precoder.slp_arrays``); :data:`NULLSPACE_PARAMS` are those of the
    peak-rail minimizer.
    """

    smoothing: float = 0.05
    regularization: float = 0.005
    tol: float = 1e-7
    max_iters: int = 3000

    def __post_init__(self):
        if self.smoothing <= 0 or self.regularization <= 0:
            raise ValueError("smoothing and regularization must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


# The peak-rail minimizer's settings when a caller gives none.
NULLSPACE_PARAMS = ApgParams(smoothing=2e-3, tol=1e-5, max_iters=300)


@dataclass(frozen=True)
class ApgResult:
    x: np.ndarray
    value: np.ndarray          # true piecewise-linear objective at x
    iterations: np.ndarray
    converged: np.ndarray
    restarts: np.ndarray
    # Certified lower bound on the minimax optimum (primal_apg only).
    lp_bound: Optional[np.ndarray] = None


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
    lp_bound: np.ndarray       # certified lower bound on the minimax optimum


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
    return problem.rmatvec(np.asarray(x, dtype=float)).max(axis=-1)


def _lp_bound(y):
    """``-||y||_1`` over the last axis.  With ``y = C w`` for weights ``w``
    on the simplex, every box point has
    ``max_i c_i^T x >= w^T C^T x >= -||y||_1``, so this bounds the minimax
    optimum from below."""
    return -np.abs(y).sum(axis=-1)


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


def spectral_norm_sq(coefficients) -> np.ndarray:
    """Squared spectral norm, batched: the largest eigenvalue of the Gram
    matrix of the smaller side."""
    c = np.asarray(coefficients, dtype=float)
    ct = c.swapaxes(-1, -2)
    gram = ct @ c if c.shape[-1] <= c.shape[-2] else c @ ct
    lam = np.linalg.eigvalsh(gram)[..., -1]
    return lam if lam.ndim else float(lam)


def _apg(x0, step, params: ApgParams, problem, forward, value, grad,
         project):
    """FISTA with adaptive restart, minimizing over a projected set, batched.

    The objective is ``value(forward(problem, x))`` with ``forward`` linear
    in ``x``; ``grad(problem, y)`` is the gradient in ``x`` at the point
    whose image is ``y``.  The loop keeps the image of each iterate and
    extrapolates it with the same momentum as the iterate, which linearity
    allows, so an iteration makes one ``forward`` and one adjoint pass
    (inside ``grad``) and the restart test reads values alone.

    ``x0`` is the ``(..., n)`` feasible start, ``step`` the step size per
    instance and ``project`` maps a point back onto the feasible set.
    ``problem`` holds the per-instance data, with the batch axes of ``x0``,
    or none when every instance shares it (``None`` when there is none);
    ``problem.take(keep)`` restricts it to the instances ``keep`` indexes
    on the flattened batch.  Each instance stops once the iterate moves
    less than ``params.tol`` in the 2-norm, or runs to the cap; momentum
    restarts whenever the objective rises.  A stopped instance leaves the
    working batch, which is compacted whenever its live count halves.
    Instances never mix, so each one's arithmetic does not depend on the
    batch it runs in.  Returns ``(x, iterations, converged, restarts)``.
    """
    lead, n = x0.shape[:-1], x0.shape[-1]
    # Row-major rows: an instance's reductions then run in the same order
    # whatever the layout of x0.
    x = np.ascontiguousarray(x0.reshape(-1, n))
    size = x.shape[0]
    out = x.copy()
    iterations = np.full(size, params.max_iters, dtype=np.int64)
    converged = np.zeros(size, dtype=bool)
    restarts = np.zeros(size, dtype=np.int64)

    narrow = problem is not None and problem.batch_shape != ()
    if narrow:
        problem = problem.take(slice(None))     # one flat batch axis
    step = np.broadcast_to(step, lead).reshape(-1, 1)
    index = np.arange(size)           # flat instance of each working row
    live = np.ones(size, dtype=bool)
    y = forward(problem, x)
    x_ex, y_ex = x, y
    f_cur = value(y)
    t = np.ones(size)
    rs = np.zeros(size, dtype=np.int64)

    for k in range(1, params.max_iters + 1):
        x_new = project(x_ex - step * grad(problem, y_ex))
        y_new = forward(problem, x_new)
        f_new = value(y_new)

        worse = f_new > f_cur
        t = np.where(worse, 1.0, t)
        rs += worse
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = ((t - 1.0) / t_new)[:, None]
        x_ex = x_new + beta * (x_new - x)
        # Where the image is the iterate itself, so is the extrapolation.
        y_ex = x_ex if y_new is x_new else y_new + beta * (y_new - y)

        done = live & (np.linalg.norm(x_new - x, axis=-1) <= params.tol)
        x, y, t, f_cur = x_new, y_new, t_new, f_new
        if not done.any():
            continue
        stop = index[done]
        out[stop] = x[done]
        iterations[stop] = k
        converged[stop] = True
        restarts[stop] = rs[done]
        live &= ~done
        left = np.count_nonzero(live)
        if left == 0:
            break
        if 2 * left <= live.size:
            keep = np.flatnonzero(live)
            x, y, x_ex, y_ex, t, f_cur, rs, step, index = (
                a[keep] for a in (x, y, x_ex, y_ex, t, f_cur, rs, step,
                                  index))
            live = live[keep]
            if narrow:
                problem = problem.take(keep)

    out[index[live]] = x[live]
    restarts[index[live]] = rs[live]
    return (out.reshape(lead + (n,)), iterations.reshape(lead),
            converged.reshape(lead), restarts.reshape(lead))


def primal_apg(problem: MinimaxProblem, params: ApgParams,
               x0: Optional[np.ndarray] = None) -> ApgResult:
    """Accelerated gradient on the smoothed objective with box clipping.

    Starts from ``x0`` (zero when omitted; broadcast to the problem's batch,
    or carrying the batch of a shared problem) and stops per instance once
    the iterate displacement drops below ``params.tol`` in the 2-norm, or
    flags non-convergence at the iteration cap.  Momentum restarts whenever
    the smoothed objective rises.  ``lp_bound`` is :func:`_lp_bound` at the
    softmax weights of ``C^T x / mu`` at the final iterate.
    """
    mu = params.smoothing
    n = problem.shape[0]
    x0 = np.asarray(np.zeros(n) if x0 is None else x0, dtype=float)
    lead = problem.batch_shape or x0.shape[:-1]
    step = mu / np.maximum(problem.norm_sq(), 1e-300)

    x, iterations, converged, restarts = _apg(
        np.broadcast_to(x0, lead + (n,)), step, params, problem,
        lambda p, v: p.rmatvec(v),
        lambda z: _log_sum_exp(z, mu)[0],
        lambda p, z: p.matvec(_log_sum_exp(z, mu)[1]),
        lambda v: np.clip(v, -1.0, 1.0))
    z = problem.rmatvec(x)
    weights = _log_sum_exp(z, mu)[1]
    return ApgResult(x=x, value=z.max(axis=-1),
                     iterations=iterations, converged=converged,
                     restarts=restarts,
                     lp_bound=_lp_bound(problem.matvec(weights)))


def huber(y, tau) -> np.ndarray:
    """Quadratic-to-linear penalty: y^2/(2 tau) inside |y| <= tau, |y| - tau/2 outside.

    Satisfies ``min_{-1<=x<=1} (y x + tau x^2 / 2) = -huber(y, tau)``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    y = np.asarray(y, dtype=float)
    mag = np.abs(y)
    # The quadratic branch everywhere, then the linear one where it holds.
    out = np.multiply(y, y, out=np.empty_like(y))
    out /= 2.0 * tau
    np.subtract(mag, tau / 2.0, out=out, where=mag > tau)
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


def _dual_value(y, tau):
    """Concave dual objective ``g`` at the image ``y = C lam``."""
    return -huber(y, tau).sum(axis=-1)


def _dual_point(y, tau):
    """Box point ``x(lam) = clip(-C lam / tau)``; the dual gradient is
    ``C^T x(lam)``."""
    return np.clip(-y / tau, -1.0, 1.0)


def dual_apg(problem: MinimaxProblem, params: ApgParams) -> DualApgResult:
    """Simplex-constrained APG on the dual of the regularized minimax problem.

    Maximizes ``g(lam) = -sum_i huber((C lam)_i, tau)`` over the unit
    simplex and recovers the box point
    ``x = clip(-C lam / tau)``, which is the unique minimizer of the strongly
    convex inner problem.  ``gap = primal - dual`` at the final iterate is
    nonnegative up to roundoff and shrinks to zero at optimality; it is the
    gap of the regularized problem.  ``lp_bound = -||C lam||_1`` bounds the
    unregularized optimum from below.
    """
    tau = params.regularization
    m = problem.shape[1]
    step = tau / np.maximum(problem.norm_sq(), 1e-300)

    # Maximizing g is minimizing -g; negation is exact, so the iterates are
    # those of ascent on g itself.
    lam, iterations, converged, restarts = _apg(
        np.full(problem.batch_shape + (m,), 1.0 / m), step, params, problem,
        lambda p, v: p.matvec(v),
        lambda y: -_dual_value(y, tau),
        lambda p, y: -p.rmatvec(_dual_point(y, tau)),
        project_simplex)
    y = problem.matvec(lam)
    x = _dual_point(y, tau)
    g_val = _dual_value(y, tau)
    primal = minimax_value(problem, x) + 0.5 * tau * (x * x).sum(axis=-1)
    return DualApgResult(multipliers=lam, x=x, dual_value=g_val,
                         primal_value=primal, gap=primal - g_val,
                         iterations=iterations, converged=converged,
                         restarts=restarts, lp_bound=_lp_bound(y))


def _peak_exp(x, smoothing, buf):
    """Shifted exponentials of the peak-rail log-sum-exp of ``(rows, m)``
    ``x``, whose entries are ``z = [x, -x]``.

    Writes ``exp((z - zmax)/mu)`` into the first rows of the ``(>= rows, 2m)``
    ``buf`` and returns it with ``zmax = max|x|`` and the row sums, both
    ``(rows, 1)``: the steps of :func:`_log_sum_exp` on ``z`` bit for bit,
    without building ``z``, since ``max z = max|x|`` and ``-zmax - x`` is
    ``-x - zmax`` up to the sign of an exact zero, which ``exp`` erases.
    """
    m = x.shape[-1]
    zmax = np.abs(x).max(axis=-1, keepdims=True)
    w = buf[:len(x)]
    np.subtract(x, zmax, out=w[:, :m])
    np.subtract(-zmax, x, out=w[:, m:])
    w /= smoothing
    np.exp(w, out=w)
    return w, zmax, w.sum(axis=-1, keepdims=True)


def _peak_value(x, smoothing, buf):
    """``_log_sum_exp(np.concatenate([x, -x], axis=-1), smoothing)[0]`` bit
    for bit, without the concatenation or the softmax weights."""
    _, zmax, wsum = _peak_exp(x, smoothing, buf)
    return zmax[:, 0] + smoothing * np.log(wsum[:, 0])


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
    controls accuracy.  ``params`` defaults to :data:`NULLSPACE_PARAMS`;
    ``params.smoothing`` (the final temperature) and ``params.tol`` are
    fractions of the largest peak rail of ``r``, so scaling ``r`` scales
    the solution.  ``r`` itself is always a fallback: the returned
    objective never exceeds its peak rail.  Returns ``v`` and
    an :class:`ApgResult` whose ``x`` is the stacked ``v``, with
    ``iterations`` and ``restarts`` summed over the stages and
    ``converged`` from the last one.
    """
    r = np.asarray(r, dtype=complex)
    steering = np.asarray(steering, dtype=complex)
    k, n = steering.shape
    q, upper = np.linalg.qr(np.conj(steering).T)
    diag = np.abs(np.diagonal(upper))
    if diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
        raise ValueError("steering matrix is rank deficient")
    q_conj = np.conj(q)
    # Room for the exponentials of every instance, rows shrinking with the
    # live batch of _apg; value and gradient never hold it at the same time.
    buf = np.empty((int(np.prod(r.shape[:-1])), 4 * n))

    def feasible_grad(x, mu):
        w, _, wsum = _peak_exp(x, mu, buf)
        w /= wsum
        g = unstack_complex(w[:, :2 * n] - w[:, 2 * n:])
        return stack_complex(g - (g @ q_conj) @ q.T)

    rr = stack_complex(r)                         # (..., 2N)
    baseline = np.abs(rr).max(axis=-1)
    scale = float(np.max(baseline)) or 1.0
    if params is None:
        params = NULLSPACE_PARAMS
    # Scale the settings before building the stages: built on the relative
    # values, the stage count differs by roundoff from the pinned outputs'.
    smoothing, tol = params.smoothing * scale, params.tol * scale

    # Smoothing continuation: start coarse (relative to the data scale) and
    # shrink toward the requested temperature, warm-starting each stage.
    stages = [smoothing]
    while stages[-1] < 0.02 * scale:
        stages.append(stages[-1] * 5.0)
    stages.reverse()

    x = rr
    iterations = np.zeros(r.shape[:-1], dtype=np.int64)
    restarts = np.zeros(r.shape[:-1], dtype=np.int64)
    for mu in stages:
        iters = params.max_iters if mu == stages[-1] \
            else max(1, params.max_iters // 2)
        # ||[I; -I]||^2 = 2, and the projector does not raise it; the step
        # is mu/2.04, not mu/2, because the shipped shaving outputs are
        # pinned to it.  The image of an iterate is the iterate itself.
        x, stage_iters, converged, stage_restarts = _apg(
            x, mu / 2.04, replace(params, tol=tol, max_iters=iters), None,
            lambda _, v: v, lambda v: _peak_value(v, mu, buf),
            lambda _, v: feasible_grad(v, mu), lambda v: v)
        iterations += stage_iters
        restarts += stage_restarts

    # Falling back to r whenever the solver did worse keeps the minimized
    # norm at or below the unassisted one on every instance.
    value = np.abs(x).max(axis=-1)
    fallback = value > baseline
    x = np.where(fallback[..., None], rr, x)
    result = ApgResult(x=x, value=np.where(fallback, baseline, value),
                       iterations=iterations, converged=converged,
                       restarts=restarts)
    return unstack_complex(x), result
