"""Solvers: smoothing, gradients, projections, duality, and LP cross-checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sdprecode import optim
from sdprecode.optim import (
    ApgParams,
    MinimaxProblem,
    dual_apg,
    huber,
    min_iq_inf_norm,
    minimax_value,
    primal_apg,
    project_simplex,
    smoothed_objective,
    spectral_norm_sq,
    stack_complex,
    unstack_complex,
)


def lp_box_minimax(coeffs):
    """HiGHS oracle for min over the unit box of max_i c_i^T x."""
    n, m = coeffs.shape
    a_ub = np.hstack([coeffs.T, -np.ones((m, 1))])
    res = linprog(c=[0.0] * n + [1.0], A_ub=a_ub, b_ub=np.zeros(m),
                  bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs")
    assert res.success
    return res.fun, res.x[:n]


def lp_min_iq_inf_norm(r, steering):
    """HiGHS oracle for min max(|Re v|, |Im v|) s.t. steering @ v = steering @ r,
    over the stacked reals of v and the peak t."""
    n = r.size
    real = np.block([[steering.real, -steering.imag],
                     [steering.imag, steering.real]])
    eye = np.eye(2 * n)
    ones = np.ones((2 * n, 1))
    a_ub = np.block([[eye, -ones], [-eye, -ones]])
    a_eq = np.hstack([real, np.zeros((real.shape[0], 1))])
    res = linprog(c=[0.0] * (2 * n) + [1.0], A_ub=a_ub, b_ub=np.zeros(4 * n),
                  A_eq=a_eq, b_eq=real @ stack_complex(r),
                  bounds=[(None, None)] * (2 * n + 1), method="highs")
    assert res.success
    return res.fun


def simplex_projection_oracle(v):
    """Active-set enumeration of the KKT system for the simplex projection."""
    m = len(v)
    best, best_d = None, np.inf
    for support in range(1, m + 1):
        for subset in itertools.combinations(range(m), support):
            idx = list(subset)
            w = np.zeros(m)
            shift = (np.sum(v[idx]) - 1.0) / support
            w[idx] = v[idx] - shift
            if np.any(w[idx] < -1e-12):
                continue
            d = np.sum((w - v) ** 2)
            if d < best_d - 1e-15:
                best, best_d = w, d
    return best


class TestSmoothedObjective:
    def test_single_column_is_exact(self):
        c = np.array([[1.0], [-2.0], [0.5]])
        x = np.array([0.3, 0.1, -0.9])
        val, grad = smoothed_objective(c, x, 0.05)
        np.testing.assert_allclose(val, c[:, 0] @ x, atol=1e-12)
        np.testing.assert_allclose(grad, c[:, 0], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(12, 8))
        x = rng.normal(size=12)
        mu = 0.05
        _, grad = smoothed_objective(c, x, mu)
        eps = 1e-6
        for i in range(12):
            e = np.zeros(12)
            e[i] = eps
            fp, _ = smoothed_objective(c, x + e, mu)
            fm, _ = smoothed_objective(c, x - e, mu)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_sandwich_bound(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=(10, 6))
        prob = MinimaxProblem(coefficients=c)
        for mu in (0.01, 0.1, 1.0):
            for _ in range(20):
                x = rng.normal(size=10)
                f = minimax_value(prob, x)
                fh, _ = smoothed_objective(c, x, mu)
                assert f <= fh + 1e-12
                assert fh <= f + mu * math.log(c.shape[1]) + 1e-12

    def test_stability_at_large_scale(self):
        c = 1e6 * np.ones((2, 3))
        val, grad = smoothed_objective(c, np.array([1.0, 1.0]), 1e-3)
        assert np.isfinite(val) and np.all(np.isfinite(grad))


def _top_singular_sq(c):
    return np.linalg.svd(c, compute_uv=False)[..., 0] ** 2


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_sq(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 3.0])
        est = spectral_norm_sq(np.outer(u, v))
        np.testing.assert_allclose(est, (u @ u) * (v @ v), rtol=1e-10)

    def test_random_vs_svd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = rng.normal(size=(64, 16))
            np.testing.assert_allclose(spectral_norm_sq(c),
                                       _top_singular_sq(c), rtol=1e-10)

    def test_wide_vs_svd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = rng.normal(size=(6, 40))
            np.testing.assert_allclose(spectral_norm_sq(c),
                                       _top_singular_sq(c), rtol=1e-10)

    def test_batched(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(5, 20, 7))
        np.testing.assert_allclose(spectral_norm_sq(c), _top_singular_sq(c),
                                   rtol=1e-10)


class TestHuber:
    def test_values(self):
        assert huber(0.0, 0.5) == 0.0
        assert huber(0.5, 0.5) == pytest.approx(0.25)   # both branches agree
        assert huber(3.0, 1.0) == pytest.approx(2.5)

    def test_variational_identity_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        ys = np.linspace(-5.0, 5.0, 10001)
        for tau in (0.005, 0.1, 1.0):
            vals = np.min(ys[:, None] * xs[None, :]
                          + tau * xs[None, :] ** 2 / 2.0, axis=1)
            np.testing.assert_allclose(vals, -huber(ys, tau), atol=5e-6)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            huber(1.0, 0.0)

    @pytest.mark.parametrize("tau", [0.005, 0.1, 0.5, 1.0])
    def test_bits_of_the_two_branch_formula(self, tau):
        ys = np.concatenate([np.linspace(-3.0, 3.0, 6001),
                             [tau, -tau, np.nextafter(tau, 0.0),
                              np.nextafter(tau, 1.0), 0.0, -0.0]])
        ref = np.where(np.abs(ys) <= tau, ys * ys / (2.0 * tau),
                       np.abs(ys) - tau / 2.0)
        assert huber(ys, tau).tobytes() == ref.tobytes()


class TestProjectSimplex:
    def test_fixed_points_and_known_cases(self):
        np.testing.assert_allclose(project_simplex(np.array([0.2, 0.3, 0.5])),
                                   [0.2, 0.3, 0.5], atol=1e-15)
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])),
                                   [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(project_simplex(np.array([0.3, 0.1])),
                                   [0.6, 0.4], atol=1e-12)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(100, 9))
        w = project_simplex(v)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    def test_against_kkt_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            v = rng.normal(scale=2.0, size=5)
            np.testing.assert_allclose(project_simplex(v),
                                       simplex_projection_oracle(v),
                                       atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_projection_property(self, vals):
        v = np.array(vals)
        w = project_simplex(v)
        assert np.all(w >= -1e-12)
        assert abs(w.sum() - 1.0) < 1e-9
        # No feasible point (sampled crudely) may be closer than the projection.
        rng = np.random.default_rng(0)
        cand = project_simplex(rng.normal(size=(50, v.size)))
        d_proj = np.sum((w - v) ** 2)
        d_cand = np.sum((cand - v) ** 2, axis=1)
        assert np.all(d_proj <= d_cand + 1e-9)


class TestPrimalApg:
    def test_linear_objective_hits_box_corner(self):
        c = np.array([[2.0], [-1.0], [0.5]])
        prob = MinimaxProblem(coefficients=c)
        res = primal_apg(prob, ApgParams(smoothing=1e-3, tol=1e-10,
                                         max_iters=3000))
        np.testing.assert_allclose(res.x, [-1.0, 1.0, -1.0], atol=1e-6)

    def test_matches_lp_oracle_small(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = rng.normal(size=(8, 6))
            prob = MinimaxProblem(coefficients=c)
            f_lp, _ = lp_box_minimax(c)
            res = None
            x0 = None
            for mu in (0.3, 0.1, 0.03, 0.01, 0.003):
                res = primal_apg(prob, ApgParams(smoothing=mu, tol=1e-9,
                                                 max_iters=3000), x0)
                x0 = res.x
            assert res.value - f_lp <= 1e-3 * (1.0 + abs(f_lp))
            assert np.abs(res.x).max() <= 1.0 + 1e-12

    def test_iterates_feasible_and_value_consistent(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(20, 10))
        prob = MinimaxProblem(coefficients=c)
        res = primal_apg(prob, ApgParams(smoothing=0.05, tol=1e-7,
                                         max_iters=500))
        assert np.abs(res.x).max() <= 1.0
        f0 = minimax_value(prob, np.zeros(20))
        assert res.value <= f0

    def test_batched_instances_independent(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(4, 12, 6))
        prob = MinimaxProblem(coefficients=c)
        res = primal_apg(prob, ApgParams(smoothing=0.01, tol=1e-8,
                                         max_iters=2000))
        for i in range(4):
            single = primal_apg(MinimaxProblem(coefficients=c[i]),
                                ApgParams(smoothing=0.01, tol=1e-8,
                                          max_iters=2000))
            np.testing.assert_allclose(res.value[i], single.value,
                                       atol=1e-12)
            np.testing.assert_allclose(res.x[i], single.x, atol=1e-12)
            assert res.iterations[i] == single.iterations


@pytest.mark.parametrize("solve, params", [
    (primal_apg, ApgParams(smoothing=0.05, tol=1e-8, max_iters=3000)),
    (dual_apg, ApgParams(regularization=0.01, tol=1e-10, max_iters=3000)),
])
def test_compaction_does_not_couple_instances(solve, params):
    # Scaled instances stop at different iterations, so the working batch
    # is compacted while the rest still run.
    rng = np.random.default_rng(17)
    c = rng.normal(size=(8, 12, 6)) * rng.uniform(0.2, 5.0, (8, 1, 1))
    res = solve(MinimaxProblem(coefficients=c), params)
    assert np.sort(res.iterations)[4] < res.iterations.max()
    for i in range(8):
        single = solve(MinimaxProblem(coefficients=c[i]), params)
        assert res.iterations[i] == single.iterations
        assert res.restarts[i] == single.restarts
        assert res.converged[i] == single.converged
        np.testing.assert_allclose(res.x[i], single.x, atol=1e-12)


@pytest.mark.parametrize("solve, params", [
    (primal_apg, ApgParams(smoothing=0.05, tol=1e-8, max_iters=300)),
    (primal_apg, ApgParams(smoothing=0.005, tol=1e-10, max_iters=5000)),
    (dual_apg, ApgParams(regularization=0.01, tol=1e-8, max_iters=300)),
    (dual_apg, ApgParams(regularization=1e-4, tol=1e-12, max_iters=20000)),
])
def test_lp_bound_brackets_the_lp_optimum(solve, params):
    # Coarse and fine solves alike: the LP optimum lies between the
    # certified bound and the objective at the returned point.
    rng = np.random.default_rng(12)
    c = rng.normal(size=(6, 10, 8))
    prob = MinimaxProblem(coefficients=c)
    res = solve(prob, params)
    value = minimax_value(prob, res.x)
    assert res.lp_bound.shape == (6,)
    for i in range(6):
        f_lp, _ = lp_box_minimax(c[i])
        tol = 1e-9 * (1.0 + abs(f_lp))
        assert res.lp_bound[i] <= f_lp + tol
        assert f_lp <= value[i] + tol


class TestDualApg:
    def test_single_column_forces_unit_multiplier(self):
        c = np.array([[0.7], [-0.3]])
        prob = MinimaxProblem(coefficients=c)
        res = dual_apg(prob, ApgParams(regularization=0.01, tol=1e-12,
                                       max_iters=500))
        np.testing.assert_allclose(res.multipliers, [1.0], atol=1e-12)
        np.testing.assert_allclose(res.x, np.clip(-c[:, 0] / 0.01, -1, 1),
                                   atol=1e-12)

    def test_weak_duality_and_gap(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=(16, 8))
        prob = MinimaxProblem(coefficients=c)
        res = dual_apg(prob, ApgParams(regularization=1e-3, tol=1e-11,
                                       max_iters=20000))
        assert res.gap >= -1e-10
        assert res.gap <= 1e-6 * (1.0 + abs(res.dual_value))

    def test_matches_lp_oracle_small(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            c = rng.normal(size=(10, 6))
            f_lp, _ = lp_box_minimax(c)
            prob = MinimaxProblem(coefficients=c)
            res = dual_apg(prob, ApgParams(regularization=1e-5 * np.abs(c).max(),
                                           tol=1e-12, max_iters=40000))
            f = minimax_value(prob, res.x)
            assert abs(f - f_lp) <= 1e-3 * (1.0 + abs(f_lp))

    def test_dual_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=(12, 5))
        tau = 0.05
        lam = project_simplex(rng.normal(size=5))

        def g(l):
            y = c @ l
            return -huber(y, tau).sum()

        from sdprecode.optim import _dual_point
        grad = c.T @ _dual_point(c @ lam, tau)
        eps = 1e-7
        for i in range(5):
            e = np.zeros(5)
            e[i] = eps
            fd = (g(lam + e) - g(lam - e)) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestMinIqInfNorm:
    def test_empty_nullspace_returns_plain_norm(self):
        r = np.array([0.3 + 0.8j, -0.2 + 0.1j])
        steering = np.array([[1.0, 0.5j], [-0.3, 2.0]])
        v, res = min_iq_inf_norm(r, steering)
        np.testing.assert_allclose(v, r, atol=1e-12)
        assert res.value == pytest.approx(0.8)

    def test_exact_cancellation_in_range(self):
        # r lies in the nullspace of the steering rows, so v = 0 is feasible.
        # Finer settings than NULLSPACE_PARAMS, at which the value ends at
        # 0.67 of the bound below.
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(_complex_normal(rng, (8, 8)))
        w = _complex_normal(rng, 3)
        r = q[:, :3] @ w
        v, res = min_iq_inf_norm(
            r, q[:, 3:].conj().T,
            ApgParams(smoothing=1e-3, tol=1e-6, max_iters=1500))
        assert res.value <= 1e-4 * np.abs(r).max()
        np.testing.assert_allclose(v, 0.0, atol=1e-3 * np.abs(w).max())

    def test_never_worse_than_zero_point(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            steering = _complex_normal(rng, (7, 12))
            r = _complex_normal(rng, (4, 12))
            v, res = min_iq_inf_norm(r, steering)
            base = np.maximum(np.abs(r.real), np.abs(r.imag)).max(axis=-1)
            assert np.all(res.value <= base + 1e-12)
            np.testing.assert_allclose(v @ steering.T, r @ steering.T,
                                       atol=1e-12 * np.abs(r).max())

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(14)
        n, k = 16, 4
        steering = _complex_normal(rng, (k, n))
        r = _complex_normal(rng, n)
        f_lp = lp_min_iq_inf_norm(r, steering)

        _, res = min_iq_inf_norm(
            r, steering, ApgParams(smoothing=2e-6, tol=1e-10,
                                   max_iters=20000))
        assert abs(res.value - f_lp) <= 1e-4 * (1.0 + abs(f_lp))

    @pytest.mark.parametrize("c", [0.25, 4.0, 64.0])
    def test_scale_equivariant(self, c):
        # Settings are fractions of the peak rail, and scaling by a power of
        # two is exact, so the scaled problem runs the same iterations.
        rng = np.random.default_rng(16)
        steering = _complex_normal(rng, (4, 16))
        r = _complex_normal(rng, (3, 16))
        p = ApgParams(smoothing=4e-3, tol=1e-5, max_iters=120)
        v, res = min_iq_inf_norm(r, steering, p)
        v_c, res_c = min_iq_inf_norm(c * r, steering, p)
        np.testing.assert_array_equal(v_c, c * v)
        np.testing.assert_array_equal(res_c.value, c * res.value)
        np.testing.assert_array_equal(res_c.iterations, res.iterations)
        np.testing.assert_array_equal(res_c.converged, res.converged)

    @pytest.mark.parametrize("seed", range(4))
    def test_peak_smoothing_is_the_concatenated_log_sum_exp(self, seed):
        # The value and weights of the smoothed peak equal those of the
        # log-sum-exp over [x, -x] bit for bit, with entries exactly at
        # +-max|x| (each row's maximum itself and its negation) and zero
        # rows among them.
        rng = np.random.default_rng(seed)
        mu = 10.0 ** rng.uniform(-4, -1)
        x = rng.normal(size=(9, 24)) * 10.0 ** rng.uniform(-3, 3, (9, 1))
        x[:, 5] = np.abs(x).max(axis=-1)
        x[:, 6] = -x[:, 5]
        x[2] = 0.0
        x[7] = -0.0
        buf = np.full((12, 48), np.nan)                 # more rows than x
        value, weights = optim._log_sum_exp(np.concatenate([x, -x], axis=-1),
                                            mu)
        assert optim._peak_value(x, mu, buf).tobytes() == value.tobytes()
        w, _, wsum = optim._peak_exp(x, mu, buf)
        assert (w / wsum).tobytes() == weights.tobytes()

    def test_rank_deficient_steering_rejected(self):
        row = np.exp(1j * np.arange(6))
        with pytest.raises(ValueError, match="rank deficient"):
            min_iq_inf_norm(np.ones(6), np.stack([row, 2.0 * row]))


class TestStacking:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        np.testing.assert_array_equal(unstack_complex(stack_complex(z)), z)
