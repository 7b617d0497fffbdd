"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The Monte Carlo criteria pin their SNR grids, trial
counts, and seeds; rerunning is bit-reproducible.  Expected wall time is
roughly ten minutes on two cores.
"""

import math

import numpy as np
from scipy.optimize import linprog

from sdprecode import analysis
from sdprecode.channel import (
    ArrayGeometry,
    MultiUserScene,
    SinglePathChannel,
    make_constellation,
    realize_channel,
    steering_matrix,
)
from sdprecode.modulator import (
    no_overload_amplitude,
    sd_angle_steered,
    sd_basic,
    sd_generalized,
)
from sdprecode.optim import (
    ApgParams,
    MinimaxProblem,
    dual_apg,
    huber,
    minimax_value,
    primal_apg,
    project_simplex,
    smoothed_objective,
)
from sdprecode.precoder import minimax_coefficients, zf_precode
from sdprecode.sim import SimConfig, run_ser, run_spectrum

SEED = 20260810


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _box(rng, n, count, bound=1.0):
    return bound * (rng.uniform(-1, 1, (n, count))
                    + 1j * rng.uniform(-1, 1, (n, count)))


def _random_scene(rng, n, k, spacing=0.125, power=10.0, noise_var=1.0):
    span = 60.0 - (k - 1) * 1.0
    u = np.sort(rng.uniform(0.0, span, k))
    angles = np.deg2rad(-30.0 + u + np.arange(k) * 1.0)
    gains = (30.0 / rng.uniform(20, 100, k)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, k))
    chans = tuple(SinglePathChannel(gain=complex(g), angle=float(a))
                  for g, a in zip(gains, angles))
    return MultiUserScene(ArrayGeometry(n, spacing), chans, power, noise_var)


def _snr_at_rate(snr_db, rates, target):
    """SNR (dB) where the log-rate curve crosses ``target``, interpolated."""
    snr_db = np.asarray(snr_db, dtype=float)
    rates = np.asarray(rates, dtype=float)
    logt = math.log10(target)
    for i in range(len(rates) - 1):
        hi, lo = rates[i], rates[i + 1]
        if hi >= target and 0 < lo < target:
            lh, ll = math.log10(hi), math.log10(lo)
            frac = (lh - logt) / (lh - ll)
            return snr_db[i] + frac * (snr_db[i + 1] - snr_db[i])
    raise AssertionError(f"rate {target} not bracketed by {rates}")


def _mrt_cfg(**overrides):
    base = {
        "geometry": {"n_antennas": 256, "spacing_over_wavelength": 0.125},
        "constellation": {"kind": "psk", "order": 8},
        "channel": {"model": "single_path", "angle_deg": 0.0},
        "scheme": "mrt",
        "modulator": "basic",
        "snr_db": [-16, -14, -12, -10, -8, -6],
        "trials": 100_000,
        "early_stop_errors": 500,
        "seed": SEED,
    }
    base.update(overrides)
    return SimConfig.from_dict(base)


# -------------------------------------------------------------------------
# Property criteria (fast, exact)
# -------------------------------------------------------------------------

def test_criterion_01_reconstruction_identities():
    """Shaped-error reconstruction and weighted-sum cancellation to 1e-10."""
    rng = np.random.default_rng(SEED)
    n, count = 64, 10_000
    worst = 0.0

    xbar = _box(rng, n, count, bound=1.5)          # overload included
    res = sd_basic(xbar)
    q_prev = np.zeros_like(res.quant_error)
    q_prev[1:] = res.quant_error[:-1]
    worst = max(worst, float(np.abs(
        res.output - (xbar + res.quant_error - q_prev)).max()))

    phi = 0.9
    xbar = _box(rng, n, count, bound=1.5)
    res = sd_angle_steered(xbar, phi)
    q_prev = np.zeros_like(res.quant_error)
    q_prev[1:] = res.quant_error[:-1]
    worst = max(worst, float(np.abs(
        res.output - (xbar + res.quant_error
                      - np.exp(1j * phi) * q_prev)).max()))

    h = rng.normal(size=(n, count)) + 1j * rng.normal(size=(n, count))
    h = np.take_along_axis(h, np.argsort(np.abs(h), axis=0), axis=0)
    xbar = _box(rng, n, count, bound=1.5)
    res = sd_generalized(xbar, h)
    tele = np.abs(np.einsum("nb,nb->b", h, res.output)
                  - np.einsum("nb,nb->b", h, xbar)
                  - h[-1] * res.quant_error[-1]).max()
    worst = max(worst, float(tele))

    _report(1, worst <= 1e-10,
            f"worst identity residual {worst:.2e} over 3x{count} inputs (N={n})")


def test_criterion_02_no_overload_bounds():
    """Inputs inside the safe amplitude boxes never push |q| rails past 1."""
    rng = np.random.default_rng(SEED + 1)
    n, count = 64, 10_000

    def rail_max(res):
        return float(max(np.abs(res.quant_error.real).max(),
                         np.abs(res.quant_error.imag).max()))

    peaks = {}
    peaks["basic"] = rail_max(sd_basic(_box(rng, n, count)))
    for phi in (math.pi / 4, 1.1):
        amp = no_overload_amplitude(phi)
        res = sd_angle_steered(_box(rng, n, count, bound=amp), phi)
        peaks[f"steered(phi={phi:.2f})"] = rail_max(res)
        assert not np.any(res.overloaded)
    h = rng.normal(size=(n, count)) + 1j * rng.normal(size=(n, count))
    h = np.take_along_axis(h, np.argsort(np.abs(h), axis=0), axis=0)
    amps = 2.0 - np.abs((h[:-1] / h[1:]).real) - np.abs((h[:-1] / h[1:]).imag)
    amps = np.vstack([2.0 * np.ones((1, count)), amps])
    res = sd_generalized(_box(rng, n, count) * amps, h)
    peaks["generalized"] = rail_max(res)
    assert not np.any(res.overloaded)

    worst = max(peaks.values())
    _report(2, worst <= 1.0 + 1e-12,
            f"max |q| rail {worst:.12f} over {count} vectors per variant "
            f"({', '.join(peaks)})")


def test_criterion_03_zf_exactness():
    """Interference nulled to 1e-9 and per-user SNR spread below 1e-9."""
    rng = np.random.default_rng(SEED + 2)
    const = make_constellation("psk", 8)
    worst_resid, worst_spread = 0.0, 0.0
    for _ in range(100):
        scene = _random_scene(rng, 128, 8)
        s = const.points[rng.integers(0, 8, 8)]
        out = zf_precode(scene, s)
        h = np.stack([realize_channel(ch, scene.geometry)
                      for ch in scene.channels])
        resid = np.abs(h @ out.xbar - out.gains * s).max()
        worst_resid = max(worst_resid, float(resid))

        sigma = out.gains / out.metadata["gamma"]
        amp = math.sqrt(scene.total_power / (2 * scene.geometry.n_antennas))
        measured = np.abs(h @ out.xbar / s) * amp
        snrs = (measured / sigma) ** 2
        worst_spread = max(worst_spread,
                           float((snrs.max() - snrs.min()) / snrs.max()))
    ok = worst_resid < 1e-9 and worst_spread < 1e-9
    _report(3, ok, f"worst residual {worst_resid:.2e}, worst SNR spread "
                   f"{worst_spread:.2e} over 100 scenes (N=128, K=8)")


def test_criterion_04_zf_snr_floor():
    """The closed-form floor never exceeds the realized common SNR, and the
    smallest Gram eigenvalue obeys its correlation sandwich, on 1000 scenes."""
    rng = np.random.default_rng(SEED + 3)
    const = make_constellation("psk", 8)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        scene = _random_scene(rng, 128, k)
        bound = analysis.zf_snr_lower_bound(scene)
        if not (bound.lam_min <= 1.0 + 1e-9
                and bound.lam_min >= 1.0 - (k - 1) * bound.rho - 1e-9):
            violations += 1
            continue
        s = const.points[rng.integers(0, 8, k)]
        out = zf_precode(scene, s)
        if out.metadata["snr_eff"] < bound.bound - 1e-9:
            violations += 1
    _report(4, violations == 0,
            f"{violations} violations of the SNR floor / eigenvalue sandwich "
            "over 1000 scenes")


def test_criterion_05_solver_cross_checks():
    """Primal and dual paths agree with each other and with an LP oracle;
    analytic gradients match finite differences."""
    rng = np.random.default_rng(SEED + 4)
    const = make_constellation("psk", 8)

    def build(n, k):
        scene = _random_scene(rng, n, k)
        s = const.points[rng.integers(0, 8, k)]
        h = np.stack([realize_channel(ch, scene.geometry)
                      for ch in scene.channels])
        angles, gains = scene.single_path_arrays()
        sigma = np.sqrt(analysis.noise_variance_single(
            gains, angles, scene.total_power, scene.noise_variance,
            scene.geometry.spacing_over_wavelength))
        return minimax_coefficients(h, s, sigma, 8)

    def lp_opt(c):
        n, m = c.shape
        res = linprog(c=[0.0] * n + [1.0],
                      A_ub=np.hstack([c.T, -np.ones((m, 1))]),
                      b_ub=np.zeros(m),
                      bounds=[(-1, 1)] * n + [(None, None)], method="highs")
        assert res.success
        return res.fun

    def primal_annealed(c):
        prob = MinimaxProblem(coefficients=c)
        scale = float(np.abs(c).sum(axis=0).max())
        x0 = None
        res = None
        for mu_rel, iters in [(3e-2, 1000), (1e-2, 1000), (3e-3, 2000),
                              (1e-3, 3000), (3e-4, 5000), (1e-4, 10_000),
                              (3e-5, 20_000), (1.2e-5, 40_000),
                              (4e-6, 40_000)]:
            res = primal_apg(prob, ApgParams(smoothing=mu_rel * scale,
                                             tol=1e-6 * mu_rel * scale,
                                             max_iters=iters), res and res.x)
        return float(res.value)

    def dual_solve(c):
        prob = MinimaxProblem(coefficients=c)
        res = dual_apg(prob, ApgParams(regularization=1e-5 * np.abs(c).max(),
                                       tol=1e-10, max_iters=40_000))
        return float(minimax_value(prob, res.x))

    # Primal vs dual on the large instance.
    c_big = build(128, 12)
    f_p = primal_annealed(c_big)
    f_d = dual_solve(c_big)
    gap_big = abs(f_p - f_d) / (1.0 + abs(f_d))

    # Both against the LP oracle on small instances.
    worst_lp = 0.0
    for _ in range(3):
        c = build(16, 4)
        f_lp = lp_opt(c)
        for f in (primal_annealed(c), dual_solve(c)):
            worst_lp = max(worst_lp, abs(f - f_lp) / (1.0 + abs(f_lp)))

    # Finite-difference gradient checks.
    c = rng.normal(size=(20, 10))
    x = rng.normal(size=20)
    mu = 0.05
    _, grad = smoothed_objective(c, x, mu)
    worst_fd = 0.0
    for i in range(20):
        e = np.zeros(20)
        e[i] = 1e-5
        fp, _ = smoothed_objective(c, x + e, mu)
        fm, _ = smoothed_objective(c, x - e, mu)
        fd = (fp - fm) / 2e-5
        worst_fd = max(worst_fd, abs(fd - grad[i]) / max(1.0, abs(grad[i])))

    tau = 0.05
    lam = project_simplex(rng.normal(size=10))
    from sdprecode.optim import _dual_point
    dgrad = c.T @ _dual_point(c @ lam, tau)
    for i in range(10):
        e = np.zeros(10)
        e[i] = 1e-6
        gp = -huber(c @ (lam + e), tau).sum()
        gm = -huber(c @ (lam - e), tau).sum()
        fd = (gp - gm) / 2e-6
        worst_fd = max(worst_fd, abs(fd - dgrad[i]) / max(1.0, abs(dgrad[i])))

    ok = gap_big <= 1e-3 and worst_lp <= 1e-3 and worst_fd <= 1e-6
    _report(5, ok, f"primal/dual gap {gap_big:.2e} (N=128,K=12), "
                   f"LP mismatch {worst_lp:.2e}, gradient FD {worst_fd:.2e}")


def test_criterion_06_huber_and_simplex_oracles():
    """Huber variational identity on a dense grid; simplex projection against
    a KKT active-set enumeration."""
    xs = np.linspace(-1.0, 1.0, 2001)
    ys = np.linspace(-5.0, 5.0, 10_001)
    worst_huber = 0.0
    for tau in (0.005, 0.1, 1.0):
        brute = np.min(ys[:, None] * xs[None, :]
                       + tau * xs[None, :] ** 2 / 2.0, axis=1)
        worst_huber = max(worst_huber,
                          float(np.abs(brute + huber(ys, tau)).max()))

    import itertools
    rng = np.random.default_rng(SEED + 5)
    worst_proj = 0.0
    for _ in range(30):
        v = rng.normal(scale=2.0, size=5)
        best, best_d = None, np.inf
        for support in range(1, 6):
            for subset in itertools.combinations(range(5), support):
                idx = list(subset)
                w = np.zeros(5)
                w[idx] = v[idx] - (np.sum(v[idx]) - 1.0) / support
                if np.any(w[idx] < -1e-12):
                    continue
                d = np.sum((w - v) ** 2)
                if d < best_d:
                    best, best_d = w, d
        worst_proj = max(worst_proj,
                         float(np.abs(project_simplex(v) - best).max()))

    ok = worst_huber <= 5e-6 and worst_proj <= 1e-10
    _report(6, ok, f"huber grid residual {worst_huber:.2e}, "
                   f"simplex KKT mismatch {worst_proj:.2e}")


# -------------------------------------------------------------------------
# Desk-scale quantitative reproductions
# -------------------------------------------------------------------------

def test_criterion_07_mrt_tracks_theory_in_tolerable_range():
    """Basic one-bit MRT at 0 and 60 degrees stays within 2x of the closed
    form wherever the predicted error rate is at least 1e-4."""
    worst = 0.0
    detail = []
    for theta in (0.0, 60.0):
        curve = run_ser(_mrt_cfg(
            channel={"model": "single_path", "angle_deg": theta}))
        mask = curve.theory_ser >= 1e-4
        ratios = curve.ser[mask] / curve.theory_ser[mask]
        worst = max(worst, float(np.abs(np.log2(ratios)).max()))
        detail.append(f"theta={theta:g}: ratio range "
                      f"[{ratios.min():.2f}, {ratios.max():.2f}]")
    _report(7, worst <= 1.0, "; ".join(detail) + " (tolerance: factor 2)")


def test_criterion_08_endfire_gap_is_persistent():
    """At 90 degrees the simulated error rate floors well above the i.i.d.
    closed form; the gap (at least 3x) is the expected model breakdown."""
    curve = run_ser(_mrt_cfg(
        channel={"model": "single_path", "angle_deg": 90.0},
        snr_db=[0.0, 5.0, 10.0]))
    ratios = curve.ser / np.maximum(curve.theory_ser, 1e-300)
    ok = bool(np.all(ratios >= 3.0) and np.all(curve.ser >= 1e-3))
    _report(8, ok, f"sim/theory ratios {np.array2string(ratios, precision=2)} "
                   f"at {list(curve.snr_db)} dB (floor SERs "
                   f"{np.array2string(curve.ser, precision=3)})")


def test_criterion_09_angle_steering_wins_at_endfire():
    """Steered one-bit MRT at 90 degrees matches its closed form within 2x
    and beats both the plain and the dithered modulators at every point."""
    base = dict(
        geometry={"n_antennas": 128, "spacing_over_wavelength": 0.5},
        channel={"model": "single_path", "angle_deg": 90.0},
        snr_db=[-6, -5, -4, -3, -2],
    )
    steered = run_ser(_mrt_cfg(scheme="mrt_steered", modulator="steered",
                               **base))
    basic = run_ser(_mrt_cfg(**base))
    dithered = run_ser(_mrt_cfg(modulator="dithered", dither_level=0.8,
                                **base))
    ratios = steered.ser / steered.theory_ser
    within = bool(np.abs(np.log2(ratios)).max() <= 1.0)
    beats = bool(np.all(steered.ser < basic.ser)
                 and np.all(steered.ser < dithered.ser))
    _report(9, within and beats,
            f"theory ratios [{ratios.min():.2f}, {ratios.max():.2f}]; "
            f"steered {np.array2string(steered.ser, precision=4)} vs basic "
            f"{np.array2string(basic.ser, precision=4)} vs dithered "
            f"{np.array2string(dithered.ser, precision=4)}")


def test_criterion_10_gaussian_channel_qam():
    """Channel-matched steering on an i.i.d. Gaussian channel sits about
    3 dB (within [1.3, 4.7]) right of peak-limited unquantized MRT at
    SER 1e-3, while memoryless one-bit quantization floors at or above 0.1."""
    base = dict(
        geometry={"n_antennas": 256, "spacing_over_wavelength": 0.125},
        constellation={"kind": "qam", "order": 16},
        channel={"model": "iid_gaussian"},
        scheme="mrt_generalized",
        snr_db=[-2, -1, 0, 1, 2, 3, 4],
    )
    unq = run_ser(_mrt_cfg(modulator="unquantized", **base))
    steer = run_ser(_mrt_cfg(modulator="generalized", **base))
    hard = run_ser(_mrt_cfg(modulator="direct", trials=20_000,
                            **dict(base, snr_db=[0.0, 4.0])))
    cross_unq = _snr_at_rate(unq.snr_db, unq.ser, 1e-3)
    cross_steer = _snr_at_rate(steer.snr_db, steer.ser, 1e-3)
    gap = cross_steer - cross_unq
    floor = float(hard.ser.min())
    ok = 1.3 <= gap <= 4.7 and floor >= 0.1
    _report(10, ok, f"SER=1e-3 crossings: unquantized {cross_unq:.2f} dB, "
                    f"steered {cross_steer:.2f} dB, gap {gap:.2f} dB; "
                    f"one-bit floor {floor:.3f}")


def test_criterion_11_multiuser_ordering():
    """Zero forcing and margin-maximizing precoding both fall monotonically
    with SNR, the margin design is at least as good everywhere, and the
    memoryless one-bit zero-forcing baseline floors."""
    base = {
        "geometry": {"n_antennas": 512, "spacing_over_wavelength": 0.125},
        "constellation": {"kind": "psk", "order": 8},
        "channel": {"model": "multi_user", "n_users": 24,
                    "angle_range_deg": [-30, 30], "min_separation_deg": 1.0,
                    "gain_model": "pathloss"},
        "modulator": "basic",
        "snr_db": [6.0, 10.0, 14.0, 18.0],
        "early_stop_errors": 10 ** 9,
        "seed": SEED,
    }
    zf = run_ser(SimConfig.from_dict({**base, "scheme": "zf",
                                      "trials": 2000}))
    qzf = run_ser(SimConfig.from_dict({**base, "scheme": "zf",
                                       "modulator": "direct",
                                       "trials": 2000}))
    slp = run_ser(SimConfig.from_dict({**base, "scheme": "slp_dual",
                                       "trials": 480}))

    def monotone(rates):
        return bool(np.all(np.diff(rates) <= 1e-12))

    ok = (monotone(zf.ber) and monotone(slp.ber)
          and bool(np.all(slp.ber <= zf.ber + 1e-12))
          and float(qzf.ber[-1]) >= 0.02)
    _report(11, ok,
            f"ZF BER {np.array2string(zf.ber, precision=4)}, margin BER "
            f"{np.array2string(slp.ber, precision=4)}, one-bit ZF floor "
            f"{qzf.ber[-1]:.3f}")


def test_criterion_12_nullspace_gain():
    """The nullspace assist buys at least 3 dB of horizontal gain over plain
    block zero forcing at BER 1e-3 (16-QAM, N=256, K=16, T=100).

    Per scene the two designs differ only through the common receive scale
    gamma, and every user's error probability is a fixed function of
    P gamma^2 / (2N), so the error curve's horizontal shift at any level —
    the 1e-3 level included — is exactly 20 log10(gamma ratio).  That ratio
    is measured directly on paired scenes (the scene-averaged curves
    themselves saturate against rare ill-conditioned scenes at desk-scale
    trial counts, which would make a raw crossing estimate fragile).  A
    paired end-to-end sweep confirms the ordering in realized bit errors.
    """
    from sdprecode.optim import ApgParams as _Params
    from sdprecode.precoder import nullspace_zf, zf_precode_qam_block

    rng = np.random.default_rng(SEED + 7)
    const = make_constellation("qam", 16)
    gains_db = []
    for _ in range(16):
        scene = _random_scene(rng, 256, 16, power=10.0 ** 2.1)
        symbols = const.points[rng.integers(0, 16, (16, 100))]
        plain = zf_precode_qam_block(scene, symbols)
        helped = nullspace_zf(scene, symbols,
                              params=_Params(smoothing=4e-3, tol=1e-5,
                                             max_iters=120))
        gains_db.append(20.0 * math.log10(
            helped.metadata["gamma"] / plain.metadata["gamma"]))
    gains_db = np.array(gains_db)

    base = {
        "geometry": {"n_antennas": 256, "spacing_over_wavelength": 0.125},
        "constellation": {"kind": "qam", "order": 16},
        "channel": {"model": "multi_user", "n_users": 16,
                    "angle_range_deg": [-30, 30], "min_separation_deg": 1.0,
                    "gain_model": "pathloss"},
        "modulator": "basic",
        "block_length": 100,
        "snr_db": [19.0, 23.0],
        "trials": 16,
        "early_stop_errors": 10 ** 9,
        "seed": SEED,
        "solver": {"nullspace_max_iters": 120,
                   "nullspace_smoothing_rel": 4e-3},
    }
    plain_curve = run_ser(SimConfig.from_dict({**base, "scheme": "zf_qam"}))
    helped_curve = run_ser(SimConfig.from_dict(
        {**base, "scheme": "nullspace_zf"}))

    ok = (float(gains_db.mean()) >= 3.0 and float(gains_db.min()) >= 0.0
          and bool(np.all(helped_curve.ber <= plain_curve.ber)))
    _report(12, ok,
            f"horizontal gain 20*log10(gamma ratio): mean "
            f"{gains_db.mean():.2f} dB, min {gains_db.min():.2f} dB over 16 "
            f"paired scenes (threshold 3 dB); paired BER "
            f"{np.array2string(helped_curve.ber, precision=4)} vs "
            f"{np.array2string(plain_curve.ber, precision=4)}")


def test_criterion_13_spectrum_shape_and_noise_model():
    """One-bit beams shape quantization power out of the serving sector
    (>= 15 dB from the in-band floor to the high-angle band), and on benign
    inputs the shaped-noise variance matches the finite-array closed form
    within 5% at 1e5 trials."""
    rises = {}
    for theta in (30.0, 60.0):
        cfg = _mrt_cfg(channel={"model": "single_path", "angle_deg": theta},
                       snr_db=[0.0],
                       spectrum={"grid_deg": [-90, 90, 0.5], "trials": 2500})
        ang, db = run_spectrum(cfg)
        keep = np.abs(ang - theta) > 5.0          # excise the mainlobe
        sector = keep & (np.abs(ang) <= 30.0)
        high = keep & (np.abs(ang) >= 55.0)
        rises[theta] = float(np.percentile(db[high], 90)
                             - np.percentile(db[sector], 10))

    n, trials = 64, 100_000
    power, spacing, angle = 2.0, 0.5, 0.45
    gain = 0.8 * np.exp(0.3j)
    rng = np.random.default_rng(SEED + 6)
    xbar = _box(rng, n, trials)
    res = sd_basic(xbar)
    q = res.quant_error
    q_prev = np.zeros_like(q)
    q_prev[1:] = q[:-1]
    h = gain * steering_matrix(ArrayGeometry(n, spacing), angle)
    w = math.sqrt(power / (2 * n)) * (h @ (q - q_prev))
    sample = float(np.mean(np.abs(w) ** 2))
    predicted = analysis.noise_variance_single_exact(gain, angle, power, 0.0,
                                                     spacing, n)
    rel = abs(sample - predicted) / predicted

    ok = all(r >= 15.0 for r in rises.values()) and rel <= 0.05
    _report(13, ok,
            f"spectrum rise theta=30: {rises[30.0]:.1f} dB, theta=60: "
            f"{rises[60.0]:.1f} dB (threshold 15); shaped-noise variance "
            f"off by {100 * rel:.2f}% (threshold 5%)")
