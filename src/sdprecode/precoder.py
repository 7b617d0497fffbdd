"""Precoders producing the amplitude-limited target vector for the one-bit
modulators.

Every scheme returns a :class:`PrecodeOutput` whose ``xbar`` respects the
declared per-rail amplitude bound (a scalar, or one bound per antenna for the
channel-matched scheme) and whose ``gains`` give the noiseless receive
amplitude per user: with transmit scaling ``sqrt(P/2N)``, user i sees
``sqrt(P/2N) * gains[i] * s_i`` plus noise when interference is nulled.

Array layout: the ``*_arrays`` designs and :func:`mrt_generalized` take plain
arrays and are batched over leading axes of their inputs.  ``xbar`` puts the
antenna axis first and the batch axes after it, the layout the modulators
consume; ``gains`` and per-instance metadata carry the batch axes first and
the user axis last.  Block designs end in a symbol-time axis, so one scene's
``(K, T)`` block gives ``xbar`` of shape ``(N, T)``.  Every multi-user
design takes ``(tables, gains, noise_std, symbols)``, with the users'
steering as the ``(fine, coarse)`` phase tables of
``channel.steering_tables``.  The channel- and scene-object functions unpack
their objects and call the same array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from . import analysis, modulator, optim
from .channel import (
    ArrayGeometry,
    MultiUserScene,
    SinglePathChannel,
    as_canonical,
    phase_step,
    steering_gram,
    steering_matrix,
    steering_rows,
    steering_tables,
)

__all__ = [
    "PrecodeOutput",
    "iq_inf_norm",
    "mrt_arrays",
    "mrt_single",
    "mrt_angle_steered",
    "mrt_generalized",
    "design_inputs",
    "zf_arrays",
    "zf_precode",
    "zf_precode_qam_block",
    "nullspace_zf_arrays",
    "nullspace_zf",
    "minimax_coefficients",
    "MarginRows",
    "margin_rows",
    "slp_arrays",
    "slp_psk",
    "nullspace_basis",
]


@dataclass(frozen=True)
class PrecodeOutput:
    """Amplitude-limited transmit target plus its receive-side bookkeeping."""

    xbar: np.ndarray
    gains: np.ndarray
    iq_bound: np.ndarray
    metadata: dict = field(default_factory=dict)


def iq_inf_norm(x, axis=None):
    """Largest in-phase or quadrature magnitude: ``max_n max(|Re|, |Im|)``."""
    x = np.asarray(x)
    return np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=axis)


def _antenna_first(rows: np.ndarray, batch_ndim: int) -> np.ndarray:
    """``(..., N)`` rows as ``(N, ...)``, padded to broadcast over the batch."""
    rows = np.moveaxis(rows, -1, 0)
    pad = (1,) * (batch_ndim + 1 - rows.ndim)
    return rows.reshape(rows.shape[:1] + pad + rows.shape[1:])


def _scalars(metadata: dict) -> dict:
    """One instance's metadata with 0-d numpy values as Python scalars."""
    return {k: v.item() if isinstance(v, (np.ndarray, np.generic))
            and v.ndim == 0 else v for k, v in metadata.items()}


def mrt_arrays(geometry: ArrayGeometry, angles, gains, symbols,
               steered: bool = False,
               work: Optional[modulator.Workspace] = None) -> PrecodeOutput:
    """Conjugate beamforming toward single-path users, batched.

    ``angles``, ``gains`` and ``symbols`` broadcast to the batch shape.  All
    antennas radiate the symbol with the conjugate phase ramp, so the receive
    side sees a coherent gain of N times the channel magnitude.  With
    ``steered`` the target backs off to the steered modulator's safe level
    for the feedback rotation ``phi = channel.phase_step(d/lambda, angle)``,
    which nulls the shaped quantization error along the user's phase
    progression; the plain design is ``phi = 0``.  ``metadata`` carries ``phi``
    (feed it to ``modulator.sd_angle_steered``), ``amplitude`` and the
    steering ``rows`` (``channel.steering_matrix``) it conjugates.  With
    ``work``, ``xbar`` is written into its ``"xbar"`` buffer (see
    :class:`modulator.Workspace`).
    """
    angles = np.asarray(angles, dtype=float)
    gains = np.asarray(gains, dtype=complex)
    if np.any(gains == 0):
        raise ValueError("channel gain must be nonzero")
    phi = (phase_step(geometry.spacing_over_wavelength, angles)
           if steered else 0.0)
    amp = modulator.no_overload_amplitude(phi)
    u = amp * (np.conj(gains) / np.abs(gains)) * symbols
    rows = steering_matrix(geometry, angles)
    ramp = np.conj(_antenna_first(rows, max(np.ndim(u), angles.ndim)))
    xbar = np.multiply(ramp, u, out=_xbar_out(work, ramp, u))
    coherent = amp * geometry.n_antennas * np.abs(gains)
    return PrecodeOutput(
        xbar=xbar,
        gains=np.broadcast_to(coherent, xbar.shape[1:])[..., None],
        iq_bound=amp,
        metadata={"phi": phi, "amplitude": amp, "rows": rows},
    )


def mrt_single(channel: SinglePathChannel, geometry: ArrayGeometry,
               symbol: complex) -> PrecodeOutput:
    """Conjugate beamforming toward a single angular user (see :func:`mrt_arrays`)."""
    return mrt_arrays(geometry, channel.angle, channel.gain, symbol)


def mrt_angle_steered(channel: SinglePathChannel, geometry: ArrayGeometry,
                      symbol: complex) -> Tuple[PrecodeOutput, float]:
    """Conjugate beamforming backed off to the steered modulator's safe level.

    Returns the precode output together with the feedback rotation ``phi``
    that nulls the shaped quantization error along the user's phase
    progression; feed that ``phi`` to ``modulator.sd_angle_steered``.
    """
    out = mrt_arrays(geometry, channel.angle, channel.gain, symbol,
                     steered=True)
    return out, out.metadata["phi"]


def _xbar_out(work, lead, other):
    """Where a design writes ``xbar = lead * other``: a fresh array (None),
    or the ``"xbar"`` buffer of ``work``.

    The buffer view takes the axis order of ``lead`` when that has the full
    shape, as the fresh product would: downstream reductions then read the
    same layout with or without a workspace.
    """
    if work is None:
        return None
    shape = np.broadcast_shapes(lead.shape, np.shape(other))
    order = list(range(len(shape)))
    if lead.shape == shape:
        order.sort(key=lambda axis: -lead.strides[axis])
    view = work.array("xbar", tuple(shape[axis] for axis in order))
    return view.transpose(np.argsort(order))


def mrt_generalized(gains, symbols,
                    amplitudes: Optional[np.ndarray] = None,
                    work: Optional[modulator.Workspace] = None) -> PrecodeOutput:
    """Per-antenna matched weighting for an arbitrary (canonical) channel.

    ``gains`` is ``(N, ...)`` with the antenna axis first, as a
    ``channel.CanonicalGains`` or a plain array in canonical order (see
    ``channel.as_canonical``), and ``symbols`` broadcasts over its batch
    axes.  Each antenna transmits ``r_n * s`` with ``r_n`` proportional to
    the conjugate gain, scaled so its dominant rail uses the antenna's safe
    amplitude ``A_n``.  For symbols off the rail axes that scaling can spill
    the weaker rail slightly past ``A_n``; offending antennas are rescaled
    by ``max/(max+min)`` of their rail magnitudes (which restores the bound
    for any unit-peak symbol) and flagged in the metadata mask ``rescaled``.

    ``amplitudes`` overrides the safe profile, e.g. all ones for the
    unquantized benchmark or for deliberately overloaded runs.  ``work``
    holds ``xbar`` as in :func:`mrt_arrays`.
    """
    gains = as_canonical(gains)
    h = gains.coefficients
    if np.any(np.abs(symbols) > 1.0 + 1e-12):
        raise ValueError("symbol magnitude must not exceed 1")
    amp = (modulator.no_overload_amplitudes_generalized(gains)
           if amplitudes is None else np.asarray(amplitudes, dtype=float))

    rail_max = np.maximum(np.abs(h.real), np.abs(h.imag))
    weights = amp * np.conj(h) / rail_max
    xbar = np.multiply(weights, symbols,
                       out=_xbar_out(work, weights, symbols))

    spill = np.maximum(np.abs(xbar.real), np.abs(xbar.imag)) > amp * (1.0 + 1e-12)
    if np.any(spill):
        rail_min = np.minimum(np.abs(h.real), np.abs(h.imag))
        shrink = rail_max / (rail_max + rail_min)
        weights = np.where(spill, weights * shrink, weights)
        np.multiply(weights, symbols, out=xbar)

    coherent = (h * weights).real
    return PrecodeOutput(
        xbar=xbar,
        gains=coherent.sum(axis=0)[..., None],
        iq_bound=amp,
        metadata={"rescaled": spill},
    )


def design_inputs(geometry: ArrayGeometry, angles, gains, power, noise_var):
    """``(tables, gains, noise_std)``, the inputs every multi-user array
    design takes, for batched single-path users; ``noise_std**2`` is
    ``analysis.noise_variance_single`` and must be positive."""
    var = analysis.noise_variance_single(gains, angles, power, noise_var,
                                         geometry.spacing_over_wavelength)
    if np.any(var <= 0):
        raise ValueError("per-user noise variance must be positive "
                         "(zero thermal noise at broadside is degenerate)")
    return steering_tables(geometry, angles), gains, np.sqrt(var)


def _scene_arrays(scene: MultiUserScene):
    """:func:`design_inputs` of an all-single-path scene."""
    angles, gains = scene.single_path_arrays()
    return design_inputs(scene.geometry, angles, gains, scene.total_power,
                         scene.noise_variance)


# Scenes whose steering rows the zero-forcing back-projection rebuilds at
# once for T > 1 (T = 1 rebuilds none): 3 MiB at K = 24, N = 512, instead
# of the whole chunk's stack.
_ROWS_SLICE = 16


def _zf_targets(tables, gains, noise_std, symbols) -> np.ndarray:
    """Interference-free directions ``(..., N, T)``: pseudo-inverse applied to
    the weighted symbols, solved through the K x K steering Gram matrix
    (never N x N).

    At T = 1 the back-projection ``S^H y`` factors over the tables like
    ``channel.steering_product``: ``coarse^T (conj(y) * fine)`` is the
    ``(N/L, L)`` block of ``conj(S^H y)``, one batched product with no
    rows.  For T > 1 it is taken as ``conj(y^H S)`` against rows rebuilt
    from ``tables`` for ``_ROWS_SLICE`` trials at a time, the same
    per-trial products, and so the same bits, as one product against the
    whole stack; there that is faster than the factored form.
    """
    fine, coarse = tables
    n = fine.shape[-1] * coarse.shape[-1]
    weights = noise_std * np.conj(gains) / np.abs(gains) ** 2
    rhs = weights[..., None] * symbols
    try:
        y = np.linalg.solve(steering_gram(tables), rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("steering vectors are linearly dependent "
                         "(coincident user angles)") from exc
    if y.shape[-1] == 1:
        back = np.swapaxes(coarse, -1, -2) @ (np.conj(y) * fine)
        back = back.reshape(back.shape[:-2] + (n, 1))
        return np.conj(back, out=back) / n
    yh = np.conj(y).swapaxes(-1, -2)
    batch, (t_len, k) = yh.shape[:-2], yh.shape[-2:]
    yh = yh.reshape(-1, t_len, k)
    fine, coarse = (np.broadcast_to(a, batch + a.shape[-2:]).reshape(
        (-1,) + a.shape[-2:]) for a in tables)
    back = np.empty((len(yh), t_len, n), dtype=complex)
    for lo in range(0, len(yh), _ROWS_SLICE):
        sl = slice(lo, lo + _ROWS_SLICE)
        np.matmul(yh[sl], steering_rows((fine[sl], coarse[sl])),
                  out=back[sl])
    back = back.reshape(batch + (t_len, n))
    return np.conj(back, out=back).swapaxes(-1, -2) / n


def _zf_output(v, peak, noise_std, **metadata) -> PrecodeOutput:
    """Scale each block of directions ``(..., N, T)`` by its common peak."""
    if np.any(peak == 0):
        raise ValueError("all-zero symbol block leaves the normalization undefined")
    gamma = 1.0 / peak
    return PrecodeOutput(
        xbar=np.moveaxis(gamma[..., None, None] * v, -2, 0),
        gains=gamma[..., None] * noise_std,
        iq_bound=np.float64(1.0),
        metadata={"gamma": gamma, **metadata},
    )


def zf_arrays(tables, gains, noise_std, symbols) -> PrecodeOutput:
    """Block zero-forcing with noise-weighted per-user gains, batched.

    ``tables`` are the users' ``(fine, coarse)`` phase tables
    (``channel.steering_tables``), ``(..., K, L)`` and ``(..., K, N/L)``:
    the Gram comes from them (``channel.steering_gram``), and so does the
    back-projection, factored at T = 1 and against steering rows rebuilt a
    few trials at a time for T > 1, so the ``(..., K, N)`` stack is never
    held.  ``gains`` and ``noise_std`` are ``(..., K)``
    and ``symbols`` is ``(..., K, T)``.
    Nulls inter-user interference and weights each user by its own noise
    standard deviation, so every user lands at the same effective SNR
    ``P gamma^2 / (2N)``.  Amplitude decisions need the receive gain to be
    constant over a block, so each block is scaled by its worst symbol
    time's peak; per-symbol zero forcing is the ``T = 1`` case.
    """
    v = _zf_targets(tables, gains, noise_std, symbols)
    return _zf_output(v, iq_inf_norm(v, axis=(-2, -1)), noise_std)


def nullspace_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace of a wide full-rank matrix."""
    k, n = a.shape
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size and s[-1] <= max(n, k) * np.finfo(float).eps * s[0]:
        raise ValueError("steering matrix is rank deficient")
    return vh[k:].conj().T


def nullspace_zf_arrays(tables, gains, noise_std, symbols,
                        params=None) -> PrecodeOutput:
    """Block zero-forcing with a nullspace component that shaves the peak.

    Shapes as in :func:`zf_arrays`.  Adding a vector from the steering
    nullspace leaves every receive signal untouched but can cancel
    transmit-side amplitude, raising the common scale ``gamma``.  Each symbol
    time minimizes its peak rail over the transmit vectors with the same
    steering image (:func:`optim.min_iq_inf_norm`); the zero component is
    always a fallback, so ``gamma`` never falls below the plain block
    zero-forcing one.  ``params`` is an ``optim.ApgParams`` whose smoothing
    and tolerance are fractions of each block's zero-forcing peak; scenes
    are solved one at a time because the solver scales its smoothing
    schedule to each block, and each scene's steering rows are built from
    its tables inside that loop.
    """
    v = _zf_targets(tables, gains, noise_std, symbols)
    batch = v.shape[:-2]
    fine, coarse = tables
    shaved = np.empty_like(v)
    peak = np.empty(batch)
    converged = np.empty(batch, dtype=bool)
    iterations = np.empty(batch, dtype=np.int64)
    for i in np.ndindex(batch):
        x, solve = optim.min_iq_inf_norm(
            v[i].T, steering_rows((fine[i], coarse[i])), params=params)
        shaved[i] = x.T
        peak[i] = np.max(solve.value)
        converged[i] = np.all(solve.converged)
        iterations[i] = np.max(solve.iterations)
    return _zf_output(shaved, peak, noise_std, converged=converged,
                      iterations=iterations)


def _scene_block(design, scene: MultiUserScene, symbols, **kwargs):
    """Run a zero-forcing array design on one scene's ``(K, T)`` block."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim != 2 or symbols.shape[0] != scene.n_users:
        raise ValueError("symbols must be (K, T)")
    out = design(*_scene_arrays(scene), symbols, **kwargs)
    meta = _scalars(out.metadata)
    meta["snr_eff"] = analysis.effective_snr_zf(
        scene.total_power, scene.geometry.n_antennas, meta["gamma"])
    return replace(out, metadata=meta)


def zf_precode(scene: MultiUserScene, symbols) -> PrecodeOutput:
    """Zero-forcing of one symbol per user (see :func:`zf_arrays`)."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (scene.n_users,):
        raise ValueError("need one symbol per user")
    out = _scene_block(zf_arrays, scene, symbols[:, None])
    return replace(out, xbar=out.xbar[:, 0])


def zf_precode_qam_block(scene: MultiUserScene, symbols) -> PrecodeOutput:
    """Zero-forcing over a ``(K, T)`` symbol block with one shared
    normalization; ``xbar`` is ``(N, T)`` (see :func:`zf_arrays`)."""
    return _scene_block(zf_arrays, scene, symbols)


def nullspace_zf(scene: MultiUserScene, symbols,
                 params: Optional[optim.ApgParams] = None) -> PrecodeOutput:
    """Nullspace-assisted block zero-forcing of one scene's ``(K, T)`` block;
    ``xbar`` is ``(N, T)`` (see :func:`nullspace_zf_arrays`)."""
    return _scene_block(nullspace_zf_arrays, scene, symbols, params=params)


def minimax_coefficients(h_rows: np.ndarray, symbols: np.ndarray,
                         noise_std: np.ndarray, order: int) -> np.ndarray:
    """Column matrix of the worst-user margin program, stacked-real form.

    Row space is ``x = [Re(xbar); Im(xbar)]``; the 2K columns are the
    negated, noise-normalized decision margins of each user's sent symbol,
    one per sign of the cross-rail term.  Minimizing their maximum over the
    unit box maximizes the worst normalized margin.  Batched over leading
    axes of ``h_rows`` ``(..., K, N)``, ``symbols`` ``(..., K)`` and
    ``noise_std`` ``(..., K)``.  This is the dense form of
    :func:`margin_rows`, which the solvers use.
    """
    op = margin_rows(h_rows, symbols, noise_std, order)
    aligned = np.concatenate([op.rows.real, -op.rows.imag], axis=-1)
    cross = op.cot * np.concatenate([op.rows.imag, op.rows.real], axis=-1)
    cols = np.concatenate([-aligned + cross, -aligned - cross], axis=-2)
    return cols.swapaxes(-1, -2)


@dataclass(frozen=True)
class MarginRows:
    """The program of :func:`minimax_coefficients` held as complex rows.

    ``rows`` are ``conj(s) h / sigma``, ``(..., K, N)``, and ``cot`` is
    ``cot(pi/M)``.  With ``a = rows @ xbar`` the 2K column values at the
    stacked-real ``x = [Re xbar; Im xbar]`` are ``-Re a + cot Im a`` and
    ``-Re a - cot Im a``, so ``C`` and ``C^T`` are one complex K x N product
    each, over half the bytes of the stacked-real columns.  It offers the
    methods of :class:`optim.MinimaxProblem` that the solvers use.
    """

    rows: np.ndarray
    cot: float

    @property
    def batch_shape(self) -> tuple:
        return self.rows.shape[:-2]

    @property
    def shape(self) -> tuple:
        k, n = self.rows.shape[-2:]
        return 2 * n, 2 * k

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``C w``: the stacked reals of ``rows^H c``, with
        ``c = -(w1 + w2) + i cot (w1 - w2)`` from the two halves of ``w``."""
        k = self.rows.shape[-2]
        w1, w2 = w[..., :k], w[..., k:]
        c_conj = -(w1 + w2) - 1j * (self.cot * (w1 - w2))
        # rows^H c = conj(conj(c)^T rows): the rows are never conjugated.
        z = (c_conj[..., None, :] @ self.rows)[..., 0, :]
        return np.concatenate([z.real, -z.imag], axis=-1)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``C^T x``: the 2K margins' negations at the stacked-real ``x``."""
        a = (self.rows @ optim.unstack_complex(x)[..., None])[..., 0]
        re, im = a.real, self.cot * a.imag
        return np.concatenate([-re + im, -re - im], axis=-1)

    def norm_sq(self):
        """Squared spectral norm of ``C``, the top eigenvalue of ``C^T C``.

        Column ``j`` of ``C`` is the stacked ``conj(rows_j) alpha_j`` with
        ``alpha = -1 + i cot`` for the first K and ``-1 - i cot`` for the
        rest, so ``C^T C = Re(conj(alpha_j) alpha_l (rows rows^H)_jl)``.
        """
        k = self.rows.shape[-2]
        gram = self.rows @ np.conj(self.rows).swapaxes(-1, -2)
        alpha = np.repeat([-1.0 + 1j * self.cot, -1.0 - 1j * self.cot], k)
        full = np.tile(gram, (2, 2)) * (np.conj(alpha)[:, None] * alpha)
        lam = np.linalg.eigvalsh(full.real)[..., -1]
        return lam if lam.ndim else float(lam)

    def take(self, keep) -> "MarginRows":
        """The instances ``keep`` indexes on the flattened batch axis."""
        rows = self.rows.reshape((-1,) + self.rows.shape[-2:])[keep]
        return MarginRows(rows, self.cot)


def margin_rows(h_rows: np.ndarray, symbols: np.ndarray,
                noise_std: np.ndarray, order: int) -> MarginRows:
    """The worst-user margin program of :func:`minimax_coefficients` as
    :class:`MarginRows`, batched over the same leading axes."""
    symbols = np.asarray(symbols, dtype=complex)
    noise_std = np.asarray(noise_std, dtype=float)
    rows = np.conj(symbols)[..., None] * h_rows
    rows *= 1.0 / noise_std[..., None]
    cot = 0.0 if order == 2 else 1.0 / math.tan(math.pi / order)
    return MarginRows(rows, cot)


def slp_arrays(tables, gains, noise_std, symbols, order: int,
               params: Optional[optim.ApgParams] = None) -> PrecodeOutput:
    """Per-symbol-time design maximizing the worst user's decision margin.

    Inputs as in :func:`zf_arrays`; each symbol time is its own program, so
    ``gains`` ``(..., T, K)`` and the metadata end in a time axis and ``xbar``
    is ``(N, ..., T)``.  Solves the box-constrained minimax program on the
    margin rows (the channel rows are dropped first) by the simplex-dual APG
    (:func:`optim.dual_apg`, at ``params`` or the ``ApgParams`` defaults)
    with closed-form primal recovery, and reads ``margins`` and ``gains``
    from its columns at the solution.  ``metadata["duality_gap"]`` is the
    gap of the regularized problem, ``lp_bound`` the solver's certified
    lower bound on the program's optimum and ``lp_gap`` the objective's
    distance above it.  Capped instances are flagged in
    ``metadata["converged"]``, not raised.
    """
    if order < 2:
        raise ValueError("PSK order must be >= 2")
    rows = steering_rows(tables)
    np.multiply(np.asarray(gains)[..., None], rows, out=rows)
    sigma = np.asarray(noise_std, dtype=float)[..., None, :]
    problem = margin_rows(rows[..., None, :, :],
                          np.swapaxes(symbols, -1, -2), sigma, order)
    del rows

    res = optim.dual_apg(problem, params or optim.ApgParams())
    objective = optim.minimax_value(problem, res.x)
    first, second = np.split(problem.rmatvec(res.x), 2, axis=-1)
    meta = dict(
        objective=objective,
        dual_value=res.dual_value,
        duality_gap=res.gap,
        lp_bound=res.lp_bound,
        lp_gap=objective - res.lp_bound,
        solver="dual",
        iterations=res.iterations,
        converged=res.converged,
        restarts=res.restarts,
        margins=-np.maximum(first, second),
    )
    return PrecodeOutput(
        xbar=np.moveaxis(optim.unstack_complex(res.x), -1, 0),
        gains=-(first + second) * (0.5 * sigma),
        iq_bound=np.float64(1.0),
        metadata=meta,
    )


def slp_psk(scene: MultiUserScene, symbols, order: int,
            params: Optional[optim.ApgParams] = None) -> PrecodeOutput:
    """Worst-user margin design for one scene's symbols (see :func:`slp_arrays`)."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (scene.n_users,):
        raise ValueError("need one symbol per user")
    out = slp_arrays(*_scene_arrays(scene), symbols[:, None], order, params)
    meta = {k: v[0] if np.ndim(v) else v for k, v in out.metadata.items()}
    return replace(out, xbar=out.xbar[:, 0], gains=out.gains[0],
                   metadata=_scalars(meta))
