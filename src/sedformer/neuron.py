"""Spiking neuron dynamics: the event-driven EA-LIF scan.

One recurrence kernel carries a hand-derived backward rule: the spike
encoder runs it with a threshold and soft reset (``ealif_spike_scan``),
the attention's membrane features without one (``ealif_filter``). It
keeps memory per step O(state) instead of materializing one tape node per
event per channel. Per-step LIF and EA-LIF updates composed from tape
primitives live with the tests (``tests/oracles.py``) as an independent
reference for the scan.

The step loop (``ealif_recurrence``) pays one Python step per event. A
hard spike scan of one long window that records no tape pays per spike
instead (``_spike_raster``), or hands the window back to the loop where it
cannot vouch for the loop's raster bitwise. The loop stays for the rest:
training's backward needs its states, and on short windows, batches, the
filter (whose prefix sums cost more than its steps) and smooth spikes it
is the faster or the only path.

Spike nonlinearity: the forward pass is a hard threshold H(u) = 1{u >= 0}
(u == 0 fires). The backward pass always uses the scaled sigmoid surrogate
a*s(a*u)*(1-s(a*u)). With ``smooth=True`` the forward is replaced by the
sigmoid itself, which makes finite-difference checks of the full model
exact; hard mode is what training and inference use.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import (Tensor, accumulate_grad, count_macs, count_spikes, is_recording, make_op,
                     sigmoid, softplus)

# The model's spike threshold and surrogate sharpness.
V_TH, ALPHA_STE = 1.0, 4.0


def heaviside(u: np.ndarray) -> np.ndarray:
    """Hard threshold; fires at exactly zero."""
    return (np.asarray(u) >= 0.0).astype(np.float64)


def surrogate_grad(u: np.ndarray, alpha: float) -> np.ndarray:
    """d/du of the surrogate: a*s(a*u)*(1-s(a*u))."""
    s = sigmoid(alpha * np.asarray(u, dtype=np.float64))
    return alpha * s * (1.0 - s)


# The largest tau whose eta = log(expm1(tau - 1)) is finite.
TAU_MAX = 1.0 + float(np.log(np.finfo(np.float64).max))


def eta_for_tau(tau: float) -> float:
    """eta with softplus(eta) + 1 = tau, for initialization; ``tau`` in (1, TAU_MAX]."""
    if not 1.0 < tau <= TAU_MAX:
        raise ConfigError(f"tau must lie in (1, {TAU_MAX!r}], got {tau}")
    return float(np.log(np.expm1(tau - 1.0)))


def eta_for_tau_init(tau: float) -> float:
    """eta for a requested init tau, saturating at the tau -> 1 limit.

    The softplus(eta)+1 reparameterization keeps tau > 1 strictly, so a
    requested 1.0 maps to the closest representable setting (1 + 1e-9).
    """
    return eta_for_tau(max(float(tau), 1.0 + 1e-9))


def _beta_and_chain(dt: np.ndarray, taus: np.ndarray, etas: tuple[Tensor, ...], ndim: int,
                    record: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """beta and, if ``record``, d(beta)/d(eta) for the scalar etas of one scan,
    with ``taus`` = softplus(etas) + 1.

    Both come shaped to broadcast against an ``ndim``-dimensional state
    sequence: [K] gaps give [K, 1, ...], [K, B] gaps give [K, B, 1, ...],
    and E > 1 etas [..., E, 1], one per filter of the stack.
    """
    stack = (len(etas), 1) if len(etas) > 1 else ()
    shape = dt.shape + (1,) * (ndim - dt.ndim - len(stack)) + stack
    beta = np.exp(-dt[..., None] / taus)  # dt.shape + (E,)
    if not record:
        return beta.reshape(shape), None
    # d beta / d tau = beta * dt / tau^2; d tau / d eta = sigmoid(eta)
    sig = np.array([float(sigmoid(float(e.data))) for e in etas])
    dbeta_deta = beta * dt[..., None] / (taus * taus) * sig
    return beta.reshape(shape), dbeta_deta.reshape(shape)


def _eta_grad(dbeta_deta: np.ndarray, terms: np.ndarray) -> float:
    """sum_k dbeta_k/deta * sum(terms_k), with terms_k = adj_k * (prev_k - inp_k),
    added up from k = K-1 down to 0 as the reverse recurrence visits the steps.

    With [K, B] gaps each window's sum takes its own dbeta.
    """
    K, W = terms.shape[0], dbeta_deta[0].size  # W windows (1 for [K] gaps)
    per_step = (dbeta_deta.reshape(K, W) * terms.reshape(K, W, -1).sum(axis=2)).sum(axis=1)
    return float(np.cumsum(per_step[::-1])[-1])  # in sequence; .sum() would add in pairs




def _step_betas(beta: np.ndarray):
    """beta per step: Python floats when one beta serves every column, else its rows."""
    return beta.reshape(-1).tolist() if beta.size == beta.shape[0] else beta


def ealif_recurrence(beta: np.ndarray, drive: np.ndarray, v_th: float | None = None,
                     alpha: float = ALPHA_STE, smooth: bool = False,
                     keep_v: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The forward event loop: m_k = beta_k * v_{k-1} + drive_k along axis 0, v_0 = 0.

    Without a threshold v_k = m_k. With one, v_k = m_k - v_th * s_k, with
    s_k = H(m_k - v_th), or sigmoid(alpha * (m_k - v_th)) if ``smooth``.
    Returns (m, v): v is m itself without a threshold, the post-reset
    states with one and ``keep_v``, else None. Each step writes into its
    output row; a 1-D drive (one channel) runs as [K, 1].
    """
    if drive.ndim == 1:
        m, v = ealif_recurrence(beta.reshape(-1, 1), drive[:, None], v_th, alpha, smooth, keep_v)
        return m[:, 0], None if v is None else v[:, 0]
    m = np.empty_like(drive)
    v = m if v_th is None else np.empty_like(drive) if keep_v else None
    post = np.empty(drive.shape[1:]) if v_th is not None and not keep_v else None
    prev = np.zeros(drive.shape[1:])
    for k, (b, d) in enumerate(zip(_step_betas(beta), drive)):
        mk = np.multiply(prev, b, out=m[k])
        mk += d
        prev = mk
        if v_th is not None:
            s = sigmoid(alpha * (mk - v_th)) if smooth else mk >= v_th
            prev = np.subtract(mk, v_th * s, out=v[k] if keep_v else post)
    return m, v


# The event-driven spike path (``_spike_raster``) runs lone windows of at
# least this many events; below it the step loop is faster.
EVENT_PATH_MIN_K = 128
# A segment of the event path ends before its decay exponent c / tau passes
# this, so exp(c) stays below 6.3e27.
SEGMENT_EXP = 64.0
# The event path decides a slot only when its membrane lies more than
# GUARD * eps * scale * (K + 1) * (SEGMENT_EXP + 4) from v_th (scale =
# max(|x|, v_th)); that covers the rounding of both paths, about
# eps * scale * K * (6 * SEGMENT_EXP + 8), with room to spare.
GUARD = 8.0
# It gives up after K / ROUND_EVENTS rounds (each segment takes one more):
# a round costs about ten loop steps, so by then it has cost about the loop.
ROUND_EVENTS = 8


def _spike_raster(a: np.ndarray, beta: np.ndarray, x: np.ndarray, drive: np.ndarray,
                  v_th: float) -> np.ndarray | None:
    """The hard spike raster [K, N] of one window, or None where it cannot
    vouch that ``ealif_recurrence`` gives the same.

    a = dt / tau and beta = exp(-a) per event [K]; x and drive =
    (1 - beta) * x are [K, N]. Within a segment let B_i = exp(c_i), c_i the
    sum of a since the segment's start, and S_i = sum_{j<=i} drive_j * B_j
    plus the carried state: the membrane without resets is S_i / B_i. A
    spike at step p takes v_th * B_p / B_i from each later step i, so a
    channel whose spikes so far sum to r = sum v_th * B_p fires next at the
    first later step where h_i = S_i - v_th * B_i reaches r. Each round
    fires every channel's next spike: the work grows with the spikes per
    channel, not with the events.

    |m| never exceeds max|x|, so both paths' rounding errors are multiples
    of eps * max|x|. A step is decided only where h_i lies more than
    margin * B_i from r; a non-finite carry, or more than K / ROUND_EVENTS
    rounds, gives None.
    """
    K, N = drive.shape
    raster = np.zeros((K, N))
    carry = np.zeros(N)  # the post-reset state before the segment
    rounds, s, ar = 0, 0, np.arange(N)
    # an overflow or a NaN reaches the carry at its segment's end, and the
    # caller's loop then meets it as before; an underflow costs far less
    # than the margin
    with np.errstate(all="ignore"):
        scale = max(float(np.abs(x).max(initial=0.0)), v_th)
        margin = GUARD * np.finfo(np.float64).eps * scale * (K + 1) * (SEGMENT_EXP + 4.0)
        while s < K:
            c = np.cumsum(a[s + 1:])
            n = 1 + int(np.searchsorted(c, SEGMENT_EXP, side="right"))
            B = np.exp(np.concatenate(([0.0], c[:n - 1])))
            t = drive[s:s + n] * B[:, None]
            t[0] += beta[s] * carry
            S = np.cumsum(t.T, axis=1)  # [N, n]
            maybe = S - (v_th - margin) * B  # h + tolerance: a spike is possible from r on
            r, cols = np.zeros(N), ar
            while True:
                rounds += 1
                if rounds * ROUND_EVENTS > K:
                    return None
                rc = r[cols]
                hit = maybe >= rc[:, None]
                p = hit.argmax(1)
                fired = hit[ar[:cols.size], p]
                if not fired.any():
                    break
                cols, p, rc, maybe = cols[fired], p[fired], rc[fired], maybe[fired]
                if np.any(S[cols, p] - (v_th + margin) * B[p] <= rc):
                    return None  # not surely past v_th
                raster[s + p, cols] = 1.0
                r[cols] = rc + v_th * B[p]
                maybe[ar[:cols.size], p] = -np.inf  # a step fires once
            carry = (S[:, -1] - r) / B[-1]
            s += n
    return raster if np.all(np.isfinite(carry)) else None


def _ealif_scan(x: Tensor, dt: np.ndarray, etas: tuple[Tensor, ...], v_th: float | None = None,
                alpha: float = ALPHA_STE, smooth: bool = False) -> Tensor:
    """EA-LIF over a whole scan, with a hand-derived backward.

    beta_k = exp(-dt_k / tau), m_k = beta_k * v_{k-1} + (1 - beta_k) * x_k
    (``ealif_recurrence``). The output is m without a threshold, the spike
    train s_k = H(m_k - v_th) with one. x: [K, ...]; dt: [K], or [K, B]
    for a time-major batch x [K, B, ...] whose windows have their own gaps.
    E > 1 etas run E scans over x as [K, ..., E, n] (E equal blocks).

    A hard spike train of one window ([K] or [K, 1] gaps) of at least
    ``EVENT_PATH_MIN_K`` events that records no tape comes from
    ``_spike_raster`` where that can vouch for it.

    Backward: the adjoint of m runs the recurrence in reverse,
        Gm_k = g'_k + beta_{k+1} * Gm_{k+1} * keep_k,
    g' = g and keep = 1 without a threshold; with one, psi_k =
    surrogate'(m_k - v_th), g' = g * psi and keep = d v_k / d m_k =
    1 - v_th * psi. Then dx_k = (1 - beta_k) * Gm_k and dbeta_k =
    sum(Gm_k * (v_{k-1} - x_k)). Memory stays O(state), not O(K * state)
    tape nodes.
    """
    if any(e.size != 1 for e in etas):
        raise ShapeError("scan kernels take a scalar eta per filter")
    dt = np.asarray(dt, dtype=np.float64)
    if dt.ndim not in (1, 2) or dt.shape != x.shape[:dt.ndim]:
        raise ShapeError(f"dt must have shape ({x.shape[0]},) or {x.shape[:2]}, got {dt.shape}")
    K, E = x.shape[0], len(etas)
    if E > 1 and (x.ndim <= dt.ndim or x.shape[-1] % E):
        raise ShapeError(f"{E} stacked filters need a last axis of {E} equal blocks, "
                         f"got {x.shape}")
    if np.any(dt < 0):
        raise DataError("event gaps must be nonnegative")
    xv = x.data if x.ndim > 1 else x.data[:, None]  # each step a row the loops write into
    if E > 1:
        xv = xv.reshape(xv.shape[:-1] + (E, -1))
    record = is_recording(x, *etas)
    taus = np.array([float(softplus(float(e.data)) + 1.0) for e in etas])
    beta, dbeta_deta = _beta_and_chain(dt, taus, etas, xv.ndim, record)
    drive = (1.0 - beta) * xv
    count_macs(2 * xv.size, xv.size, xv.size)  # beta * v and (1 - beta) * x per slot
    out = psi = None
    if v_th is not None and not (record or smooth) and dt.size == K >= EVENT_PATH_MIN_K:
        out = _spike_raster(dt.reshape(-1) / taus[0], beta.reshape(-1), xv.reshape(K, -1),
                            drive.reshape(K, -1), v_th)
    if out is None:
        m, v = ealif_recurrence(beta, drive, v_th, alpha, smooth, keep_v=record)
        out = m
        if v_th is not None:
            u = m - v_th
            out = sigmoid(alpha * u) if smooth else heaviside(u)
            if record:
                psi = surrogate_grad(u, alpha)

    def bwd(g):
        g, keep = g.reshape(xv.shape), None
        if v_th is not None:
            g, keep = g * psi, 1.0 - v_th * psi
        Gm = np.empty_like(xv)  # adjoint of m_k
        carry = np.zeros(xv.shape[1:])
        betas = _step_betas(beta)
        for k in range(K - 1, -1, -1):
            if keep is not None:
                carry *= keep[k]
            np.add(g[k], carry, out=Gm[k])
            np.multiply(Gm[k], betas[k], out=carry)
        terms = np.empty_like(xv)  # (v_{k-1} - x_k) * Gm_k
        terms[0] = 0.0 - xv[0]
        np.subtract(v[:-1], xv[1:], out=terms[1:])
        terms *= Gm
        Gm *= 1.0 - beta  # now the x-gradient
        accumulate_grad(x, Gm.reshape(x.shape))
        for e, eta_e in enumerate(etas):
            at = (..., e, slice(None)) if E > 1 else ...  # filter e's block
            accumulate_grad(eta_e, np.full_like(eta_e.data, _eta_grad(dbeta_deta[at], terms[at])))

    return make_op(out.reshape(x.shape), (x, *etas), bwd)


def ealif_filter(x: Tensor, dt: np.ndarray, eta: Tensor | tuple[Tensor, ...]) -> Tensor:
    """EA-LIF without threshold or reset: the filtered state m, same shape as x.

    Shapes as in ``_ealif_scan``. A tuple of E etas runs E filters in one
    scan; each block's output and gradients are those of its filter run
    alone. Any squash of the output is the caller's
    (``backbone.linear_attention`` applies softplus to q and k).
    """
    return _ealif_scan(x, dt, (eta,) if isinstance(eta, Tensor) else tuple(eta))


def ealif_spike_scan(current: Tensor, dt: np.ndarray, eta: Tensor,
                     v_th: float = V_TH, alpha: float = ALPHA_STE,
                     smooth: bool = False) -> Tensor:
    """EA-LIF with threshold and soft reset: the spike train s, same shape
    as ``current``, with s_k = H(m_k - v_th) and v_k = m_k - v_th * s_k.
    Shapes as in ``_ealif_scan``."""
    if v_th <= 0:
        raise ConfigError(f"threshold must be positive, got {v_th}")
    s = _ealif_scan(current, dt, (eta,), v_th, alpha, smooth)
    count_spikes("spike_scan", s.data)
    return s
