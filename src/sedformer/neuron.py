"""Spiking neuron dynamics: the event-driven EA-LIF scans.

Two recurrence kernels carry hand-derived backward rules (``ealif_filter``
and ``ealif_spike_scan``). They keep memory per step O(state) instead of
materializing one tape node per event per channel. Per-step LIF and EA-LIF
updates composed from tape primitives live with the tests
(``tests/oracles.py``) as an independent reference for the scans.

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


def _beta_and_chain(dt: np.ndarray, etas: tuple[Tensor, ...], ndim: int,
                    record: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """beta and, if ``record``, d(beta)/d(eta) for the scalar etas of one scan.

    Both come shaped to broadcast against an ``ndim``-dimensional state
    sequence: [K] gaps give [K, 1, ...], [K, B] gaps give [K, B, 1, ...],
    and E > 1 etas [..., E, 1], one per filter of the stack.
    """
    taus = np.array([float(softplus(float(e.data)) + 1.0) for e in etas])
    stack = (len(etas), 1) if len(etas) > 1 else ()
    shape = dt.shape + (1,) * (ndim - dt.ndim - len(stack)) + stack
    beta = np.exp(-dt[..., None] / taus)  # dt.shape + (E,)
    if not record:
        return beta.reshape(shape), None
    # d beta / d tau = beta * dt / tau^2; d tau / d eta = sigmoid(eta)
    sig = np.array([float(sigmoid(float(e.data))) for e in etas])
    dbeta_deta = beta * dt[..., None] / (taus * taus) * sig
    return beta.reshape(shape), dbeta_deta.reshape(shape)


def _check_scan_args(x: Tensor, dt: np.ndarray, etas: tuple[Tensor, ...]) -> np.ndarray:
    if any(e.size != 1 for e in etas):
        raise ShapeError("scan kernels take a scalar eta per filter")
    dt = np.asarray(dt, dtype=np.float64)
    if dt.ndim not in (1, 2) or dt.shape != x.shape[:dt.ndim]:
        raise ShapeError(f"dt must have shape ({x.shape[0]},) or {x.shape[:2]}, got {dt.shape}")
    if len(etas) > 1 and (x.ndim <= dt.ndim or x.shape[-1] % len(etas)):
        raise ShapeError(f"{len(etas)} stacked filters need a last axis of {len(etas)} "
                         f"equal blocks, got {x.shape}")
    if np.any(dt < 0):
        raise DataError("event gaps must be nonnegative")
    return dt


def _eta_grad(dbeta_deta: np.ndarray, terms: np.ndarray) -> float:
    """sum_k dbeta_k/deta * sum(terms_k), with terms_k = adj_k * (prev_k - inp_k),
    added up from k = K-1 down to 0 as the reverse recurrence visits the steps.

    With [K, B] gaps each window's sum takes its own dbeta.
    """
    K, W = terms.shape[0], dbeta_deta[0].size  # W windows (1 for [K] gaps)
    per_step = (dbeta_deta.reshape(K, W) * terms.reshape(K, W, -1).sum(axis=2)).sum(axis=1)
    return float(np.cumsum(per_step[::-1])[-1])  # in sequence; .sum() would add in pairs


def ealif_filter(x: Tensor, dt: np.ndarray, eta: Tensor | tuple[Tensor, ...],
                 squash: str | None = "softplus") -> Tensor:
    """Event-driven low-pass filter without threshold or reset.

    m_k = beta_k * m_{k-1} + (1 - beta_k) * x_k with m_0 = 0 and
    beta_k = exp(-dt_k / tau). Optional elementwise squash of the output
    ("softplus" or None). x: [K, ...]; dt: [K], or [K, B] for a time-major
    batch x [K, B, ...] whose windows have their own gaps; eta: scalar
    parameter. The carried state is m itself (no reset on continuous
    features).

    A tuple of E etas runs E filters in one scan over x as [K, ..., E, n]
    (the last axis holds E equal blocks); each block's output and gradients
    are those of its filter run alone.

    Backward is hand-derived: the adjoint runs the recurrence in reverse,
    so memory stays O(state) rather than O(K * state) tape nodes.
    """
    etas = (eta,) if isinstance(eta, Tensor) else tuple(eta)
    dt = _check_scan_args(x, dt, etas)
    if squash not in (None, "softplus"):
        raise ConfigError(f"unsupported squash: {squash!r}")
    K, E = x.shape[0], len(etas)
    xv = x.data if E == 1 else x.data.reshape(x.shape[:-1] + (E, -1))
    beta, dbeta_deta = _beta_and_chain(dt, etas, xv.ndim, is_recording(x, *etas))
    drive = (1.0 - beta) * xv  # (1 - beta_k) * x_k for every step at once
    m = np.empty_like(xv)
    prev = np.zeros(xv.shape[1:])
    for k in range(K):
        prev = m[k] = beta[k] * prev + drive[k]
    out = softplus(m) if squash == "softplus" else m
    count_macs(2 * xv.size, xv.size, xv.size)  # beta * m and (1 - beta) * x per slot

    def bwd(g):
        g = g.reshape(m.shape)
        gm = g * sigmoid(m) if squash == "softplus" else g
        total = np.empty_like(xv)  # adjoint of m_k
        carry = np.zeros(xv.shape[1:])
        for k in range(K - 1, -1, -1):
            total[k] = t_k = gm[k] + carry
            carry = beta[k] * t_k
        terms = np.empty_like(xv)  # (m_{k-1} - x_k) * total_k
        terms[0] = 0.0 - xv[0]
        np.subtract(m[:-1], xv[1:], out=terms[1:])
        terms *= total
        accumulate_grad(x, ((1.0 - beta) * total).reshape(x.shape))
        for e, eta_e in enumerate(etas):
            at = (..., e, slice(None)) if E > 1 else ...  # filter e's block
            accumulate_grad(eta_e, np.full_like(eta_e.data, _eta_grad(dbeta_deta[at], terms[at])))

    return make_op(out.reshape(x.shape), (x, *etas), bwd)


def ealif_spike_scan(current: Tensor, dt: np.ndarray, eta: Tensor,
                     v_th: float = 1.0, alpha: float = 4.0,
                     smooth: bool = False) -> Tensor:
    """Event-driven LIF with threshold and soft reset, over a whole scan.

    For k = 1..K (v_0 = 0):
        beta_k = exp(-dt_k / tau)
        m_k = beta_k * v_{k-1} + (1 - beta_k) * I_k
        s_k = H(m_k - v_th)           (surrogate gradient)
        v_k = m_k - v_th * s_k
    Returns the spike train s, same shape as ``current`` [K, ...]. dt is
    [K], or [K, B] for a time-major batch of windows with their own gaps.

    Backward (hand-derived, reverse recurrence):
        psi_k   = surrogate'(m_k - v_th)
        Gm_k    = Gs_k * psi_k + Gv_k * (1 - v_th * psi_k)
        dI_k   += (1 - beta_k) * Gm_k
        dbeta_k = sum(Gm_k * (v_{k-1} - I_k))
        Gv_{k-1} = beta_k * Gm_k
    """
    dt = _check_scan_args(current, dt, (eta,))
    if v_th <= 0:
        raise ConfigError(f"threshold must be positive, got {v_th}")
    K = current.shape[0]
    I = current.data
    tail = I.shape[1:]
    record = is_recording(current, eta)
    beta, dbeta_deta = _beta_and_chain(dt, (eta,), I.ndim, record)
    drive = (1.0 - beta) * I  # (1 - beta_k) * I_k for every step at once
    m = np.empty_like(I)
    v = np.empty_like(I) if record else None  # post-reset states, for the backward
    v_prev = np.zeros(tail)
    for k in range(K):
        m_k = m[k] = beta[k] * v_prev + drive[k]
        if smooth:
            v_prev = m_k - v_th * sigmoid(alpha * (m_k - v_th))
        else:
            v_prev = m_k - v_th * (m_k >= v_th)  # H(m - v_th): fires at equality
        if record:
            v[k] = v_prev
    s = sigmoid(alpha * (m - v_th)) if smooth else heaviside(m - v_th)
    count_macs(2 * I.size, I.size, I.size)  # beta * v and (1 - beta) * I per slot
    count_spikes("spike_scan", s)
    if not record:
        return Tensor(s)
    psi = surrogate_grad(m - v_th, alpha)

    def bwd(g):
        g_psi = g * psi
        keep = 1.0 - v_th * psi  # d v_k / d m_k
        Gm = np.empty_like(I)  # adjoint of m_k
        Gv = np.zeros(tail)
        for k in range(K - 1, -1, -1):
            Gm[k] = gm_k = g_psi[k] + Gv * keep[k]
            Gv = beta[k] * gm_k
        terms = np.empty_like(I)  # (v_{k-1} - I_k) * Gm_k
        terms[0] = 0.0 - I[0]
        np.subtract(v[:-1], I[1:], out=terms[1:])
        terms *= Gm
        accumulate_grad(current, (1.0 - beta) * Gm)
        accumulate_grad(eta, np.full_like(eta.data, _eta_grad(dbeta_deta, terms)))

    return make_op(s, (current, eta), bwd)
