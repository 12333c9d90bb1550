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
from .tensor import Tensor, accumulate_grad, is_recording, make_op, sigmoid, softplus


def heaviside(u: np.ndarray) -> np.ndarray:
    """Hard threshold; fires at exactly zero."""
    return (np.asarray(u) >= 0.0).astype(np.float64)


def surrogate_grad(u: np.ndarray, alpha: float) -> np.ndarray:
    """d/du of the surrogate: a*s(a*u)*(1-s(a*u))."""
    s = sigmoid(alpha * np.asarray(u, dtype=np.float64))
    return alpha * s * (1.0 - s)


def tau_from_eta(eta: Tensor) -> Tensor:
    """Membrane time constant tau = softplus(eta) + 1; always > 1."""
    return eta.softplus() + 1.0


def eta_for_tau(tau: float) -> float:
    """Inverse of tau_from_eta, for initialization."""
    if tau <= 1.0:
        raise ConfigError(f"tau must exceed 1, got {tau}")
    return float(np.log(np.expm1(tau - 1.0)))


def eta_for_tau_init(tau: float) -> float:
    """eta for a requested init tau, saturating at the tau -> 1 limit.

    The softplus(eta)+1 reparameterization keeps tau > 1 strictly, so a
    requested 1.0 maps to the closest representable setting (1 + 1e-9).
    """
    return eta_for_tau(max(float(tau), 1.0 + 1e-9))


def _beta_and_chain(dt: np.ndarray, eta_data: float,
                    ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """beta and d(beta)/d(eta) for the scalar eta of one scan.

    Both come shaped to broadcast against an ``ndim``-dimensional state
    sequence: [K] gaps give [K, 1, ...], [K, B] gaps give [K, B, 1, ...].
    """
    tau = float(softplus(eta_data) + 1.0)
    beta = np.exp(-dt / tau)
    # d beta / d tau = beta * dt / tau^2; d tau / d eta = sigmoid(eta)
    dbeta_deta = beta * dt / (tau * tau) * float(sigmoid(eta_data))
    shape = dt.shape + (1,) * (ndim - dt.ndim)
    return beta.reshape(shape), dbeta_deta.reshape(shape)


def _check_scan_args(x: Tensor, dt: np.ndarray, eta: Tensor) -> np.ndarray:
    if eta.size != 1:
        raise ShapeError("scan kernels take a scalar eta per call")
    dt = np.asarray(dt, dtype=np.float64)
    if dt.ndim not in (1, 2) or dt.shape != x.shape[:dt.ndim]:
        raise ShapeError(f"dt must have shape ({x.shape[0]},) or {x.shape[:2]}, got {dt.shape}")
    if np.any(dt < 0):
        raise DataError("event gaps must be nonnegative")
    return dt


def _eta_grad(dbeta_deta: np.ndarray, adj: np.ndarray, prev: np.ndarray,
              inp: np.ndarray) -> float:
    """sum_k dbeta_k/deta * sum(adj_k * (prev_k - inp_k)), added up from
    k = K-1 down to 0 as the reverse recurrence visits the steps.

    With [K, B] gaps each window's sum takes its own dbeta. ``prev`` is
    overwritten.
    """
    K, W = adj.shape[0], dbeta_deta[0].size  # W windows (1 for [K] gaps)
    prev -= inp
    prev *= adj
    per_step = (dbeta_deta.reshape(K, W) * prev.reshape(K, W, -1).sum(axis=2)).sum(axis=1)
    geta = 0.0
    for term in per_step[::-1].tolist():
        geta += term
    return geta


def ealif_filter(x: Tensor, dt: np.ndarray, eta: Tensor,
                 squash: str | None = "softplus") -> Tensor:
    """Event-driven low-pass filter without threshold or reset.

    m_k = beta_k * m_{k-1} + (1 - beta_k) * x_k with m_0 = 0 and
    beta_k = exp(-dt_k / tau). Optional elementwise squash of the output
    ("softplus" or None). x: [K, ...]; dt: [K], or [K, B] for a time-major
    batch x [K, B, ...] whose windows have their own gaps; eta: scalar
    parameter. The carried state is m itself (no reset on continuous
    features).

    Backward is hand-derived: the adjoint runs the recurrence in reverse,
    so memory stays O(state) rather than O(K * state) tape nodes.
    """
    dt = _check_scan_args(x, dt, eta)
    if squash not in (None, "softplus"):
        raise ConfigError(f"unsupported squash: {squash!r}")
    K = x.shape[0]
    xv = x.data
    beta, dbeta_deta = _beta_and_chain(dt, float(eta.data), xv.ndim)
    drive = (1.0 - beta) * xv  # (1 - beta_k) * x_k for every step at once
    m = np.empty_like(xv)
    prev = np.zeros(xv.shape[1:])
    for k in range(K):
        prev = m[k] = beta[k] * prev + drive[k]
    out = softplus(m) if squash == "softplus" else m

    def bwd(g):
        gm = g * sigmoid(m) if squash == "softplus" else np.asarray(g, dtype=np.float64)
        total = np.empty_like(xv)  # adjoint of m_k
        carry = np.zeros(xv.shape[1:])
        for k in range(K - 1, -1, -1):
            total[k] = t_k = gm[k] + carry
            carry = beta[k] * t_k
        m_prev = np.empty_like(xv)
        m_prev[0] = 0.0
        m_prev[1:] = m[:-1]
        accumulate_grad(x, (1.0 - beta) * total)
        accumulate_grad(eta, np.full_like(eta.data, _eta_grad(dbeta_deta, total, m_prev, xv)))

    return make_op(out, (x, eta), bwd)


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
    dt = _check_scan_args(current, dt, eta)
    if v_th <= 0:
        raise ConfigError(f"threshold must be positive, got {v_th}")
    K = current.shape[0]
    I = current.data
    tail = I.shape[1:]
    beta, dbeta_deta = _beta_and_chain(dt, float(eta.data), I.ndim)
    drive = (1.0 - beta) * I  # (1 - beta_k) * I_k for every step at once
    record = is_recording(current, eta)
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
        v_prev = np.empty_like(I)
        v_prev[0] = 0.0
        v_prev[1:] = v[:-1]
        accumulate_grad(current, (1.0 - beta) * Gm)
        accumulate_grad(eta, np.full_like(eta.data, _eta_grad(dbeta_deta, Gm, v_prev, I)))

    return make_op(s, (current, eta), bwd)
