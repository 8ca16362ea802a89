"""Pointwise kernels: linear propagator, mean-shifted propagator, left inverse.

The forward kernel between times s < t is a Gaussian in x - dd @ y with
covariance ``diffusion * spread`` where ``spread = dn @ inv(nn)`` is
symmetric positive definite for t > s.  The inverse kernel is the same
formula with the time arguments swapped; its exponent is then sign
indefinite and its prefactor uses the magnitude of the determinant (the
formal expression is not real).  Whether an integral against it converges
is the operator layer's concern, not the kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DeltaLimitError, KernelValidityError
from .model import ModelParams, _vector
from .variations import Matriciant, matriciant

DELTA_TOL = 1e-9
COMPOSE_TOL = 1e-10


@dataclass(frozen=True)
class KernelContext:
    """Everything a kernel evaluation needs between fixed times s and t."""

    params: ModelParams
    m_fwd: Matriciant
    m_bwd: Matriciant
    x_u_t: np.ndarray
    x_gamma: np.ndarray

    @property
    def t(self) -> float:
        return self.m_fwd.t

    @property
    def s(self) -> float:
        return self.m_fwd.s


def kernel_context(params: ModelParams, t: float, s: float,
                   x_gamma=None) -> KernelContext:
    n = params.dim
    x_gamma = np.zeros(n) if x_gamma is None else _vector(x_gamma, n, "x_gamma")
    traj = params.moment_trajectory(x_gamma, s)
    m_fwd = matriciant(params, t, s)
    m_bwd = matriciant(params, s, t)
    _check_mutual(m_fwd, m_bwd, n)
    return KernelContext(params=params, m_fwd=m_fwd, m_bwd=m_bwd,
                         x_u_t=traj.at(t), x_gamma=x_gamma)


def _check_mutual(m_fwd: Matriciant, m_bwd: Matriciant, n: int) -> None:
    full_fwd = np.block([[m_fwd.nn, np.zeros((n, n))], [m_fwd.dn, m_fwd.dd]])
    full_bwd = np.block([[m_bwd.nn, np.zeros((n, n))], [m_bwd.dn, m_bwd.dd]])
    err = float(np.max(np.abs(full_fwd @ full_bwd - np.eye(2 * n))))
    if err > COMPOSE_TOL * max(1.0, float(np.max(np.abs(full_fwd)))):
        raise ConfigurationError(
            f"forward/backward matriciants are not mutual inverses (error {err:.3e})"
        )


def _spread(m: Matriciant, strict: bool) -> tuple[np.ndarray, float]:
    """(symmetrized spread dn @ inv(nn), its determinant before symmetrizing)."""
    w = np.linalg.solve(m.nn.T, m.dn.T).T
    det = float(np.linalg.det(w))
    ws = 0.5 * (w + w.T)
    if strict:
        scale = max(1.0, float(np.max(np.abs(w))))
        if float(np.max(np.abs(w - w.T))) > 1e-9 * scale:
            raise KernelValidityError("kernel spread is not symmetric")
        if np.any(np.linalg.eigvalsh(ws) <= 0):
            raise KernelValidityError("kernel spread is not positive definite")
    return ws, det


def _evaluate(ctx: KernelContext, kind: str, x, y, outer: bool,
              strict: bool | None = None) -> np.ndarray:
    """Kernel of the given kind at paired points (outer=False: row i of x
    with row i of y, a single row broadcasting) or over their product
    (outer=True: an (rows of x, rows of y) matrix).

    kind -> (matriciant, anchor subtracted from x, anchor from y, strict):
    lin is the drift-only propagator, nl the same Gaussian around the moment
    trajectory, nl_inv the nl formula with the times swapped.
    """
    if kind == "lin":
        m, xo, yo, default_strict = ctx.m_fwd, 0.0, 0.0, True
    elif kind == "nl":
        m, xo, yo, default_strict = ctx.m_fwd, ctx.x_u_t, ctx.x_gamma, True
    elif kind == "nl_inv":
        m, xo, yo, default_strict = ctx.m_bwd, ctx.x_gamma, ctx.x_u_t, False
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    if abs(m.tau) < DELTA_TOL:
        raise DeltaLimitError(
            f"|t - s| = {abs(m.tau):.3e} below {DELTA_TOL:.0e}: kernel degenerates to a delta"
        )
    w, det = _spread(m, default_strict if strict is None else strict)
    n, eps = ctx.params.dim, ctx.params.diffusion
    xp = np.asarray(x, dtype=float).reshape(-1, n) - xo
    yp = (np.asarray(y, dtype=float).reshape(-1, n) - yo) @ m.dd.T
    xi = xp[:, None, :] - yp[None, :, :] if outer else xp - yp
    expo = -0.5 / eps * np.einsum("...j,jk,...k->...", xi, np.linalg.inv(w), xi)
    pref = (2.0 * np.pi * eps) ** (-n / 2.0) * abs(det) ** (-0.5)
    return pref * np.exp(expo)


def _pointwise(ctx: KernelContext, kind: str, x, y, strict=None):
    vals = _evaluate(ctx, kind, x, y, outer=False, strict=strict)
    return vals if vals.size > 1 else float(vals[0])


def green_lin(ctx: KernelContext, x, y, strict: bool = True) -> np.ndarray:
    """Propagator of the drift-only linear equation from time s to time t."""
    return _pointwise(ctx, "lin", x, y, strict)


def green_nl(ctx: KernelContext, x, y, strict: bool = True) -> np.ndarray:
    """Evolution kernel of the mean-coupled equation: the linear kernel
    evaluated at (x - X(t), y - X(s)) along the moment trajectory."""
    return _pointwise(ctx, "nl", x, y, strict)


def green_nl_inv(ctx: KernelContext, x, y) -> np.ndarray:
    """Left-inverse kernel: forward formula with the times swapped.

    Evaluated as written: the exponent is generally sign indefinite (a
    growing Gaussian factor for t > s) and the prefactor uses |det|.
    """
    return _pointwise(ctx, "nl_inv", x, y)


def kernel_matrix(ctx: KernelContext, xs: np.ndarray, ys: np.ndarray,
                  kind: str = "nl") -> np.ndarray:
    """Dense kernel values over the product of output points xs and input
    points ys, both (N, dim) arrays.  kind is one of lin | nl | nl_inv."""
    return _evaluate(ctx, kind, xs, ys, outer=True)


def backward_quadratic_form(ctx: KernelContext, q_envelope: np.ndarray) -> np.ndarray:
    """Quadratic-coefficient matrix (in y) of the exponent of
    inverse-kernel times a Gaussian envelope exp(-(y-c)^T Q (y-c) / 2 eps).

    The integral of that product converges iff this matrix is negative
    definite.  For samples produced by the forward flow it never is; see
    the least-squares inverse in the evolution module.
    """
    eps = ctx.params.diffusion
    w, _ = _spread(ctx.m_bwd, strict=False)
    core = ctx.m_bwd.dd.T @ np.linalg.inv(w) @ ctx.m_bwd.dd
    q_envelope = np.atleast_2d(np.asarray(q_envelope, dtype=float))
    return -0.5 / eps * (core + q_envelope)
