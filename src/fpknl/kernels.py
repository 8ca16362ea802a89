"""Pointwise kernels: linear propagator, mean-shifted propagator, left inverse.

The forward kernel between times s < t is a Gaussian in x - dd @ y with
covariance ``diffusion * spread`` where ``spread = dn @ inv(nn)`` is
symmetric positive definite for t > s.  The inverse kernel is the same
formula with the time arguments swapped; its exponent is then sign
indefinite and its prefactor uses the magnitude of the determinant (the
formal expression is not real).  Whether an integral against it converges
is the operator layer's concern, not the kernel's.

With xi = xp - yp (the anchored x and the transported anchored y) and
C = -inv(spread) / (2 diffusion), the exponent is xi^T C xi.  Paired
points evaluate that directly.  Over a product of points the exponent is
expanded into row norms and one matrix product,

    xp^T C xp + yp^T C yp - 2 (xp C) yp^T,

with the row norms and the log prefactor carried as two extra columns of
that same product, so the only large array is the (rows, cols) block
itself, exponentiated in place.  The expansion subtracts terms of the size
of the squared coordinates, so both point sets are first shifted by one
common center (the midpoint of their row means).  xi is unchanged by the
shift; without it, on a grid a distance R from the anchors the absolute
error of every exponent grows like R^2 / (2 diffusion spread) machine
epsilons (about 1e-9 relative at R = 1000).

A matriciant that overflows double precision (long horizons) makes the
spread or the prefactor non-finite; evaluation then raises
KernelValidityError naming |t - s| instead of returning NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DeltaLimitError, KernelValidityError
from .model import ModelParams, _vector
from .variations import Matriciant, matriciant, require_spd

DELTA_TOL = 1e-9
COMPOSE_TOL = 1e-10


@dataclass(frozen=True)
class KernelContext:
    """Everything a kernel evaluation needs between fixed times s and t."""

    params: ModelParams
    m_fwd: Matriciant
    x_u_t: np.ndarray
    x_gamma: np.ndarray

    @property
    def t(self) -> float:
        return self.m_fwd.t

    @property
    def s(self) -> float:
        return self.m_fwd.s

    @cached_property
    def m_bwd(self) -> Matriciant:
        """Matriciant from t back to s, computed and checked against m_fwd
        on first access (only the inverse kernel needs it)."""
        m_bwd = matriciant(self.params, self.s, self.t)
        _check_mutual(self.m_fwd, m_bwd, self.params.dim)
        return m_bwd


def kernel_context(params: ModelParams, t: float, s: float,
                   x_gamma=None) -> KernelContext:
    n = params.dim
    x_gamma = np.zeros(n) if x_gamma is None else _vector(x_gamma, n, "x_gamma")
    traj = params.moment_trajectory(x_gamma, s)
    return KernelContext(params=params, m_fwd=matriciant(params, t, s),
                         x_u_t=traj.at(t), x_gamma=x_gamma)


def _require_finite(m: Matriciant, what: str, *values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise KernelValidityError(
            f"kernel {what} is not finite at |t - s| = {abs(m.tau):.6g}: "
            "the matriciant overflows double precision over this horizon"
        )


def _check_mutual(m_fwd: Matriciant, m_bwd: Matriciant, n: int) -> None:
    for m in (m_fwd, m_bwd):
        _require_finite(m, "matriciant", m.nn, m.dn, m.dd)
    full_fwd = np.block([[m_fwd.nn, np.zeros((n, n))], [m_fwd.dn, m_fwd.dd]])
    full_bwd = np.block([[m_bwd.nn, np.zeros((n, n))], [m_bwd.dn, m_bwd.dd]])
    err = float(np.max(np.abs(full_fwd @ full_bwd - np.eye(2 * n))))
    if err > COMPOSE_TOL * max(1.0, float(np.max(np.abs(full_fwd)))):
        raise ConfigurationError(
            f"forward/backward matriciants are not mutual inverses (error {err:.3e})"
        )


def _spread(m: Matriciant, strict: bool) -> tuple[np.ndarray, float]:
    """(symmetrized spread dn @ inv(nn), its determinant before symmetrizing)."""
    _require_finite(m, "matriciant", m.nn, m.dn, m.dd)
    w = np.linalg.solve(m.nn.T, m.dn.T).T
    det = float(np.linalg.det(w))
    _require_finite(m, "spread", w, det)
    if strict:
        require_spd(w, "kernel spread", KernelValidityError)
    return 0.5 * (w + w.T), det


def _evaluate(ctx: KernelContext, kind: str, x, y, outer: bool,
              strict: bool | None = None) -> np.ndarray:
    """Kernel of the given kind at paired points (outer=False: row i of x
    with row i of y, a single row broadcasting) or over their product
    (outer=True: an (rows of x, rows of y) matrix, from centered row norms
    and one matrix product).

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
    c = -0.5 / eps * np.linalg.inv(w)
    # a numpy scalar turns a zero determinant into inf for the check below
    pref = (2.0 * np.pi * eps) ** (-n / 2.0) * np.float64(abs(det)) ** -0.5
    _require_finite(m, "prefactor", pref)
    xp = np.asarray(x, dtype=float).reshape(-1, n) - xo
    yp = (np.asarray(y, dtype=float).reshape(-1, n) - yo) @ m.dd.T
    if not outer:
        xi = xp - yp
        return pref * np.exp(np.einsum("...j,jk,...k->...", xi, c, xi))
    center = 0.5 * (xp.mean(axis=0) + yp.mean(axis=0))
    xp -= center
    yp -= center
    xc = xp @ c
    # exponent plus log prefactor as one product:
    # [xc, xp^T C xp + log pref, 1] @ [-2 yp, 1, yp^T C yp]^T
    left = np.column_stack([xc, np.einsum("ij,ij->i", xc, xp) + np.log(pref),
                            np.ones(len(xp))])
    right = np.column_stack([-2.0 * yp, np.ones(len(yp)),
                             np.einsum("ij,ij->i", yp @ c, yp)])
    block = left @ right.T
    return np.exp(block, out=block)


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
