"""Fundamental solution of the paired linear system behind the Riccati flow.

The Gaussian precision factor is carried as a fraction Q = num @ inv(den)
whose parts obey the linear pair

    d(num)/dt = L^T num,          num(s) = num0,
    d(den)/dt = 2 num - L den,    den(s) = den0,

with L the effective drift.  Propagating the pair instead of Q itself
keeps the flow linear and makes focal points (singular den) representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import FocalPointError, InputError, InvalidCovarianceError, KernelValidityError
from .model import ModelParams

# reciprocal condition number below which den counts as singular
FOCAL_RCOND = 1e-12
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Matriciant:
    """Blocks of the fundamental matrix of the pair system between times s and t.

    num(t) = nn @ num0
    den(t) = dn @ num0 + dd @ den0

    dd is also the mean propagator of the drift-only flow: a Gaussian mean
    moving with dm/dt = -L m satisfies m(t) = dd @ m(s).
    """

    t: float
    s: float
    nn: np.ndarray
    dn: np.ndarray
    dd: np.ndarray

    @property
    def tau(self) -> float:
        return self.t - self.s


def pair_generator(params: ModelParams) -> np.ndarray:
    """Block generator of the pair system, [[L^T, 0], [2I, -L]]."""
    n = params.dim
    lam = params.effective_drift
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = lam.T
    a[n:, :n] = 2.0 * np.eye(n)
    a[n:, n:] = -lam
    return a


def matriciant(params: ModelParams, t: float, s: float) -> Matriciant:
    """Exact blocks via one 2n x 2n matrix exponential (entire in t - s).

    Blocks that overflow double precision (long horizons) raise
    KernelValidityError naming |t - s|, so every kernel, packet and
    inverse move reads finite blocks."""
    n = params.dim
    tau = float(t) - float(s)
    with np.errstate(over="ignore", invalid="ignore"):
        m = expm(tau * pair_generator(params))
    if not np.isfinite(m).all():
        raise KernelValidityError(
            f"matriciant is not finite at |t - s| = {abs(tau):.6g}: "
            "it overflows double precision over this horizon"
        )
    return Matriciant(t=float(t), s=float(s),
                      nn=m[:n, :n], dn=m[n:, :n], dd=m[n:, n:])


def matriciant_rk4(params: ModelParams, t: float, s: float,
                   steps: int = 1000) -> Matriciant:
    """Fixed-step RK4 integration of the block ODE.

    Independent oracle for :func:`matriciant`; never the production path.
    """
    n = params.dim
    a = pair_generator(params)
    h = (float(t) - float(s)) / steps
    m = np.eye(2 * n)
    for _ in range(steps):
        k1 = a @ m
        k2 = a @ (m + 0.5 * h * k1)
        k3 = a @ (m + 0.5 * h * k2)
        k4 = a @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Matriciant(t=float(t), s=float(s),
                      nn=m[:n, :n], dn=m[n:, :n], dd=m[n:, n:])


def propagate_pair(m: Matriciant, num0: np.ndarray,
                   den0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    num0 = np.atleast_2d(np.asarray(num0, dtype=float))
    den0 = np.atleast_2d(np.asarray(den0, dtype=float))
    return m.nn @ num0, m.dn @ num0 + m.dd @ den0


def check_symmetric(a: np.ndarray, name: str, tol: float = SYMMETRY_TOL) -> None:
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise InputError(f"{name} must be symmetric to {tol:.0e} (relative)")


def _where(bad: np.ndarray) -> str:
    """' (component k)' for the first flagged matrix of a stack, '' for one matrix."""
    return "" if bad.ndim == 0 else f" (component {int(np.flatnonzero(bad)[0])})"


def require_spd(a: np.ndarray, what: str, error: type[Exception]) -> None:
    """Raise error unless each matrix of the (..., n, n) stack a is symmetric
    to 1e-9 relative and its symmetric part has a Cholesky factor."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    asym = np.abs(a - a.mT).max(axis=(-2, -1)) > 1e-9 * scale
    if asym.any():
        raise error(f"{what}{_where(asym)} is not symmetric")
    try:
        np.linalg.cholesky(0.5 * (a + a.mT))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(0.5 * (a + a.mT)).min(axis=-1)
        raise error(f"{what}{_where(low == low.min())} is not positive definite") from None


def fraction(num: np.ndarray, den: np.ndarray, density_valid: bool = False,
             symmetrize: bool = True) -> np.ndarray:
    """num @ inv(den) for one pair or (..., n, n) stacks (one SVD, solve and
    validity test, same arithmetic per matrix as alone), symmetrized by
    default; optionally checked positive definite.  symmetrize=False returns
    the raw fraction, which satisfies the quadratic matrix flow exactly even
    when it is not symmetric.

    Raises FocalPointError when den is singular to working precision and
    InvalidCovarianceError when a density-valid factor is requested but the
    result is not positive definite, naming the first failing component of
    a stack.
    """
    num = np.atleast_2d(np.asarray(num, dtype=float))
    den = np.atleast_2d(np.asarray(den, dtype=float))
    sv = np.linalg.svd(den, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = np.where(sv[..., 0] > 0, sv[..., -1] / sv[..., 0], 0.0)
    focal = rcond < FOCAL_RCOND
    if focal.any():
        raise FocalPointError(f"denominator factor{_where(focal)} singular "
                              f"(reciprocal condition {rcond[focal][0]:.3e})")
    q = np.linalg.solve(den.mT, num.mT).mT
    if density_valid:
        require_spd(q, "precision factor", InvalidCovarianceError)
    if symmetrize:
        q = 0.5 * (q + q.mT)
    return q


def riccati_factor(m: Matriciant, num0, den0, density_valid: bool = False,
                   symmetrize: bool = True) -> np.ndarray:
    """Propagate (num0, den0) through the matriciant and form the fraction.

    num0 must be symmetric; the initial fraction num0 @ inv(den0) solves the
    quadratic matrix flow dQ/dt + 2Q^2 - L^T Q - Q L = 0 and so does the
    returned factor.
    """
    num0 = np.atleast_2d(np.asarray(num0, dtype=float))
    check_symmetric(num0, "num0")
    num, den = propagate_pair(m, num0, den0)
    return fraction(num, den, density_valid=density_valid, symmetrize=symmetrize)
