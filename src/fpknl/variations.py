"""Fundamental solution of the paired linear system behind the Riccati flow.

The paper's Gaussian precision factor is a fraction Q = num @ inv(den)
whose parts obey the linear pair

    d(num)/dt = L^T num,          num(s) = num0,
    d(den)/dt = 2 num - L den,    den(s) = den0,

with L the effective drift.  The pair keeps the flow linear through focal
points (singular den); a density meets none, so mixtures carry S = inv(Q)
moved by dd and the spread w, the two blocks a Matriciant holds (bounded
for a stable drift, doubled to any horizon); ``fraction`` forms Q once.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import FocalPointError, InputError, InvalidCovarianceError, KernelValidityError
from .model import ModelParams, require_finite

# reciprocal condition number below which den counts as singular
FOCAL_RCOND = 1e-12
# largest 1-norm of a chunk that expm takes with no squaring of its own
# (theta_13, Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
THETA_13 = 5.37


@dataclass(frozen=True, eq=False)
class Matriciant:
    """The pair's fundamental matrix [[nn, 0], [dn, dd]] from s to t, held as
    the mean propagator dd (m(t) = dd @ m(s)) and the spread w = dn @ inv(nn)
    (S = inv(Q) moves to dd S dd^T + w): both stay bounded for a stable drift,
    where nn = inv(dd)^T grows.  nn and dn = w @ nn are derived, once each."""

    t: float
    s: float
    dd: np.ndarray
    w: np.ndarray

    @cached_property
    def nn(self) -> np.ndarray:
        """inv(dd)^T.  Past double precision (a mode that decays over a long
        horizon takes dd to a subnormal or to 0) it does not exist, and
        KernelValidityError names |t - s|, with no numpy warning."""
        with contextlib.suppress(np.linalg.LinAlgError):  # dd is 0
            nn = np.linalg.inv(self.dd).T  # numpy's own errstate: inf, no warning
            if np.isfinite(nn).all():
                return nn
        raise KernelValidityError(f"inverse of dd is not finite at |t - s| = "
                                  f"{abs(self.t - self.s):.6g}: dd decays past double "
                                  "precision over this horizon")

    @cached_property
    def dn(self) -> np.ndarray:
        return self.w @ self.nn

    @classmethod
    def of_fundamental(cls, t: float, s: float, m: np.ndarray) -> "Matriciant":
        """From the pair system's fundamental matrix m from s to t."""
        n = len(m) // 2
        return cls(float(t), float(s), m[n:, n:],
                   np.linalg.solve(m[:n, :n].T, m[n:, :n].T).T)


def pair_generator(params: ModelParams) -> np.ndarray:
    """Block generator of the pair system, [[L^T, 0], [2I, -L]]."""
    n = params.dim
    lam = params.effective_drift
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = lam.T
    a[n:, n:] = -lam
    np.fill_diagonal(a[n:, :n], 2.0)
    return a


def matriciant(params: ModelParams, t: float, s: float) -> Matriciant:
    """dd and w from one expm over (t - s) / 2^k, with k the least that
    brings the chunk's 1-norm to at most THETA_13 (0 for a short horizon;
    taken from the exponents, so no |t - s| up to the largest double
    overflows it), then k doublings dd <- dd^2, w <- w + dd w dd^T (Van Loan, IEEE TAC 23,
    1978).  At t == s the blocks are dd = I and w = 0, with no expm.  A NaN
    or infinite t or s raises InputError; a dd or w that overflows double
    precision (a mode growing over a long horizon) raises
    KernelValidityError naming |t - s|."""
    require_finite(InputError, "time t", t)
    require_finite(InputError, "time s", s)
    if t == s:
        n = params.dim
        return Matriciant(float(t), float(s), np.eye(n), np.zeros((n, n)))
    a = pair_generator(params)
    tau = float(t) - float(s)
    # |tau| = mant 2^k_tau exactly, so mant's product with the 1-norm has
    # the bits of tau's, scaled by 2^-k_tau, and cannot overflow
    mant, k_tau = math.frexp(abs(tau))
    norm = max(map(sum, zip(*np.abs(a).tolist())))  # 1-norm, columns summed in order
    frac, k = math.frexp(mant * norm / THETA_13)
    k = max(0, k_tau + k - (frac == 0.5))
    # one chunk of 1-norm at most THETA_13 is bounded by e^THETA_13: only
    # doublings, or a horizon that overflowed, can overflow
    risky = k or not math.isfinite(tau)
    with np.errstate(over="ignore", invalid="ignore") if risky else contextlib.nullcontext():
        m = Matriciant.of_fundamental(t, s, expm(math.ldexp(tau, -k) * a))
        for _ in range(k):
            m = Matriciant(m.t, m.s, m.dd @ m.dd, m.w + m.dd @ m.w @ m.dd.T)
    if risky and not np.isfinite([m.dd, m.w]).all():
        raise KernelValidityError(f"matriciant is not finite at |t - s| = {abs(tau):.6g}: "
                                  "it overflows double precision over this horizon")
    return m


def matriciant_rk4(params: ModelParams, t: float, s: float,
                   steps: int = 1000) -> Matriciant:
    """Fixed-step RK4 integration of the block ODE: an independent oracle
    for :func:`matriciant`, never the production path."""
    a = pair_generator(params)
    h = (float(t) - float(s)) / steps
    m = np.eye(len(a))
    for _ in range(steps):
        k1 = a @ m
        k2 = a @ (m + 0.5 * h * k1)
        k3 = a @ (m + 0.5 * h * k2)
        k4 = a @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Matriciant.of_fundamental(t, s, m)


def propagate_pair(m: Matriciant, num0: np.ndarray,
                   den0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    num0, den0 = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (num0, den0))
    return m.nn @ num0, m.dn @ num0 + m.dd @ den0


def _where(bad: np.ndarray) -> str:
    """' (component k)' for the first flagged matrix of a stack, '' for one matrix."""
    return "" if bad.ndim == 0 else f" (component {int(np.flatnonzero(bad)[0])})"


def require_spd(a: np.ndarray, what: str, error: type[Exception]) -> np.ndarray:
    """The symmetric part of the (..., n, n) stack a; raise error unless
    each matrix is finite, symmetric to 1e-9 relative and its symmetric
    part has a Cholesky factor."""
    if a.ndim == 2:
        # one matrix, as a plan's spread is: its n^2 entries are checked as
        # floats, at a fraction of the cost of numpy calls over a stack
        rows = a.tolist()
        if not all(math.isfinite(x) for row in rows for x in row):
            raise error(f"{what} is not finite")
        size = max(1.0, max(abs(x) for row in rows for x in row))
        if any(abs(x - rows[j][i]) > 1e-9 * size for i, row in enumerate(rows)
               for j, x in enumerate(row)):
            raise error(f"{what} is not symmetric")
    else:
        size = np.abs(a).max(axis=(-2, -1))  # max propagates nan
        finite = np.isfinite(size)
        if not finite.all():
            raise error(f"{what}{_where(~finite)} is not finite")
        asym = np.abs(a - a.mT).max(axis=(-2, -1)) > 1e-9 * np.maximum(1.0, size)
        if asym.any():
            raise error(f"{what}{_where(asym)} is not symmetric")
    sym = 0.5 * (a + a.mT)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(sym).min(axis=-1)
        raise error(f"{what}{_where(low == low.min())} is not positive definite") from None
    return sym


def fraction(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The precision num @ inv(den) for one pair or (..., n, n) stacks (one
    SVD, solve and validity test, same arithmetic per matrix as alone),
    checked symmetric positive definite and then symmetrized.

    Raises FocalPointError when den is singular to working precision and
    InvalidCovarianceError when the result is not symmetric positive
    definite, naming the first failing component of a stack.
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
    return require_spd(q, "precision factor", InvalidCovarianceError)
