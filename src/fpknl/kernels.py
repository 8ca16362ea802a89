"""One Gaussian kernel over a directed context.

A KernelContext holds one matriciant from time s to time t and the
moment-frame anchors at those times; it is the plan the evolution operator
applies, and mixtures move along it.  ``ctx.reversed()``, the move back
from t to s that the analytic inverse takes, is the exact block inverse
(no second matrix exponential) with the anchors swapped.  Kernels run
forward in time only (s < t; backward, KernelValidityError): the kernel
is a Gaussian in (x - X(t)) - dd @ (y - X(s)) with covariance
``diffusion * spread`` where ``spread = dn @ inv(nn)`` is symmetric
positive definite.  With zero anchors (``kernel_context(params, t, s)``)
it is the propagator of the drift-only linear equation; anchored on the
moment trajectory it is the mean-coupled kernel, the linear one moved
into the moment frame.  Backward, the same formula has a sign-indefinite
exponent and an integral against it diverges for every forward image,
so the sampled inverse solves the forward quadrature instead.

With xi = xp - yp (the anchored x and the transported anchored y) and
C = -inv(spread) / (2 diffusion), the exponent is xi^T C xi.  Paired
points evaluate that directly.  Over a product of points the exponent is
expanded into row norms and one matrix product,

    xp^T C xp + yp^T C yp - 2 (xp C) yp^T,

with the row norms and the log prefactor carried as two extra columns of
that same product, so the only large array is the (rows, cols) block
itself, exponentiated in place.  That product and its exponential are
``exp_product``, the one Gaussian evaluator: mixture evaluation (packets
module) calls it too, with the quadratic features of its points on one
side and each component's exponent coefficients on the other.  The
expansion subtracts terms of the size
of the squared coordinates, so both point sets are first shifted by one
common center (the midpoint of their row means).  xi is unchanged by the
shift; without it, on a grid a distance R from the anchors the absolute
error of every exponent grows like R^2 / (2 diffusion spread) machine
epsilons (about 1e-9 relative at R = 1000).

A matriciant that overflows double precision (long horizons) is never
built: ``matriciant`` raises KernelValidityError naming |t - s|.
kernel_context raises the same error when the moment trajectory overflows
an anchor, and evaluation when the spread or the prefactor overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeltaLimitError, KernelValidityError
from .model import ModelParams, _vector
from .variations import Matriciant, matriciant, require_spd

DELTA_TOL = 1e-9


@dataclass(frozen=True)
class KernelContext:
    """A move from time m.s to time m.t, in either direction: the matriciant
    m and the moment-frame anchors at those times, x_start at m.s
    (subtracted from the input point) and x_end at m.t (subtracted from the
    output point)."""

    params: ModelParams
    m: Matriciant
    x_start: np.ndarray
    x_end: np.ndarray

    @property
    def t(self) -> float:
        return self.m.t

    @property
    def s(self) -> float:
        return self.m.s

    def reversed(self) -> "KernelContext":
        """Left-inverse context from t back to s: the exact inverse of the
        fundamental matrix [[nn, 0], [dn, dd]], with the anchors swapped."""
        m = self.m
        nn, dd = np.linalg.inv(m.nn), np.linalg.inv(m.dd)
        back = Matriciant(t=m.s, s=m.t, nn=nn, dn=-dd @ m.dn @ nn, dd=dd)
        return KernelContext(self.params, back, x_start=self.x_end, x_end=self.x_start)


def kernel_context(params: ModelParams, t: float, s: float,
                   x_start=None) -> KernelContext:
    """Context from s to t anchored on the moment trajectory through x_start
    at s; without x_start both anchors are zero (the drift-only kernel),
    with no trajectory to overflow where the matriciant does not.  An
    anchor that overflows double precision raises KernelValidityError."""
    n = params.dim
    if x_start is None:
        x_start = x_end = np.zeros(n)
    else:
        x_start = _vector(x_start, n, "x_start")
        x_end = params.moment_trajectory(x_start, s).at(t)
        if not (np.isfinite(x_start).all() and np.isfinite(x_end).all()):
            raise KernelValidityError(
                f"moment-frame anchor is not finite at |t - s| = {abs(t - s):.6g}: "
                "the moment trajectory overflows double precision over this horizon"
            )
    return KernelContext(params, matriciant(params, t, s), x_start, x_end)


def _require_finite(m: Matriciant, what: str, *values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise KernelValidityError(
            f"kernel {what} is not finite at |t - s| = {abs(m.tau):.6g}: "
            "the matriciant overflows double precision over this horizon"
        )


def _spread(m: Matriciant) -> tuple[np.ndarray, float]:
    """(symmetrized spread dn @ inv(nn), its determinant before symmetrizing);
    the spread must be positive definite."""
    w = np.linalg.solve(m.nn.T, m.dn.T).T
    det = float(np.linalg.det(w))
    _require_finite(m, "spread", w, det)
    require_spd(w, "kernel spread", KernelValidityError)
    return 0.5 * (w + w.T), det


def _frame(ctx: KernelContext, x, y):
    """(C, prefactor, anchored x rows, transported anchored y rows)."""
    m = ctx.m
    if m.tau < 0:
        raise KernelValidityError(f"kernel requested backward in time (t - s = {m.tau:.6g}); "
                                  "kernels run forward only, inverse_evolve inverts")
    if m.tau < DELTA_TOL:
        raise DeltaLimitError(
            f"|t - s| = {m.tau:.3e} below {DELTA_TOL:.0e}: kernel degenerates to a delta"
        )
    w, det = _spread(m)
    n, eps = ctx.params.dim, ctx.params.diffusion
    c = -0.5 / eps * np.linalg.inv(w)
    # a numpy scalar turns a zero determinant into inf for the check below
    pref = (2.0 * np.pi * eps) ** (-n / 2.0) * np.float64(det) ** -0.5
    _require_finite(m, "prefactor", pref)
    xp = np.asarray(x, dtype=float).reshape(-1, n) - ctx.x_end
    yp = (np.asarray(y, dtype=float).reshape(-1, n) - ctx.x_start) @ m.dd.T
    return c, pref, xp, yp


def kernel(ctx: KernelContext, x, y) -> np.ndarray | float:
    """Kernel at paired points: row i of x with row i of y, a single row
    broadcasting; a single value comes back as a float."""
    c, pref, xp, yp = _frame(ctx, x, y)
    xi = xp - yp
    vals = pref * np.exp(np.einsum("...j,jk,...k->...", xi, c, xi))
    return vals if vals.size > 1 else float(vals[0])


def kernel_matrix(ctx: KernelContext, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Dense kernel values over the product of output points xs and input
    points ys, both (N, dim) arrays, from centered row norms and one
    matrix product."""
    c, pref, xp, yp = _frame(ctx, xs, ys)
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
    return exp_product(left, right.T)


def exp_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """exp(left @ right): the one Gaussian evaluator.  One factor holds the
    quadratic features of the points, the other the coefficients of the
    exponents, so each entry is one exponent at one point; the product is
    exponentiated in place, leaving it the only large array."""
    block = left @ right
    return np.exp(block, out=block)

