"""One Gaussian kernel over a directed context.

A KernelContext holds one matriciant from time s to time t and the
moment-frame anchors at those times; it is the plan the evolution operator
applies, and mixtures move along it.  ``ctx.reversed()``, the move back
from t to s that the analytic inverse takes, is the exact block inverse
(no second matrix exponential) with the anchors swapped.  Kernels run
forward in time only (s < t; backward, KernelValidityError): the kernel
is a Gaussian in (x - X(t)) - dd @ (y - X(s)) with covariance
``diffusion * spread`` where the matriciant's ``spread = w`` is symmetric
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
that same product.  ``kernel_features`` builds those features once per
call: it checks the context, centers both point sets and decides whether
any exponent may underflow.  Any row slice of its left factor gives those
rows of the kernel, and any column slice of its right factor those
columns, so a consumer takes one cache-sized block of rows at a time
(``model.row_blocks``) through the product, the in-place exp and its own
use of the block while the block stays in cache.  The quadrature operator
takes only the columns that start runs along the grid's last axis and
moves them to the other nodes by two exponential tables (evolution
module), so it never holds the N x N matrix; the sampled inverse holds
the band of it where the kernel is above e^-40 of its peak as separate
blocks (``input_width``, the kernel's standard deviation in y per axis,
sets that band), and ``kernel_matrix`` is the single block of all rows.
That product and its exponential are ``exp_product``, the one Gaussian
evaluator: mixture evaluation (packets module) calls it too, with the
quadratic features of its points on one side and each component's
exponent coefficients on the other.  The expansion subtracts terms of
the size of the squared coordinates, so both point sets are first
shifted by one common center (the midpoint of their row means).  xi is
unchanged by the shift; without it, on a grid a distance R from the
anchors the absolute error of every exponent grows like
R^2 / (2 diffusion spread) machine epsilons (about 1e-9 relative at
R = 1000).

Points are (N, dim) arrays, or one (dim,) point; any other shape raises
InputError rather than being re-read as points of another dimension.  An
empty point set gives an empty kernel.

Kernel matrix entries below the smallest normal double are zero, never
subnormal.  numpy's exp (2.4.6, one core of a Xeon) takes about 1.2 ns
per entry whose result is a normal double, 18 ns per entry that
underflows to zero and 125-135 ns per subnormal result, and the wide
grids of the sampled inverse put about 8% of their entries there.  So
kernel_features bounds the lowest exponent over all pairs from the
corners of the box that the point differences fill (the exponent is
concave in the difference), and only when that bound lies below LOG_TINY
does exp_product look for exponents under LOG_TINY, block by block: a
block that holds some has them zeroed before the exp and again after it.
Every other block, mixture evaluation included, takes the single
in-place exp.

A matriciant (dd, w) stays bounded at every horizon for a stable drift; a
mode growing along the move (unstable forward, stable backward) overflows
it, and ``matriciant`` raises KernelValidityError naming |t - s|, as do
kernel_context for an overflowing anchor and evaluation for an
overflowing normalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DeltaLimitError, InputError, KernelValidityError
from .model import ModelParams, _vector, require_finite
from .variations import Matriciant, matriciant, require_spd

DELTA_TOL = 1e-9
# exponents below log(smallest normal double) give subnormals or zero
LOG_TINY = float(np.log(np.finfo(float).tiny))
# relative rounding of the feature product, against its largest terms
ROUNDING_ALLOWANCE = 2.0 ** -40


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

    @functools.cached_property
    def exponent(self) -> np.ndarray:
        """C = -inv(spread) / (2 diffusion), the kernel's exponent xi^T C xi,
        computed once per context and read-only.  The kernel exists forward
        in time only: a backward move raises KernelValidityError, a move
        shorter than DELTA_TOL DeltaLimitError, and a spread that is not
        symmetric positive definite KernelValidityError."""
        m = self.m
        tau = m.t - m.s
        if tau < 0:
            raise KernelValidityError(f"kernel requested backward in time (t - s = {tau:.6g}); "
                                      "kernels run forward only, inverse_evolve inverts")
        if tau < DELTA_TOL:
            raise DeltaLimitError(
                f"|t - s| = {tau:.3e} below {DELTA_TOL:.0e}: kernel degenerates to a delta"
            )
        require_spd(m.w, "kernel spread", KernelValidityError)
        c = -0.5 / self.params.diffusion * np.linalg.inv(0.5 * (m.w + m.w.T))
        c.flags.writeable = False
        return c

    def reversed(self) -> "KernelContext":
        """Left-inverse context from t back to s, with the anchors swapped:
        the inverse of dd and the spread -inv(dd) w inv(dd)^T that takes
        off exactly what the forward w added (recomputed from inverted
        blocks, a covariance roundtrip lost 2.2e-11, not 2.8e-14, at drift 2)."""
        m = self.m
        dd = np.linalg.inv(m.dd)
        back = Matriciant(t=m.s, s=m.t, dd=dd, w=-dd @ m.w @ dd.T)
        return KernelContext(self.params, back, x_start=self.x_end, x_end=self.x_start)

    def reanchored(self, x_start) -> "KernelContext":
        """The same move and matriciant, anchored on the moment trajectory
        through x_start at s; an end anchor that overflows double precision
        raises KernelValidityError."""
        x_start = _vector(x_start, self.params.dim, "x_start")
        x_end = self.params.moment_trajectory(x_start, self.s).at(self.t)
        if not np.isfinite(x_end).all():
            raise KernelValidityError(
                f"moment-frame anchor is not finite at |t - s| = {abs(self.t - self.s):.6g}: "
                "the moment trajectory overflows double precision over this horizon"
            )
        return KernelContext(self.params, self.m, x_start, x_end)


def _require_same_dim(field, ctx: KernelContext) -> None:
    if field.dim != ctx.params.dim:
        raise InputError(f"a {field.dim}D {type(field).__name__} cannot move "
                         f"along a {ctx.params.dim}D plan")


def kernel_context(params: ModelParams, t: float, s: float,
                   x_start=None) -> KernelContext:
    """Context from s to t anchored on the moment trajectory through x_start
    at s; without x_start both anchors are zero (the drift-only kernel),
    with no trajectory to overflow where the matriciant does not.  A NaN
    or infinite t or s raises InputError (the matriciant checks them before
    the trajectory runs); an anchor that overflows double precision raises
    KernelValidityError."""
    zero = np.zeros(params.dim)
    ctx = KernelContext(params, matriciant(params, t, s), zero, zero)
    return ctx if x_start is None else ctx.reanchored(x_start)


def _points(x, n: int) -> np.ndarray:
    """x as an (N, n) array of points: an (N, n) array or one (n,) point;
    anything else is None."""
    pts = np.asarray(x, dtype=float)
    if pts.shape == (n,):
        return pts[None]
    return pts if pts.ndim == 2 and pts.shape[1] == n else None


def input_width(ctx: KernelContext) -> np.ndarray:
    """sigma_i, the kernel's standard deviation along axis i of the input
    variable y at a fixed output point x: y is centered on x_start +
    dd^-1 (x - x_end) with covariance diffusion dd^-1 w dd^-T, the reversed
    move's spread with its sign flipped.  A singular dd, whose kernel is
    flat in y, raises LinAlgError."""
    return np.sqrt(-ctx.params.diffusion * np.diagonal(ctx.reversed().m.w))


def _frame(ctx: KernelContext, x, y):
    """(C, prefactor, anchored x rows, transported anchored y rows)."""
    c = ctx.exponent
    m = ctx.m
    n, eps = ctx.params.dim, ctx.params.diffusion
    xs, ys = _points(x, n), _points(y, n)
    if xs is None or ys is None:
        raise InputError(
            f"kernel points must be (N, {n}) arrays or one ({n},) point in {n}D, got "
            f"x of shape {np.shape(x)} and y of shape {np.shape(y)}"
        )
    det = np.linalg.det(m.w)  # a numpy scalar: a zero determinant gives pref inf
    pref = (2.0 * np.pi * eps) ** (-n / 2.0) * det ** -0.5
    require_finite(KernelValidityError, f"kernel normalization at |t - s| = {m.t - m.s:.6g}",
                   det, pref)
    return c, pref, xs - ctx.x_end, (ys - ctx.x_start) @ m.dd.T


def kernel(ctx: KernelContext, x, y) -> np.ndarray | float:
    """Kernel at paired points: row i of x with row i of y, a single row
    broadcasting; a single value comes back as a float."""
    c, pref, xp, yp = _frame(ctx, x, y)
    if len(xp) != len(yp) and 1 not in (len(xp), len(yp)):
        raise InputError(f"paired kernel points differ in number: {len(xp)} x "
                         f"against {len(yp)} y rows")
    xi = xp - yp
    vals = pref * np.exp(np.einsum("...j,jk,...k->...", xi, c, xi))
    return float(vals[0]) if vals.size == 1 else vals


def kernel_features(ctx: KernelContext, xs, ys) -> tuple[np.ndarray, np.ndarray, bool]:
    """(left, right, underflow) with ``exp_product(left, right, underflow)``
    the kernel over the product of output points xs and input points ys:
    the centered features [xc, xp^T C xp + log pref, 1] of the xs rows and
    [-2 yp, 1, yp^T C yp] of the ys columns, and whether some exponent may
    lie below LOG_TINY.  Any row slice of left gives those rows of the
    kernel."""
    c, pref, xp, yp = _frame(ctx, xs, ys)
    n = xp.shape[1]
    if not (len(xp) and len(yp)):
        return np.zeros((len(xp), n + 2)), np.zeros((n + 2, len(yp))), False
    center = 0.5 * (xp.mean(axis=0) + yp.mean(axis=0))
    xp -= center
    yp -= center
    xc = xp @ c
    log_pref = np.log(pref)
    left = np.column_stack([xc, np.einsum("ij,ij->i", xc, xp) + log_pref,
                            np.ones(len(xp))])
    right = np.column_stack([-2.0 * yp, np.ones(len(yp)),
                             np.einsum("ij,ij->i", yp @ c, yp)])
    return left, right.T, _lowest_exponent(c, log_pref, xp, yp) < LOG_TINY


def kernel_matrix(ctx: KernelContext, xs, ys) -> np.ndarray:
    """Dense kernel values over the product of output points xs and input
    points ys, both (N, dim) arrays: one exp_product of kernel_features."""
    return exp_product(*kernel_features(ctx, xs, ys))


def _lowest_exponent(c: np.ndarray, log_pref: float, xp: np.ndarray,
                     yp: np.ndarray) -> float:
    """A lower bound on the exponent (xp - yp)^T C (xp - yp) + log pref over
    every row pair, as the product of features rounds it.  The differences
    fill a box, and the exponent is concave in the difference, so it is
    lowest at one of the box's 2^n corners; the rounding of the product is
    bounded by the magnitudes of its terms."""
    # numpy reduces a few long contiguous rows about ten times faster than
    # many short ones along axis 0
    xt, yt = np.ascontiguousarray(xp.T), np.ascontiguousarray(yp.T)
    lo = xt.min(axis=1) - yt.max(axis=1)
    hi = xt.max(axis=1) - yt.min(axis=1)
    corners = np.array(list(product(*zip(lo, hi))))
    lowest = np.einsum("ij,jk,ik->i", corners, c, corners).min() + log_pref
    reach = np.abs(xt).max() + np.abs(yt).max()
    size = np.abs(c).sum() * reach ** 2 + abs(log_pref)
    return float(lowest - ROUNDING_ALLOWANCE * size)


def exp_product(left: np.ndarray, right: np.ndarray, underflow: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
    """exp(left @ right): the one Gaussian evaluator.  One factor holds the
    quadratic features of the points, the other the coefficients of the
    exponents, so each entry is one exponent at one point; the product is
    exponentiated in place, in ``out`` when given, leaving it the only
    large array.

    With ``underflow`` (some exponent may lie below LOG_TINY) the entries
    below LOG_TINY come back as zero: where the block holds any, they are
    zeroed before the exp, which keeps them off numpy's slow path, and
    again after it."""
    block = np.matmul(left, right, out=out)
    if not (underflow and block.min() < LOG_TINY):
        return np.exp(block, out=block)
    keep = block >= LOG_TINY
    block *= keep
    np.exp(block, out=block)
    block *= keep
    return block
