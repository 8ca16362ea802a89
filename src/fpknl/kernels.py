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
C = -inv(spread) / (2 diffusion), the exponent is xi^T C xi.  Over a
product of points it is expanded into row norms and one matrix product,

    xp^T C xp + yp^T C yp - 2 (xp C) yp^T,

with the row norms and the log prefactor (with the input points' norms)
carried as two extra columns of that same product.  ``kernel_features``
builds those features once per call: it checks the context and both
point sets and centers them.  Any
row slice of its left factor gives those rows of the kernel, and any
column slice of its right factor those columns, so a consumer takes one
cache-sized block of rows at a time (``model.row_blocks``) through the
product, the in-place exp and its own use of the block while the block
stays in cache.  The quadrature operator
takes only the columns of the nodes at the centres of tiles that split
the grid along every axis, and moves them to each tile's other nodes by
two exponential tables (evolution module), so it never holds the N x N
matrix; the sampled inverse holds the band of it where the kernel is
above e^-40 of its peak as separate blocks (``input_width``, the
kernel's standard deviation in y per axis, sets that band), and
``kernel_matrix`` is the single block of all rows.
That product and its exponential are ``exp_product``, the one Gaussian
evaluator: mixture evaluation (packets module) calls it too, with the
quadratic features of its points on one side and each component's
exponent coefficients on the other.  The expansion subtracts terms of
the size of the squared coordinates, so both point sets are first
shifted by one common center: the midpoint of the first and last output
point (the centre of a grid in C order, and within the extent of any
set), so xc = x - center and yc = yp - (center - X(t)).  Wherever the
kernel is not negligible yp lies near xp, so yc is as small as xc
there.  xi is unchanged by the shift; without it, on a grid a distance R from the
anchors the absolute error of every exponent grows like
R^2 / (2 diffusion spread) machine epsilons (about 1e-9 relative at
R = 1000).

Points are (N, dim) arrays, or one (dim,) point; any other shape raises
InputError rather than being re-read as points of another dimension.  An
empty point set gives an empty kernel.

Entries below the smallest normal double are zero, never subnormal, in
kernels and mixtures alike.  Both carry their whole scale in the
exponent (the kernel its log prefactor, a mixture component its log
weight and normalization), so the exponent mask below zeroes every such
entry; a mixture sets to 0 only sums whose signed or dipole terms cancel
below it.  numpy's exp (2.4.6, one core of a Xeon)
takes about 1.2 ns per entry whose result is a normal double, 18 ns per
entry that underflows to zero and 125-135 ns per subnormal result, and
the wide grids of the sampled inverse put about 8% of their entries
there.  So exp_product reads each block's own minimum exponent: a block
whose minimum lies below LOG_TINY has the exponents under LOG_TINY zeroed
before the exp, which keeps them off numpy's slow path, and again after
it; every other block takes the single in-place exp.

A matriciant (dd, w) stays bounded at every horizon for a stable drift; a
mode growing along the move (unstable forward, stable backward) overflows
it, and ``matriciant`` raises KernelValidityError naming |t - s|, as does
``MomentTrajectory.at`` for an overflowing anchor.  The normalization is
taken in logs (slogdet), so a spread whose determinant overflows still
gives the kernel's values wherever they are normal doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DeltaLimitError, InputError, KernelValidityError
from .model import ModelParams, MomentTrajectory, _vector
from .variations import Matriciant, matriciant, require_spd

DELTA_TOL = 1e-9
# exponents below log(smallest normal double) give subnormals or zero
LOG_TINY = float(np.log(np.finfo(float).tiny))


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
        spread = require_spd(m.w, "kernel spread", KernelValidityError)
        c = -0.5 / self.params.diffusion * np.linalg.inv(spread)
        c.flags.writeable = False
        return c

    def reversed(self) -> "KernelContext":
        """Left-inverse context from t back to s, with the anchors swapped:
        the inverse of dd and the spread -inv(dd) w inv(dd)^T that takes
        off exactly what the forward w added (recomputed from inverted
        blocks, a covariance roundtrip lost 2.2e-11, not 2.8e-14, at drift 2).
        Built once per context and kept, as exponent is; a singular dd
        raises LinAlgError on every call."""
        return self._reversed

    @functools.cached_property
    def _reversed(self) -> "KernelContext":
        m = self.m
        dd = np.linalg.inv(m.dd)
        back = Matriciant(t=m.s, s=m.t, dd=dd, w=-dd @ m.w @ dd.T)
        return KernelContext(self.params, back, x_start=self.x_end, x_end=self.x_start)

    def reanchored(self, x_start) -> "KernelContext":
        """The same move and matriciant, anchored on the moment trajectory
        through x_start at s; an end anchor that overflows double precision
        raises KernelValidityError (MomentTrajectory.at)."""
        x_start = _vector(x_start, self.params.dim, "x_start")
        x_end = MomentTrajectory(self.s, x_start, self.params.moment_rate).at(self.t)
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


def kernel_features(ctx: KernelContext, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) with ``exp_product(left, right)`` the kernel over the
    product of output points xs and input points ys: the centered features
    [xc C, xc^T C xc, 1] of the xs rows and [-2 yc, 1, yc^T C yc + log pref]
    of the ys columns, with xc the xs and yc the transported anchored ys
    less the anchored center of the xs.  Any row slice of left gives those
    rows of the kernel."""
    c = ctx.exponent
    m = ctx.m
    n, eps = ctx.params.dim, ctx.params.diffusion
    x, y = _points(xs, n), _points(ys, n)
    if x is None or y is None:
        raise InputError(
            f"kernel points must be (N, {n}) arrays or one ({n},) point in {n}D, got "
            f"x of shape {np.shape(xs)} and y of shape {np.shape(ys)}"
        )
    if not (len(x) and len(y)):
        return np.zeros((len(x), n + 2)), np.zeros((n + 2, len(y)))
    # the normalization (2 pi eps)^(-n/2) det(w)^(-1/2) in logs: det(w)
    # overflows long before the kernel's values leave the normal doubles
    log_pref = -0.5 * (n * math.log(2.0 * math.pi * eps) + np.linalg.slogdet(m.w)[1])
    # coordinates are rows, (dim, N) arrays: each pass runs along the points,
    # not along a row of dim entries per point
    center = 0.5 * (x[0] + x[-1])
    xt = np.subtract(x.T, center[:, None], order="C")
    yt = np.dot(m.dd, y.T - ctx.x_start[:, None])
    yt -= (center - ctx.x_end)[:, None]
    # both factors are filled in place and handed back transposed: left's
    # features are contiguous rows, and a column slice of right is one
    # contiguous block
    left, right = np.empty((n + 2, len(x))), np.empty((len(y), n + 2))
    xc = np.dot(c.T, xt, out=left[:n])
    np.add.reduce(np.multiply(xc, xt, out=xt), axis=0, out=left[n])
    left[n + 1] = right[:, n] = 1.0
    np.multiply(yt.T, -2.0, out=right[:, :n])
    quad = np.add.reduce(np.multiply(np.dot(c.T, yt), yt, out=yt), axis=0, out=right[:, n + 1])
    quad += log_pref
    return left.T, right.T


def kernel_matrix(ctx: KernelContext, xs, ys) -> np.ndarray:
    """Dense kernel values over the product of output points xs and input
    points ys, both (N, dim) arrays: one exp_product of kernel_features."""
    return exp_product(*kernel_features(ctx, xs, ys))


def exp_product(left: np.ndarray, right: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """exp(left @ right): the one Gaussian evaluator.  One factor holds the
    quadratic features of the points, the other the coefficients of the
    exponents, so each entry is one exponent at one point; the product is
    exponentiated in place, in ``out`` when given, leaving it the only
    large array.

    Entries whose exponent lies below LOG_TINY come back as zero: where
    the block's minimum lies below it, they are zeroed before the exp,
    which keeps them off numpy's slow path, and again after it."""
    block = np.matmul(left, right, out=out)
    if not block.min(initial=0.0) < LOG_TINY:
        return np.exp(block, out=block)
    keep = block >= LOG_TINY
    block *= keep
    np.exp(block, out=block)
    block *= keep
    return block
