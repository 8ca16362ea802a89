"""Exact Gaussian-packet solutions of the linear and the mean-coupled flow.

A packet gives its precision as a fraction Q = num @ inv(den); a mixture
holds S = inv(Q) = den @ inv(num), formed once where it is built (focal
points raise there), moved by the Lyapunov law S -> dd S dd^T + w.  A
component is ``weight (amp0 N - dipole . grad N)`` with N the normalized
Gaussian: the dipole extends the class just enough to keep it closed
under first-order operators, it is the component's share of the first
moment beyond amp0 times the mean, and the linear flow moves it as it
moves a mean offset, ``dipole -> dd @ dipole``.  Plain densities have
amp0 = 1 and no dipole.

The solver takes and returns one Gaussian field, the GaussianMixture: its
K components are stacked arrays, each of its operations is one stacked
computation, and all components move along the same directed
``kernels.KernelContext``.  A GaussianPacket is the parameter record of
one component, entering the solver as ``GaussianMixture([packet])``.

Evaluation expands each component's exponent -(x-m)^T Q (x-m) / 2 eps
over the quadratic features [1, y, y y^T] of y = x - c, and adds the
component's whole scale to its constant coefficient as a log,
log|weight amp0| less its log normalization, as kernels carry their
prefactor.  So one product of the (K, features) coefficients with the
(features, points) block, ``kernels.exp_product``, gives every
component's value at every point, and its K rows are summed in component
order, group after group.  Only a negative weight (a sign applied after
the exp) or a dipole (the amplitude amp0 + a1.(x - m), a product over
[1, y]) touches the rows again.  A zero weight takes a floor far below
log of the smallest normal double, never log 0.  A log scale past log of
the largest double is checked against the exponents at the points, and
a value past the largest double raises InputError naming the component
and its peak density; the other values stay exact.

The expansion cancels terms of about s = |m - c|^2 tr(Q) / 2 eps, and
its rounding costs about 3 s machine epsilons of relative accuracy
(3e-13 at s = 1000, measured), so a center is shared only by components
with s within CENTER_REACH: the mean of the means when all of them
qualify, otherwise each group is seeded by the first remaining mean and
evaluated as a product of its own.  The single group of most mixtures
takes a short path: one component is its own center, and where the
means' box and the largest tr(Q) / 2 eps bound every s by half of
CENTER_REACH the mean of the means is the center with no test, no
errstate and no grouping loop, and with the loop's bits.  The center
depends on the components alone, so splitting the points into blocks
changes no bit.  Points are
those of kernels, or in 1D a flat (N,) grid; a non-finite point raises
InputError.  A point whose offset from a center is so large that its
square would overflow is clipped to a distance where every component is
still 0 in double precision, so far points evaluate to 0 with no
overflow; an exponent below log of the smallest normal double gives 0 as
well, never a subnormal, and with the scale inside the exponent that
mask covers every value of plain components of positive weight.  Only
where signed or dipole terms can cancel below the smallest normal double
is a sum below it set to 0.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidCovarianceError, NormalizationError
from .kernels import KernelContext, _points, _require_field, exp_product, kernel_context
from .model import ModelParams, normalize_moment, require_finite, row_blocks
from .variations import fraction, require_spd

# largest |mean - center|^2 tr(Q) / (2 diffusion) of a component that
# shares a center in eval: the size of the exponent terms that cancel
CENTER_REACH = 1e3
# the largest and the smallest normal double: an exponent past log(_MAX) overflows
_MAX, _TINY = float(np.finfo(float).max), float(np.finfo(float).tiny)


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector over stacks: (..., n, m) @ (..., m) -> (..., n)."""
    return (a @ v[..., None])[..., 0]


def _in_order(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (component) axis in list order, unlike np.sum."""
    return np.cumsum(a, axis=0)[-1]


def _groups(mean: np.ndarray, reach: np.ndarray, bound: float):
    """Split components into groups that share one center, as
    (member indices, center, member means minus center).  One component
    is its own center; where bound, an upper bound on every
    |mean - center|^2 * reach about the mean of the means, is within
    CENTER_REACH / 2 (half, so that no rounding of the center can pass
    CENTER_REACH), they form one group about it with no test and no
    errstate; otherwise _split groups them."""
    if len(mean) == 1:
        return [(np.arange(1), mean[0], mean - mean[0])]
    if bound <= CENTER_REACH / 2:
        center = mean.sum(axis=0) / len(mean)
        return [(np.arange(len(mean)), center, mean - center)]
    return _split(mean, reach)


def _split(mean: np.ndarray, reach: np.ndarray):
    """Yield the groups of _groups: the mean of the members' means where
    every member's |mean - center|^2 * reach stays within CENTER_REACH,
    else the first remaining mean and the members within that of it."""
    left = np.arange(len(mean))
    while len(mean):
        for center in (mean.sum(axis=0) / len(mean), mean[0]):
            d = mean - center
            with np.errstate(over="ignore"):  # an infinite distance is not near
                near = (d * d).sum(axis=1) * reach <= CENTER_REACH
            if near.all():
                yield left, center, d
                return
        near[0] = True  # the seed, even a non-finite one: every group takes one
        yield left[near], center, d[near]
        left, mean, reach = left[~near], mean[~near], reach[~near]


@dataclass(eq=False)
class GaussianPacket:
    """Parameters of one component: mean (n,), num, den (n, n), weight, amp0, dipole (n,)."""

    mean: np.ndarray
    num: np.ndarray
    den: np.ndarray
    weight: float = 1.0
    amp0: float = 1.0
    dipole: np.ndarray | None = None

    def __post_init__(self):
        # num itself need not be symmetric, only the fraction num @ inv(den)
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.num = np.atleast_2d(np.asarray(self.num, dtype=float))
        self.den = np.atleast_2d(np.asarray(self.den, dtype=float))
        if self.dipole is not None:
            self.dipole = np.atleast_1d(np.asarray(self.dipole, dtype=float))
        n = len(self.mean)
        shapes = (self.mean.shape, self.num.shape, self.den.shape,
                  (n,) if self.dipole is None else self.dipole.shape)
        if shapes != ((n,), (n, n), (n, n), (n,)):
            raise InputError("packet needs mean (n,), num and den (n, n) and dipole (n,); "
                             f"got mean, num, den, dipole of shapes {shapes}")
        for name in ("mean", "num", "den", "weight", "amp0", "dipole"):
            require_finite(InputError, f"packet {name}", getattr(self, name))
        if self.dipole is not None and not np.any(self.dipole):
            self.dipole = None

    def eval(self, params: ModelParams, x) -> np.ndarray:
        return GaussianMixture([self]).eval(params, x)


class GaussianMixture:
    """Weighted sum of K Gaussian components, held as stacks: mean (K, n),
    cov (K, n, n), weight and amp0 (K,), dipole (K, n) or None if none has
    one.  `components` lists their parameter records, num = I, den = cov."""

    def __init__(self, components):
        comps = list(components)
        if len(dims := {len(c.mean) for c in comps}) != 1:
            raise InputError(f"mixture needs components of one dimension, got {sorted(dims)}")
        mean, num, den, weight, amp0 = (np.array([getattr(c, f) for c in comps], dtype=float)
                                        for f in ("mean", "num", "den", "weight", "amp0"))
        fraction(num, den)  # raises on a focal point or an invalid precision
        cov = np.linalg.solve(num.mT, den.mT).mT
        self._set(mean, 0.5 * (cov + cov.mT), weight, amp0,
                  np.array([np.zeros_like(c.mean) if c.dipole is None else c.dipole
                            for c in comps]))

    @classmethod
    def _of(cls, *stacks) -> "GaussianMixture":
        mix = cls.__new__(cls)
        mix._set(*stacks)
        return mix

    def _set(self, mean, cov, weight, amp0, dipole) -> None:
        self.mean, self.cov, self.weight, self.amp0 = mean, cov, weight, amp0
        self.dipole = dipole if dipole is not None and np.any(dipole) else None

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    @property
    def components(self) -> list[GaussianPacket]:
        dipole = [None] * len(self.weight) if self.dipole is None else self.dipole
        return [GaussianPacket(self.mean[k], np.eye(self.dim), self.cov[k],
                               float(self.weight[k]), float(self.amp0[k]), dipole[k])
                for k in range(len(self.weight))]

    def total_mass(self) -> float:
        return float(_in_order(self.weight * self.amp0))

    def first_moment(self, normalized: bool = False) -> np.ndarray:
        """Integral of x times the mixture, raw or per unit mass."""
        out = self.amp0[:, None] * self.mean
        if self.dipole is not None:
            out = out + self.dipole
        raw = _in_order(self.weight[:, None] * out)
        return normalize_moment(raw, self.total_mass()) if normalized else raw

    def eval(self, params: ModelParams, x) -> np.ndarray:
        eps, n = params.diffusion, self.dim
        x = np.asarray(x, dtype=float)
        pts = _points(x.reshape(-1, 1) if n == 1 and x.ndim < 2 else x, n)
        if pts is None:
            raise InputError(f"mixture points must be (N, {n}) arrays or one ({n},) point "
                             f"in {n}D, got shape {x.shape}")
        most = float(np.abs(pts).max(initial=0.0))  # nan or inf where a point is not finite
        if not math.isfinite(most):
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise InputError(f"mixture points must be finite, got {pts[bad]} at point {bad}")
        # each component's log scale, log|weight amp0| less its log
        # normalization with sqrt(det Q) = 1 / prod(diag chol), joins its
        # exponent; amp0 stays in a dipole component's amplitude, and the
        # sign applies after the exp.  A zero weight takes a floor whose
        # exponents exp_product zeroes
        lead = self.weight if self.dipole is not None else self.weight * self.amp0
        # signed or dipole terms can cancel below the smallest normal double
        zero, cancel = lead == 0, self.dipole is not None or lead.min() < 0
        # exponent -(x-m)^T Q (x-m) / 2 eps = (y-d)^T H (y-d) with H = -Q / 2 eps,
        # y = x - center and d = m - center.  inv(S) rounds less than
        # inv(chol)^T inv(chol) (reference case: 2.9e-15 against 4.4e-15
        # relative).  1 x 1 blocks take their factor, inverse and trace
        # elementwise, with the same bits and without LAPACK's or einsum's
        # per-call cost.  |d|^2 tr(-H) bounds the exponent terms that
        # cancel (CENTER_REACH)
        if n == 1:
            h = (-0.5 / eps) * (1.0 / self.cov)
            log_root_det, spread = np.log(np.sqrt(self.cov[:, 0, 0])), -h[:, 0, 0]
        else:
            h = (-0.5 / eps) * np.linalg.inv(self.cov)
            log_root_det = np.log(np.diagonal(np.linalg.cholesky(self.cov),
                                              axis1=1, axis2=2)).sum(axis=1)
            spread = -np.einsum("kii->k", h)
        log_scale = np.log(np.abs(lead) + zero) - log_root_det \
            - 0.5 * n * (math.log(2.0 * math.pi) + math.log(eps))
        log_scale[zero] = 2.0 * math.log(_TINY)
        # only a log scale past log(_MAX) lets an exponent pass it (Q is positive)
        hot = log_scale.max() > math.log(_MAX)
        vals = np.zeros(len(pts))
        # an offset y is clipped to +-reach per axis: as |h_ij| <= tr(-h), a
        # term of the product is then at most max/64, so none overflows and
        # no inf - inf arises, while a point that far out (or clipped to
        # it) has an exponent below -(max/64) lambda_min(-h) / max(1, tr(-h)),
        # which exp takes to 0.  Centers lie within the means' box, so only
        # a point past reach less the box's extent can need the clip
        steep = float(spread.max())
        reach = (_MAX / 64.0 / max(1.0, steep)) ** 0.5
        box = float(np.abs(self.mean).max())
        far = most > reach - box
        # the mean of the means lies in the means' box, so |d| <= 2 box per
        # axis and |d|^2 tr(-H) <= 4 n box^2 max(tr(-H)) (nan or inf where
        # a mean or a scale is not finite, which takes the general grouping)
        for g, center, d in _groups(self.mean, spread, 4.0 * n * box * box * steep):
            # the one group of most mixtures takes views, not copies
            g = slice(None) if len(g) == len(lead) else g
            hg = h[g]
            hd = _mv(hg, d)
            # the coefficients of the features [1, y, y y^T]: d^T H d plus
            # the log scale, -2 H d and H
            coef = np.concatenate([((hd * d).sum(axis=1) + log_scale[g])[:, None],
                                   -2.0 * hd, hg.reshape(-1, n * n)], axis=1)
            # the signed amplitude of each row as coefficients of features
            # [1, y]: the sign alone where no component has a dipole
            amp = np.sign(lead[g, None]) if cancel else None
            if self.dipole is not None:
                # amp0 N - dipole . grad N = (amp0 + a1.(x - m)) N with
                # a1 = Q dipole / eps = -2 H dipole, and
                # amp0 + a1.(x - m) = (amp0 - a1.d) + a1.y
                a1 = (-2.0 * amp) * _mv(hg, self.dipole[g])
                amp = np.concatenate([amp * self.amp0[g, None]
                                      - (a1 * d).sum(axis=1, keepdims=True), a1], axis=1)
            # near-equal blocks of points, each holding at most about
            # BLOCK_ENTRIES entries of the (K, points) product or of the
            # features; at four or more points a block, none is left with
            # the single point that numpy's matmul would round differently
            for rows in row_blocks(len(pts), max(coef.shape)):
                feats = np.empty((coef.shape[1], rows.stop - rows.start))
                y = feats[1:n + 1]
                with np.errstate(over="ignore") if far else contextlib.nullcontext():
                    np.subtract(pts[rows].T, center[:, None], out=y)  # clipped next
                if far:
                    np.clip(y, -reach, reach, out=y)
                np.multiply(y[:, None], y, out=feats[n + 1:].reshape(n, n, -1))
                feats[0] = 1.0
                if hot and (top := (coef @ feats).max(axis=1)).max() > math.log(_MAX):
                    k = np.arange(len(lead))[g][top.argmax()]
                    raise InputError(f"mixture component {k} peaks at a density of 1e"
                                     f"{log_scale[k] / math.log(10):.1f}, past the largest double")
                block = exp_product(coef, feats)
                if cancel:
                    block *= amp @ feats[:amp.shape[1]]
                # summed in component order, the same for every block;
                # groups add in turn
                vals[rows] += block.sum(axis=0)
        # exp_product gives 0 or a normal double, and so does a sum of
        # positive terms; signed and dipole terms can cancel below the
        # smallest normal double, and such a value is 0 too, never subnormal
        if cancel:
            np.putmask(vals, np.abs(vals) < _TINY, 0.0)
        return vals[0] if x.ndim == 0 or (x.ndim == 1 and n > 1) else vals

    def shifted(self, delta) -> "GaussianMixture":
        return self._of(self.mean + np.asarray(delta, dtype=float), self.cov,
                        self.weight, self.amp0, self.dipole)

    def scaled(self, factor: float) -> "GaussianMixture":
        return self._of(self.mean, self.cov, self.weight * float(factor),
                        self.amp0, self.dipole)

    def copy(self) -> "GaussianMixture":
        return self._of(self.mean, self.cov, self.weight, self.amp0, self.dipole)


def propagate_packet(mix: GaussianMixture, ctx: KernelContext) -> GaussianMixture:
    """Advance all components of a mixture at once along a directed context:
    the matriciant blocks ctx.m around the moment-frame anchors ctx.x_start
    at ctx.s and ctx.x_end at ctx.t (the trajectory of the full density the
    components belong to).  A dipole moves as a mean offset does, by dd.

    The zero-anchored ``kernel_context(params, t, s)`` is the plain linear
    drift-diffusion flow, and ``ctx.reversed()`` the flow back from t to s.
    """
    _require_field(mix, (GaussianMixture,), "propagate_packet", ctx)
    m = ctx.m
    cov = m.dd @ mix.cov @ m.dd.T + m.w
    mean = ctx.x_end + _mv(m.dd, mix.mean - ctx.x_start)
    dipole = None if mix.dipole is None else _mv(m.dd, mix.dipole)
    return GaussianMixture._of(mean, 0.5 * (cov + cov.mT), mix.weight, mix.amp0, dipole)


def _require_density(mix: GaussianMixture, ctx: KernelContext) -> GaussianMixture:
    """mix, the image of a move along ctx; a move backward in time (t < s)
    need not leave a density, and where its covariance is not positive
    definite InvalidCovarianceError names |t - s| and inverse_evolve,
    which recovers earlier data.  A forward move is not checked."""
    if ctx.t < ctx.s:
        require_spd(mix.cov, f"backward evolution over |t - s| = {ctx.s - ctx.t:.6g} "
                    "(inverse_evolve recovers earlier data): covariance",
                    InvalidCovarianceError)
    return mix


def evolve_packet(p0: GaussianPacket, params: ModelParams,
                  t: float, s: float) -> GaussianMixture:
    """Exact solution of the mean-coupled equation from a single plain
    packet of unit weight, as a mixture of one.

    The packet is its own density, so its mean is the initial first moment;
    it moves along the context anchored on the moment trajectory from there.
    """
    if p0.dipole is not None or p0.amp0 != 1.0:
        raise InvalidCovarianceError(
            "evolve_packet needs a plain density packet; "
            "evolve dipole or amplitude-carrying packets through an evolution plan")
    if p0.weight != 1.0:  # the feedback reads the raw moment, weight times mean
        raise NormalizationError(f"evolve_packet needs weight 1, got {p0.weight:.12g}; "
                                 "evolve other masses as raw fields through evolve_analytic")
    mix = GaussianMixture([p0])
    ctx = kernel_context(params, t, s, p0.mean)  # checks t and s, even where equal
    return mix if t == s else _require_density(propagate_packet(mix, ctx), ctx)
