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
over the quadratic features [y, y y^T, 1] of y = x - c, so one product of
the (K, features) coefficients with the (features, points) block,
``kernels.exp_product``, gives every exponent at every point; weights,
normalizations and amplitudes then scale the K rows, which are summed in
component order, group after group.  The expansion cancels terms of about
s = |m - c|^2 tr(Q) / 2 eps, and its rounding costs about 3 s machine
epsilons of relative accuracy (3e-13 at s = 1000, measured), so a center
is shared only by components with s within CENTER_REACH: the mean of the
means when all of them qualify, otherwise each group is seeded by the
first remaining mean and evaluated as a product of its own.  The center
depends on the components alone, so splitting the points into blocks
changes no bit.  Points are those of kernels, or in 1D a flat (N,) grid;
a non-finite point raises InputError.  A point whose offset from a
center is so large that its square would overflow is clipped to a
distance where every component is still 0 in double precision, so far
points evaluate to 0 with no overflow; an exponent below log of the
smallest normal double gives 0 as well, and so does a value that the
weights, normalizations and amplitudes push below it: never a subnormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidCovarianceError, NormalizationError
from .kernels import KernelContext, _points, _require_same_dim, exp_product, kernel_context
from .model import ModelParams, normalize_moment, require_finite, row_blocks
from .variations import fraction

# largest |mean - center|^2 tr(Q) / (2 diffusion) of a component that
# shares a center in eval: the size of the exponent terms that cancel
CENTER_REACH = 1e3


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector over stacks: (..., n, m) @ (..., m) -> (..., n)."""
    return (a @ v[..., None])[..., 0]


def _in_order(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (component) axis in list order, unlike np.sum."""
    return np.cumsum(a, axis=0)[-1]


def _groups(mean: np.ndarray, reach: np.ndarray):
    """Split components into groups that share one center, yielding
    (member indices, center, member means minus center): the mean of the
    members' means where every member's |mean - center|^2 * reach stays
    within CENTER_REACH, else the first remaining mean and the members
    within that of it."""
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


@dataclass
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
        eps = params.diffusion
        n = self.dim
        # sqrt(det Q) = 1 / prod(diag chol); inv(S) rounds less than
        # inv(chol)^T inv(chol) (reference case: 2.9e-15 against 4.4e-15 relative)
        chol = np.linalg.cholesky(self.cov)
        q = np.linalg.inv(self.cov)
        diag = np.diagonal(chol, axis1=1, axis2=2)
        with np.errstate(over="ignore"):  # a product that overflows is redone in logs
            norm = np.prod(diag, axis=1) * (2.0 * np.pi * eps) ** (n / 2.0)
        scale, big = self.weight / norm, np.isinf(norm)
        if big.any():
            scale[big] = self.weight[big] * np.exp(
                -np.log(diag[big]).sum(axis=1) - 0.5 * n * np.log(2.0 * np.pi * eps))
        x = np.asarray(x, dtype=float)
        pts = _points(x.reshape(-1, 1) if n == 1 and x.ndim < 2 else x, n)
        if pts is None:
            raise InputError(f"mixture points must be (N, {n}) arrays or one ({n},) point "
                             f"in {n}D, got shape {x.shape}")
        most = np.abs(pts).max(initial=0.0)  # nan or inf where a point is not finite
        if not np.isfinite(most):
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise InputError(f"mixture points must be finite, got {pts[bad]} at point {bad}")
        n_pts = len(pts)
        vals = None
        # exponent -(x-m)^T Q (x-m) / 2 eps = (y-d)^T H (y-d) with H = -Q / 2 eps,
        # y = x - center and d = m - center: the coefficients of the
        # features [y, y y^T, 1] are -2 H d, H and d^T H d
        h = (-0.5 / eps) * q
        # |d|^2 tr(-H) bounds the exponent terms that cancel (CENTER_REACH)
        spread = -np.einsum("kii->k", h)
        # an offset y is clipped to +-reach per axis: as |h_ij| <= tr(-h), a
        # term of the product is then at most max/64, so none overflows and
        # no inf - inf arises, while a point that far out (or clipped to
        # it) has an exponent below -(max/64) lambda_min(-h) / max(1, tr(-h)),
        # which exp takes to 0.  Centers lie within the means' box, so only
        # a point past reach less the box's extent can need the clip
        reach = (np.finfo(float).max / 64.0 / max(1.0, spread.max())) ** 0.5
        far = most > reach - np.abs(self.mean).max()
        for g, center, d in _groups(self.mean, spread):
            hg = h[g]
            hd = _mv(hg, d)
            coef = np.concatenate([-2.0 * hd, hg.reshape(len(g), n * n),
                                   (hd * d).sum(axis=1, keepdims=True)], axis=1)
            if self.dipole is None:
                amp = (scale[g] * self.amp0[g])[:, None]
            else:
                # amp0 N - dipole . grad N = (amp0 + a1.(x - m)) N with
                # a1 = Q dipole / eps = -2 H dipole, and
                # amp0 + a1.(x - m) = (amp0 - a1.d) + a1.y
                a1 = -2.0 * _mv(hg, self.dipole[g])
                a0 = (self.amp0[g] - (a1 * d).sum(axis=1))[:, None]
            # near-equal blocks of points, each holding at most about
            # BLOCK_ENTRIES entries of the (K, points) product or of the
            # features; at four or more points a block, none is left with
            # the single point that numpy's matmul would round differently
            part = np.empty(n_pts)
            for rows in row_blocks(n_pts, max(coef.shape)):
                feats = np.empty((coef.shape[1], rows.stop - rows.start))
                y = feats[:n]
                with np.errstate(over="ignore" if far else None):  # clipped next
                    np.subtract(pts[rows].T, center[:, None], out=y)
                if far:
                    np.clip(y, -reach, reach, out=y)
                np.multiply(y[:, None], y, out=feats[n:-1].reshape(n, n, -1))
                feats[-1] = 1.0
                block = exp_product(coef, feats)
                if self.dipole is not None:
                    block *= scale[g][:, None]
                    amp = a1 @ y
                    amp += a0
                # weighted sum in component order, the same for every block
                block *= amp
                block.sum(axis=0, out=part[rows])
            vals = part if vals is None else vals + part
        # the weights, normalizations and amplitudes scale each exponential
        # after exp_product, and groups add: a value they leave below the
        # smallest normal double is 0 too, never subnormal
        np.putmask(vals, np.abs(vals) < np.finfo(float).tiny, 0.0)
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
    _require_same_dim(mix, ctx)
    m = ctx.m
    cov = m.dd @ mix.cov @ m.dd.T + m.w
    mean = ctx.x_end + _mv(m.dd, mix.mean - ctx.x_start)
    dipole = None if mix.dipole is None else _mv(m.dd, mix.dipole)
    return GaussianMixture._of(mean, 0.5 * (cov + cov.mT), mix.weight, mix.amp0, dipole)


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
            "evolve dipole or amplitude-carrying packets through an evolution plan"
        )
    if p0.weight != 1.0:  # the feedback reads the raw moment, weight times mean
        raise NormalizationError(f"evolve_packet needs weight 1, got {p0.weight:.12g}; "
                                 "evolve other masses as raw fields through evolve_analytic")
    mix = GaussianMixture([p0])
    ctx = kernel_context(params, t, s, p0.mean)  # checks t and s, even where equal
    return mix if t == s else propagate_packet(mix, ctx)
