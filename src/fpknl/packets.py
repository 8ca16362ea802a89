"""Exact Gaussian-packet solutions of the linear and the mean-coupled flow.

A packet stores the precision fraction (num, den) rather than the
precision itself, so the propagation law stays linear and focal points
remain representable.  An optional affine amplitude ``amp0 + amp1.(x-mean)``
extends the class just enough to keep it closed under first-order
operators; plain densities have amp0 = 1, amp1 = 0.

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
changes no bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidCovarianceError, NormalizationError
from .kernels import KernelContext, exp_product, kernel_context
from .model import BLOCK_ENTRIES, ModelParams, normalize_moment
from .variations import fraction, propagate_pair

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
    while True:
        for center in (mean.sum(axis=0) / len(mean), mean[0]):
            d = mean - center
            near = (d * d).sum(axis=1) * reach <= CENTER_REACH
            if near.all():
                yield left, center, d
                return
        yield left[near], center, d[near]
        left, mean, reach = left[~near], mean[~near], reach[~near]


def _points(x, n: int) -> tuple[np.ndarray, bool]:
    """Coerce x to an (N, n) point array; report whether input was a single point."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 0 or (pts.ndim == 1 and n > 1)
    return (pts.reshape(1, 1) if pts.ndim == 0 else pts.reshape(-1, n)), single


@dataclass
class GaussianPacket:
    """Parameters of one component: mean (n,), num, den (n, n), weight, amp0, amp1 (n,)."""

    mean: np.ndarray
    num: np.ndarray
    den: np.ndarray
    weight: float = 1.0
    amp0: float = 1.0
    amp1: np.ndarray | None = None

    def __post_init__(self):
        # num itself need not stay symmetric along the flow; only the
        # fraction num @ inv(den) does, checked wherever a density is needed
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.num = np.atleast_2d(np.asarray(self.num, dtype=float))
        self.den = np.atleast_2d(np.asarray(self.den, dtype=float))
        if self.amp1 is not None:
            self.amp1 = np.atleast_1d(np.asarray(self.amp1, dtype=float))
        n = len(self.mean)
        shapes = (self.mean.shape, self.num.shape, self.den.shape,
                  (n,) if self.amp1 is None else self.amp1.shape)
        if shapes != ((n,), (n, n), (n, n), (n,)):
            raise InputError("packet needs mean (n,), num and den (n, n) and amp1 (n,); "
                             f"got mean, num, den, amp1 of shapes {shapes}")
        if self.amp1 is not None and not np.any(self.amp1):
            self.amp1 = None

    def eval(self, params: ModelParams, x) -> np.ndarray:
        return GaussianMixture([self]).eval(params, x)


class GaussianMixture:
    """Weighted sum of K Gaussian components, held as stacks: mean (K, n), num
    and den (K, n, n), weight and amp0 (K,), amp1 (K, n) or None when no
    component carries one.  `components` lists their parameter records."""

    def __init__(self, components):
        comps = list(components)
        if len(dims := {len(c.mean) for c in comps}) != 1:
            raise InputError(f"mixture needs components of one dimension, got {sorted(dims)}")
        self._set(*(np.array([getattr(c, f) for c in comps], dtype=float)
                    for f in ("mean", "num", "den", "weight", "amp0")),
                  np.array([np.zeros_like(c.mean) if c.amp1 is None else c.amp1 for c in comps]))

    @classmethod
    def _of(cls, *stacks) -> "GaussianMixture":
        mix = cls.__new__(cls)
        mix._set(*stacks)
        return mix

    def _set(self, mean, num, den, weight, amp0, amp1) -> None:
        self.mean, self.num, self.den, self.weight, self.amp0 = mean, num, den, weight, amp0
        self.amp1 = amp1 if amp1 is not None and np.any(amp1) else None

    @property
    def components(self) -> list[GaussianPacket]:
        amp1 = [None] * len(self.weight) if self.amp1 is None else self.amp1
        return [GaussianPacket(self.mean[k], self.num[k], self.den[k], float(self.weight[k]),
                               float(self.amp0[k]), amp1[k]) for k in range(len(self.weight))]

    def precision(self, density_valid: bool = True) -> np.ndarray:
        return fraction(self.num, self.den, density_valid=density_valid)

    def total_mass(self) -> float:
        return float(_in_order(self.weight * self.amp0))

    def first_moment(self, params: ModelParams, normalized: bool = False) -> np.ndarray:
        """Integral of x times the mixture, raw or per unit mass."""
        q = self.precision(density_valid=False)
        out = self.amp0[:, None] * self.mean
        if self.amp1 is not None:
            out = out + params.diffusion * np.linalg.solve(q, self.amp1[..., None])[..., 0]
        raw = _in_order(self.weight[:, None] * out)
        return normalize_moment(raw, self.total_mass()) if normalized else raw

    def eval(self, params: ModelParams, x) -> np.ndarray:
        q = self.precision()
        eps = params.diffusion
        det = np.linalg.det(q)
        if (det <= 0).any():
            raise InvalidCovarianceError("precision determinant must be positive")
        n = self.mean.shape[1]
        scale = self.weight * np.sqrt(det / (2.0 * np.pi * eps) ** n)
        pts, single = _points(x, n)
        n_pts = len(pts)
        vals = None
        # exponent -(x-m)^T Q (x-m) / 2 eps = (y-d)^T H (y-d) with H = -Q / 2 eps,
        # y = x - center and d = m - center: the coefficients of the
        # features [y, y y^T, 1] are -2 H d, H and d^T H d
        h = (-0.5 / eps) * q
        # |d|^2 tr(-H) bounds the exponent terms that cancel (CENTER_REACH)
        for g, center, d in _groups(self.mean, -np.einsum("kii->k", h)):
            hg = h[g]
            hd = _mv(hg, d)
            coef = np.concatenate([-2.0 * hd, hg.reshape(len(g), n * n),
                                   (hd * d).sum(axis=1, keepdims=True)], axis=1)
            if self.amp1 is None:
                amp = (scale[g] * self.amp0[g])[:, None]
            else:
                # amp0 + amp1.(x - m) = (amp0 - amp1.d) + amp1.y
                a1 = self.amp1[g]
                a0 = (self.amp0[g] - (self.amp1[g] * d).sum(axis=1))[:, None]
            # near-equal blocks of points, each holding at most about
            # BLOCK_ENTRIES entries of the (K, points) product or of the
            # features; at four or more points a block, none is left with
            # the single point that numpy's matmul would round differently
            n_blocks = max(1, -(-n_pts * max(coef.shape) // BLOCK_ENTRIES))
            part = np.empty(n_pts)
            for b in range(n_blocks):
                lo, hi = b * n_pts // n_blocks, (b + 1) * n_pts // n_blocks
                feats = np.empty((coef.shape[1], hi - lo))
                y = feats[:n]
                np.subtract(pts[lo:hi].T, center[:, None], out=y)
                np.multiply(y[:, None], y, out=feats[n:-1].reshape(n, n, -1))
                feats[-1] = 1.0
                block = exp_product(coef, feats)
                if self.amp1 is not None:
                    block *= scale[g][:, None]
                    amp = a1 @ y
                    amp += a0
                # weighted sum in component order, the same for every block
                block *= amp
                block.sum(axis=0, out=part[lo:hi])
            vals = part if vals is None else vals + part
        return vals[0] if single else vals

    def shifted(self, delta) -> "GaussianMixture":
        return self._of(self.mean + np.asarray(delta, dtype=float), self.num, self.den,
                        self.weight, self.amp0, self.amp1)

    def scaled(self, factor: float) -> "GaussianMixture":
        return self._of(self.mean, self.num, self.den, self.weight * float(factor),
                        self.amp0, self.amp1)

    def copy(self) -> "GaussianMixture":
        return self._of(self.mean, self.num, self.den, self.weight, self.amp0, self.amp1)


def propagate_packet(mix: GaussianMixture, ctx: KernelContext) -> GaussianMixture:
    """Advance all components of a mixture at once along a directed context:
    the matriciant blocks ctx.m around the moment-frame anchors ctx.x_start
    at ctx.s and ctx.x_end at ctx.t (the trajectory of the full density the
    components belong to).

    The zero-anchored ``kernel_context(params, t, s)`` is the plain linear
    drift-diffusion flow, and ``ctx.reversed()`` the flow back from t to s.
    """
    m = ctx.m
    num, den = propagate_pair(m, mix.num, mix.den)
    mean = ctx.x_end + _mv(m.dd, mix.mean - ctx.x_start)
    amp1 = None
    if mix.amp1 is not None:
        # affine amplitude rides the same flow: amp1' = Q_t dd Q_s^{-1} amp1
        q_s = mix.precision(density_valid=False)
        q_t = fraction(num, den, density_valid=False)
        amp1 = _mv(q_t, _mv(m.dd, np.linalg.solve(q_s, mix.amp1[..., None])[..., 0]))
    return GaussianMixture._of(mean, num, den, mix.weight, mix.amp0, amp1)


def evolve_packet(p0: GaussianPacket, params: ModelParams,
                  t: float, s: float) -> GaussianMixture:
    """Exact solution of the mean-coupled equation from a single plain
    packet of unit weight, as a mixture of one.

    The packet is its own density, so its mean is the initial first moment;
    it moves along the context anchored on the moment trajectory from there.
    """
    if p0.amp1 is not None or p0.amp0 != 1.0:
        raise InvalidCovarianceError(
            "evolve_packet needs a plain density packet; "
            "evolve amplitude-carrying packets through an evolution plan"
        )
    if p0.weight != 1.0:  # the feedback reads the raw moment, weight times mean
        raise NormalizationError(f"evolve_packet needs weight 1, got {p0.weight:.12g}; "
                                 "evolve other masses as raw fields through evolve_analytic")
    mix = GaussianMixture([p0])
    mix.precision(density_valid=True)
    if t == s:
        return mix
    out = propagate_packet(mix, kernel_context(params, t, s, p0.mean))
    out.precision(density_valid=True)
    return out
