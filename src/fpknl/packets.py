"""Exact Gaussian-packet solutions of the linear and the mean-coupled flow.

A packet stores the precision fraction (num, den) rather than the
precision itself, so the propagation law stays linear and focal points
remain representable.  An optional affine amplitude ``amp0 + amp1.(x-mean)``
extends the class just enough to keep it closed under first-order
operators; plain densities have amp0 = 1, amp1 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidCovarianceError
from .model import ModelParams, _vector, normalize_moment
from .variations import Matriciant, fraction, matriciant


def _points(x, n: int) -> tuple[np.ndarray, bool]:
    """Coerce x to an (N, n) point array; report whether input was a single point."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
        return pts, True
    if pts.ndim == 1:
        if n == 1:
            return pts.reshape(-1, 1), False
        return pts.reshape(1, n), True
    return pts.reshape(-1, n), False


@dataclass
class GaussianPacket:
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
            if not np.any(self.amp1):
                self.amp1 = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_plain(self) -> bool:
        return self.amp1 is None and self.amp0 == 1.0

    def precision(self, density_valid: bool = True) -> np.ndarray:
        return fraction(self.num, self.den, density_valid=density_valid)

    def covariance(self, params: ModelParams) -> np.ndarray:
        return params.diffusion * np.linalg.inv(self.precision())

    def total_mass(self) -> float:
        # the Gaussian factor integrates to 1, the odd amplitude part to 0
        return self.weight * self.amp0

    def first_moment(self, params: ModelParams, normalized: bool = False) -> np.ndarray:
        """Integral of x times the packet, raw or per unit mass."""
        q = self.precision(density_valid=False)
        out = self.amp0 * self.mean
        if self.amp1 is not None:
            out = out + params.diffusion * np.linalg.solve(q, self.amp1)
        raw = self.weight * out
        return normalize_moment(raw, self.total_mass()) if normalized else raw

    def eval(self, params: ModelParams, x) -> np.ndarray:
        q = self.precision()
        eps = params.diffusion
        det = np.linalg.det(q)
        if det <= 0:
            raise InvalidCovarianceError("precision determinant must be positive")
        norm = np.sqrt(det / (2.0 * np.pi * eps) ** self.dim)
        pts, single = _points(x, self.dim)
        xi = pts - self.mean
        expo = -0.5 / eps * np.einsum("ij,jk,ik->i", xi, q, xi)
        amp = self.amp0 if self.amp1 is None else self.amp0 + xi @ self.amp1
        vals = self.weight * norm * amp * np.exp(expo)
        return vals[0] if single else vals

    def shifted(self, delta) -> "GaussianPacket":
        return replace(self, mean=self.mean + np.asarray(delta, dtype=float))

    def scaled(self, factor: float) -> "GaussianPacket":
        return replace(self, weight=self.weight * float(factor))


def propagate_packet(p: GaussianPacket, params: ModelParams, m: Matriciant,
                     x_start=None, x_end=None) -> GaussianPacket:
    """Advance a packet by the matriciant blocks around a moment trajectory.

    x_start / x_end are the shift-frame anchors at times m.s and m.t (the
    trajectory of the full density the packet belongs to); both default to
    zero, which is the plain linear drift-diffusion flow.
    """
    n = p.dim
    x_start = np.zeros(n) if x_start is None else _vector(x_start, n, "x_start")
    x_end = np.zeros(n) if x_end is None else _vector(x_end, n, "x_end")
    num = m.nn @ p.num
    den = m.dn @ p.num + m.dd @ p.den
    mean = x_end + m.dd @ (p.mean - x_start)
    amp1 = None
    if p.amp1 is not None:
        # affine amplitude rides the same flow: amp1' = Q_t dd Q_s^{-1} amp1
        q_s = p.precision(density_valid=False)
        q_t = fraction(num, den, density_valid=False)
        amp1 = q_t @ (m.dd @ np.linalg.solve(q_s, p.amp1))
    return GaussianPacket(mean=mean, num=num, den=den, weight=p.weight,
                          amp0=p.amp0, amp1=amp1)


def evolve_packet(p0: GaussianPacket, params: ModelParams,
                  t: float, s: float) -> GaussianPacket:
    """Exact solution of the mean-coupled equation from a single plain packet.

    The packet is its own density, so its mean is the initial first moment;
    the mean then follows the closed-form moment trajectory while the
    precision pair follows the matriciant.
    """
    if not p0.is_plain:
        raise InvalidCovarianceError(
            "evolve_packet needs a plain density packet; "
            "evolve amplitude-carrying packets through an evolution plan"
        )
    p0.precision(density_valid=True)
    if t == s:
        return replace(p0)
    traj = params.moment_trajectory(p0.mean, s)
    m = matriciant(params, t, s)
    out = propagate_packet(p0, params, m, x_start=p0.mean, x_end=traj.at(t))
    out.precision(density_valid=True)
    return out


def evolve_packet_linear(p0: GaussianPacket, params: ModelParams,
                         t: float, s: float) -> GaussianPacket:
    """Propagate under the drift-only linear equation (no mean feedback).

    The mean follows dm/dt = -L m, i.e. m(t) = dd @ m(s).
    """
    if t == s:
        return replace(p0)
    m = matriciant(params, t, s)
    return propagate_packet(p0, params, m)


@dataclass
class GaussianMixture:
    components: list[GaussianPacket] = field(default_factory=list)

    def __post_init__(self):
        if not self.components:
            raise InvalidCovarianceError("mixture needs at least one component")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise InvalidCovarianceError("mixture components disagree on dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def total_mass(self) -> float:
        return sum(c.total_mass() for c in self.components)

    def first_moment(self, params: ModelParams, normalized: bool = False) -> np.ndarray:
        raw = sum(c.first_moment(params) for c in self.components)
        return normalize_moment(raw, self.total_mass()) if normalized else raw

    def eval(self, params: ModelParams, x) -> np.ndarray:
        vals = self.components[0].eval(params, x)
        for c in self.components[1:]:
            vals = vals + c.eval(params, x)
        return vals

    def shifted(self, delta) -> "GaussianMixture":
        return GaussianMixture([c.shifted(delta) for c in self.components])

    def scaled(self, factor: float) -> "GaussianMixture":
        return GaussianMixture([c.scaled(factor) for c in self.components])

    def copy(self) -> "GaussianMixture":
        return GaussianMixture([replace(c) for c in self.components])


def as_mixture(g: GaussianPacket | GaussianMixture) -> GaussianMixture:
    if isinstance(g, GaussianPacket):
        return GaussianMixture([g])
    return g
