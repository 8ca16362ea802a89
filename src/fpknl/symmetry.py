"""Symmetry transforms: maps sending solutions to (other) solutions.

A first-order affine operator applied to the initial density seeds a new
solution.  Three equivalent constructions are provided:

* shift route: center, apply the time-evolved operator, re-center around
  the image's own moment trajectory;
* conclusion route: the evolved operator composed with the drift shift,
  applied in the moving frame;
* conjugation route: forward evolution of (operator applied to the
  recovered initial data), i.e. evolve o operator o inverse.

All three produce the solution seeded by the operator image of the
initial data.  When that image has zero mass the moment trajectory is not
determined by the data and must be supplied; the transform then returns a
raw signed field, which still solves the equation for the chosen
trajectory.  Symmetry is certified by the finite-difference residual, not
by constructing the determining operator identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .evolution import evolve_analytic, inverse_evolve, plan_for
from .kernels import KernelContext
from .model import ModelParams, MomentTrajectory, SampledDensity, _vector
from .packets import GaussianMixture, GaussianPacket, evolve_packet
from .variations import Matriciant, matriciant

ZERO_ALPHA_TOL = 1e-10


@dataclass(frozen=True)
class InitialOperator:
    """Affine first-order operator  const + lin . x + grad . d/dx."""

    const: float
    lin: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lin", np.atleast_1d(np.asarray(self.lin, dtype=float)))
        object.__setattr__(self, "grad", np.atleast_1d(np.asarray(self.grad, dtype=float)))
        if self.lin.shape != self.grad.shape:
            raise InputError("lin and grad coefficient vectors must match in length")
        object.__setattr__(self, "const", float(self.const))

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def shift_argument(self, delta) -> "InitialOperator":
        """Operator with its argument shifted: self evaluated at x + delta."""
        delta = _vector(delta, self.dim, "delta")
        return InitialOperator(self.const + float(self.lin @ delta),
                               self.lin, self.grad)


def evolve_operator(op: InitialOperator, params: ModelParams,
                    t: float, s: float) -> InitialOperator:
    """Coefficients of the operator carried by the drift-only linear flow.

    They obey d(lin)/dt = L^T lin, d(grad)/dt = 2 eps lin - L grad with the
    constant part frozen, i.e. the same block law as the precision pair.
    """
    m = matriciant(params, t, s)
    return InitialOperator(op.const, m.nn @ op.lin,
                           params.diffusion * (m.dn @ op.lin) + m.dd @ op.grad)


def linsym_operator(params: ModelParams, m: Matriciant, x_u_t,
                    direction: int = 0) -> InitialOperator:
    """Explicit symmetry seed: row `direction` of  nn (x - X(t)) + (eps dn + dd) d/dx.

    At t = s it reduces to  x_d - X_d(s) + d/dx_d.
    """
    x_u_t = _vector(x_u_t, params.dim, "x_u_t")
    lin = m.nn[direction, :].copy()
    grad = (params.diffusion * m.dn + m.dd)[direction, :].copy()
    return InitialOperator(-float(lin @ x_u_t), lin, grad)


@dataclass
class OperatorApplication:
    """Result of applying an operator to a field: the (possibly normalized)
    image, the raw integral alpha, and whether 1/alpha was applied."""

    field: GaussianMixture | SampledDensity
    alpha: float
    normalized: bool


def _apply_to_mixture(op: InitialOperator, mix: GaussianMixture,
                      params: ModelParams) -> tuple[GaussianMixture, float]:
    if mix.amp1 is not None:
        raise InputError("operator application to an amplitude-carrying packet "
                         "would leave the affine class")
    q = mix.precision(density_valid=False)
    amp0 = mix.amp0 * (op.const + mix.mean @ op.lin)
    amp1 = mix.amp0[:, None] * (op.lin - q @ op.grad / params.diffusion)
    out = GaussianMixture._of(mix.mean, mix.num, mix.den, mix.weight, amp0, amp1)
    return out, out.total_mass()


def _apply_to_sampled(op: InitialOperator, d: SampledDensity) -> tuple[SampledDensity, float]:
    vals = op.const * d.values
    for i in range(d.dim):
        if op.lin[i] != 0.0:
            vals = vals + op.lin[i] * d.coordinate(i) * d.values
        if op.grad[i] != 0.0:
            vals = vals + op.grad[i] * np.gradient(d.values, d.dx[i], axis=i)
    out = SampledDensity(d.x_min.copy(), d.dx.copy(), vals)
    return out, out.total_mass()


def apply_operator(op: InitialOperator, field: GaussianMixture | SampledDensity,
                   params: ModelParams):
    """Raw image of the operator and its integral (no normalization)."""
    if isinstance(field, SampledDensity):
        return _apply_to_sampled(op, field)
    return _apply_to_mixture(op, field, params)


def apply_initial_op(op: InitialOperator,
                     gamma: GaussianMixture | SampledDensity,
                     params: ModelParams) -> OperatorApplication:
    """Operator image of the initial data, normalized by its integral when
    that integral is meaningfully nonzero; otherwise the raw zero-mass field
    is returned and flagged."""
    field, alpha = apply_operator(op, gamma, params)
    if abs(alpha) > ZERO_ALPHA_TOL:
        return OperatorApplication(field=field.scaled(1.0 / alpha), alpha=alpha,
                                   normalized=True)
    return OperatorApplication(field=field, alpha=alpha, normalized=False)


@dataclass(frozen=True)
class SymmetryShifts:
    """Moment bookkeeping shared by the shift and conclusion routes.

    base_moment   : trajectory of the solution being transformed
    image_moment  : trajectory seeded at the operator image's moment
    lam           : image moment relative to the base moment at time s
    drift_shift   : lam carried by the drift-only law (rate -L)
    alpha         : integral of (operator applied to the initial data)
    normalized    : whether outputs are divided by alpha
    """

    params: ModelParams
    s: float
    base_moment: MomentTrajectory
    image_moment: MomentTrajectory
    lam: np.ndarray
    drift_shift: MomentTrajectory
    alpha: float
    normalized: bool


def build_shifts(op: InitialOperator,
                 gamma: GaussianMixture | SampledDensity,
                 params: ModelParams, s: float,
                 moment_override=None) -> SymmetryShifts:
    """Precompute every trajectory the shift-based routes need.

    gamma must be a unit-mass density.  If the operator image has zero
    mass, moment_override fixes the image trajectory; otherwise the image
    moment is the ratio of raw integrals.
    """
    x_gamma = gamma.first_moment(params, normalized=True)
    app = apply_initial_op(op, gamma, params)
    if moment_override is not None:
        x_image = _vector(moment_override, params.dim, "moment_override")
    elif app.normalized:
        x_image = app.field.first_moment(params)
    else:
        raise InputError(
            "operator image has zero mass; supply moment_override to seed "
            "its moment trajectory"
        )
    lam = x_image - x_gamma
    return SymmetryShifts(
        params=params, s=float(s),
        base_moment=params.moment_trajectory(x_gamma, s),
        image_moment=params.moment_trajectory(x_image, s),
        lam=lam,
        drift_shift=MomentTrajectory(t0=float(s), x0=lam,
                                     rate=-params.effective_drift),
        alpha=app.alpha, normalized=app.normalized,
    )


def _centered_operator(op: InitialOperator, shifts: SymmetryShifts,
                       t: float) -> InitialOperator:
    """Time-evolved operator in the frame centered on the base solution."""
    return evolve_operator(op.shift_argument(shifts.base_moment.x0),
                           shifts.params, t, shifts.s)


def symmetry_apply_shift(op: InitialOperator, u: GaussianMixture,
                         shifts: SymmetryShifts, t: float) -> GaussianMixture:
    """Shift route: evolved centered operator and solution, both evaluated
    at the composed shift, then re-anchored on the image trajectory."""
    y_t = shifts.image_moment.at(t)
    l_t = shifts.drift_shift.at(t)
    x_u = shifts.base_moment.at(t)
    delta_op = -y_t + l_t
    moved = u.shifted(y_t - l_t - x_u)  # u evaluated at x + delta_op + X_u
    a_t = _centered_operator(op, shifts, t).shift_argument(delta_op)
    field, _ = apply_operator(a_t, moved, shifts.params)
    if shifts.normalized:
        field = field.scaled(1.0 / shifts.alpha)
    return field


def symmetry_apply_conclusion(op: InitialOperator, u: GaussianMixture,
                              shifts: SymmetryShifts, t: float) -> GaussianMixture:
    """Conclusion route: apply the evolved operator in the centered frame,
    compose with the drift shift, and move onto the image trajectory."""
    x_u = shifts.base_moment.at(t)
    w = u.shifted(-x_u)
    applied, _ = apply_operator(_centered_operator(op, shifts, t), w, shifts.params)
    field = applied.shifted(shifts.image_moment.at(t) - shifts.drift_shift.at(t))
    if shifts.normalized:
        field = field.scaled(1.0 / shifts.alpha)
    return field


def symmetry_apply_evolution(op: InitialOperator, u: GaussianMixture,
                             plan: KernelContext,
                             moment_override=None) -> GaussianMixture:
    """Conjugation route: recover the initial data with the left inverse,
    apply the operator, evolve forward along the image's own trajectory."""
    gamma = inverse_evolve(u, plan)
    app = apply_initial_op(op, gamma, plan.params)
    plan_image = plan_for(plan.params, plan.s, plan.t, app.field,
                          moment_override=moment_override)
    return evolve_analytic(app.field, plan_image, require_normalized=app.normalized)


def linsym_closed_form(params: ModelParams, t: float, s: float,
                       num0: float, den0: float, x_gamma: float,
                       x_gamma_image: float):
    """Direct 1D evaluator of the explicit-seed transform of a Gaussian.

    Returns a callable x -> u_A(x, t) implementing

        (1/den(t)) (den0 - num0/eps) (x - Xa(t) + dd (xi - Xg))
            * u(x + X(t) - Xa(t) + dd (xi - Xg), t)

    with dd = dd(t, s), xi the supplied image moment, and u the evolved
    base Gaussian.  The image field is the raw (zero-mass) one.
    """
    if params.dim != 1:
        raise InputError("closed form is the one-dimensional display")
    m = matriciant(params, t, s)
    den_t = float(m.dn[0, 0]) * num0 + float(m.dd[0, 0]) * den0
    coeff = (den0 - num0 / params.diffusion) / den_t
    base = GaussianPacket(mean=np.array([x_gamma]), num=np.array([[num0]]),
                          den=np.array([[den0]]))
    u_t = evolve_packet(base, params, t, s)
    x_t = params.moment_trajectory(np.array([x_gamma]), s).at(t)[0]
    xa_t = params.moment_trajectory(np.array([x_gamma_image]), s).at(t)[0]
    reach = float(m.dd[0, 0]) * (x_gamma_image - x_gamma)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return (coeff * (x - xa_t + reach)
                * u_t.eval(params, x + x_t - xa_t + reach))

    return evaluate


def residual_field(params: ModelParams, field: np.ndarray, t0: float,
                   dt: float, x_min, dx,
                   moment: MomentTrajectory) -> tuple[float, float]:
    """Centered-difference residual of the equation with a fixed moment
    trajectory: -u_t + eps lap(u) + div((L x + f X(t)) u).

    field has shape (nt, *spatial).  Returns (max abs, rms) over interior
    nodes; both decay at second order for exact solutions.
    """
    field = np.asarray(field, dtype=float)
    if min(field.shape) < 3:
        raise InputError("need at least 3 nodes per axis for centered stencils")
    grid = SampledDensity(x_min, dx, field[0])
    n, dx = grid.dim, grid.dx
    lam = params.effective_drift
    feedback = params.mean_feedback
    drift_static = [sum(lam[i, j] * grid.coordinate(j) for j in range(n))
                    for i in range(n)]

    interior = tuple(slice(1, -1) for _ in range(n))
    worst = 0.0
    total_sq = 0.0
    count = 0
    for k in range(1, len(field) - 1):
        u = field[k]
        u_t = (field[k + 1] - field[k - 1]) / (2.0 * dt)
        res = -u_t[interior]
        mom = moment.at(t0 + k * dt)
        for i in range(n):
            up = np.roll(u, -1, axis=i)
            dn = np.roll(u, 1, axis=i)
            lap_i = (up - 2.0 * u + dn) / dx[i] ** 2
            vel = drift_static[i] + float(feedback[i] @ mom)
            flux = vel * u
            div_i = (np.roll(flux, -1, axis=i) - np.roll(flux, 1, axis=i)) / (2.0 * dx[i])
            res = res + (params.diffusion * lap_i + div_i)[interior]
        worst = max(worst, float(np.max(np.abs(res))))
        total_sq += float(np.sum(res ** 2))
        count += res.size
    return worst, float(np.sqrt(total_sq / count))


def spacetime_samples(eval_at, times, x_min, x_max, nodes) -> np.ndarray:
    """Stack eval_at(t, points)->values over the times on a uniform grid."""
    return np.stack([SampledDensity.from_callable(lambda p: eval_at(t, p),
                                                  x_min, x_max, nodes).values
                     for t in times])
