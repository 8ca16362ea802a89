"""Symmetry transforms: maps sending solutions to (other) solutions.

A first-order affine operator applied to the initial density seeds a new
solution.  Three equivalent constructions are provided:

* shift route: center, apply the time-evolved operator, re-center around
  the image's own moment trajectory;
* conclusion route: the evolved operator composed with the drift shift
  (the image's moment offset moved by the matriciant block dd), applied
  in the moving frame;
* conjugation route: forward evolution of (operator applied to the
  recovered initial data), i.e. evolve o operator o inverse.

The shift and conclusion routes are two orderings of one frame: a
SymmetryShifts holds, for the latest time t asked for, the operator it
was built for evolved from s to t in the frame centered on the base
solution (A_t), the base trajectory at t (X_base(t)), and the anchor
X_image(t) - dd(t, s) @ lam, built once and read-only.  The shift route
applies A_t at the anchor to the solution moved there; the conclusion
route applies A_t in the centered frame and moves the image to the
anchor.  A route given an operator other than the shifts' (not the same
object, nor equal coefficients) raises InputError.  symmetry_routes
seeds the frame from its plan's matriciant and end anchor, the same
calls on the same inputs, so it builds one matriciant for (t, s).

All three produce the solution seeded by the operator image of the
initial data.  When that image has zero mass the moment trajectory is not
determined by the data and must be supplied; the transform then returns a
raw signed field, which still solves the equation for the chosen
trajectory.  Symmetry is certified by the finite-difference residual, not
by constructing the determining operator identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .evolution import evolve_analytic, inverse_evolve, plan_for
from .kernels import KernelContext, _require_field
from .model import ModelParams, MomentTrajectory, SampledDensity, _vector, require_finite
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
        require_finite(InputError, "operator coefficients", self.const, *self.lin, *self.grad)

    def __eq__(self, other) -> bool:
        """The same operator: the same object, or equal coefficients."""
        return other is self or (isinstance(other, InitialOperator) and self.const == other.const
                                 and np.array_equal(self.lin, other.lin)
                                 and np.array_equal(self.grad, other.grad))

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def shift_argument(self, delta) -> "InitialOperator":
        """Operator with its argument shifted: self evaluated at x + delta.
        It shares self's checked lin and grad, so only the new const is
        checked; one that overflows raises InputError and no warning."""
        delta = _vector(delta, self.dim, "delta")
        with np.errstate(over="ignore", invalid="ignore"):
            const = self.const + float(self.lin @ delta)
        require_finite(InputError, "operator coefficients", const)
        shifted = object.__new__(InitialOperator)
        for name, value in (("const", const), ("lin", self.lin), ("grad", self.grad)):
            object.__setattr__(shifted, name, value)
        return shifted


def evolve_operator(op: InitialOperator, params: ModelParams,
                    m: Matriciant) -> InitialOperator:
    """Coefficients of the operator carried by the drift-only linear flow
    over the matriciant m.

    They obey d(lin)/dt = L^T lin, d(grad)/dt = 2 eps lin - L grad with the
    constant part frozen, i.e. the same block law as the precision pair.
    """
    return InitialOperator(op.const, m.nn @ op.lin,
                           params.diffusion * (m.dn @ op.lin) + m.dd @ op.grad)


def linsym_operator(params: ModelParams, m: Matriciant, x_u_t,
                    direction: int = 0) -> InitialOperator:
    """Explicit symmetry seed: row `direction` of  nn (x - X(t)) + (eps dn + dd) d/dx.

    At t = s it reduces to  x_d - X_d(s) + d/dx_d.
    """
    x_u_t = _vector(x_u_t, params.dim, "x_u_t")
    if not 0 <= direction < params.dim:
        raise InputError(f"direction {direction} lies outside 0 ... {params.dim - 1}")
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
                      params: ModelParams) -> GaussianMixture:
    if mix.dipole is not None:
        raise InputError("operator application to a dipole-carrying packet "
                         "would leave the first-order class")
    # (const + lin.x) N + grad . grad N: lin.(x - m) N = -eps S lin . grad N
    amp0 = mix.amp0 * (op.const + mix.mean @ op.lin)
    lin = params.diffusion * (mix.cov @ op.lin)
    dipole = mix.amp0[:, None] * (lin - op.grad)
    return GaussianMixture._of(mix.mean, mix.cov, mix.weight, amp0, dipole)


def _apply_to_sampled(op: InitialOperator, d: SampledDensity) -> SampledDensity:
    vals = op.const * d.values
    for i in range(d.dim):
        if op.lin[i] != 0.0:
            vals = vals + op.lin[i] * d.coordinate(i) * d.values
        if op.grad[i] != 0.0:
            vals = vals + op.grad[i] * np.gradient(d.values, d.dx[i], axis=i)
    return SampledDensity(d.x_min.copy(), d.dx.copy(), vals)


def apply_operator(op: InitialOperator, field: GaussianMixture | SampledDensity,
                   params: ModelParams):
    """Raw image of the operator (no normalization)."""
    if op.dim != field.dim:
        raise InputError(f"the operator has dimension {op.dim}, "
                         f"but the field has dimension {field.dim}")
    if isinstance(field, SampledDensity):
        return _apply_to_sampled(op, field)
    return _apply_to_mixture(op, field, params)


def apply_initial_op(op: InitialOperator,
                     gamma: GaussianMixture | SampledDensity,
                     params: ModelParams) -> OperatorApplication:
    """Operator image of the initial data, normalized by its integral when
    that integral is meaningfully nonzero; otherwise the raw zero-mass field
    is returned and flagged."""
    field = apply_operator(op, gamma, params)
    alpha = field.total_mass()
    if abs(alpha) > ZERO_ALPHA_TOL:
        return OperatorApplication(field=field.scaled(1.0 / alpha), alpha=alpha,
                                   normalized=True)
    return OperatorApplication(field=field, alpha=alpha, normalized=False)


@dataclass(frozen=True, eq=False)
class SymmetryShifts:
    """Moment bookkeeping shared by the shift and conclusion routes.

    op            : the operator whose image the routes build; a route
                    given any other operator is refused
    base_moment   : trajectory of the solution being transformed
    image_moment  : trajectory seeded at the operator image's moment
    lam           : image moment relative to the base moment at time s; the
                    drift-only flow carries it to dd(t, s) @ lam at time t
    alpha         : integral of (operator applied to the initial data)
    normalized    : whether outputs are divided by alpha
    """

    op: InitialOperator
    params: ModelParams
    s: float
    base_moment: MomentTrajectory
    image_moment: MomentTrajectory
    lam: np.ndarray
    alpha: float
    normalized: bool
    # the frame of the latest time asked for, {t: _frame(op, t)}
    _frames: dict = field(default_factory=dict, init=False, repr=False)

    def _frame(self, op: InitialOperator, t: float, m: Matriciant | None = None,
               x_base: np.ndarray | None = None):
        """(A_t, X_base(t), anchor): op evolved from s to t in the frame
        centered on the base solution, the base trajectory at t, and the
        image trajectory at t less the drift shift dd(t, s) @ lam.  Built
        once per time and read-only, so the shift and conclusion routes
        share them; another t replaces them.  A plan from s to t may pass
        its m and x_end, the same calls on the same inputs as the
        matriciant and base_moment.at(t)."""
        if op != self.op:
            raise InputError("the operator differs from the one these shifts were built for")
        frame = self._frames.get(float(t))
        if frame is None:
            if m is None:
                m, x_base = matriciant(self.params, t, self.s), self.base_moment.at(t)
            a_t = evolve_operator(self.op.shift_argument(self.base_moment.x0), self.params, m)
            # a view, so a plan's own end anchor stays writable
            frame = (a_t, x_base.view(), self.image_moment.at(t) - m.dd @ self.lam)
            for a in (a_t.lin, a_t.grad, *frame[1:]):
                a.flags.writeable = False
            self._frames.clear()
            self._frames[float(t)] = frame
        return frame

    def _normalized(self, field: GaussianMixture) -> GaussianMixture:
        """A route's image, divided by alpha where the image is normalized."""
        return field.scaled(1.0 / self.alpha) if self.normalized else field


def build_shifts(op: InitialOperator,
                 gamma: GaussianMixture | SampledDensity,
                 params: ModelParams, s: float,
                 moment_override=None) -> SymmetryShifts:
    """Precompute every trajectory the shift-based routes need.

    gamma must be a unit-mass density.  If the operator image has zero
    mass, moment_override fixes the image trajectory; otherwise the image
    moment is the ratio of raw integrals.
    """
    x_gamma = gamma.first_moment(normalized=True)
    app = apply_initial_op(op, gamma, params)
    if moment_override is not None:
        x_image = _vector(moment_override, params.dim, "moment_override")
    elif app.normalized:
        x_image = app.field.first_moment()
    else:
        raise InputError(
            "operator image has zero mass; supply moment_override to seed "
            "its moment trajectory"
        )
    lam = x_image - x_gamma
    return SymmetryShifts(
        op=op, params=params, s=float(s),
        base_moment=params.moment_trajectory(x_gamma, s),
        image_moment=params.moment_trajectory(x_image, s),
        lam=lam, alpha=app.alpha, normalized=app.normalized,
    )


def symmetry_apply_shift(op: InitialOperator, u: GaussianMixture,
                         shifts: SymmetryShifts, t: float) -> GaussianMixture:
    """Shift route: evolved centered operator and solution, both evaluated
    at the anchor, which re-centers them on the image trajectory."""
    _require_field(u, (GaussianMixture,), "symmetry_apply_shift")
    a_t, x_u, anchor = shifts._frame(op, t)
    return shifts._normalized(apply_operator(a_t.shift_argument(-anchor),
                                             u.shifted(anchor - x_u), shifts.params))


def symmetry_apply_conclusion(op: InitialOperator, u: GaussianMixture,
                              shifts: SymmetryShifts, t: float) -> GaussianMixture:
    """Conclusion route: apply the evolved operator in the centered frame,
    then move the image onto the anchor."""
    _require_field(u, (GaussianMixture,), "symmetry_apply_conclusion")
    a_t, x_u, anchor = shifts._frame(op, t)
    return shifts._normalized(apply_operator(a_t, u.shifted(-x_u), shifts.params).shifted(anchor))


def symmetry_apply_evolution(op: InitialOperator, u: GaussianMixture,
                             plan: KernelContext,
                             moment_override=None) -> GaussianMixture:
    """Conjugation route: recover the initial data with the left inverse,
    apply the operator, evolve forward along the image's own trajectory:
    the plan's matriciant, re-anchored on the image's initial moment (or
    the override)."""
    _require_field(u, (GaussianMixture,), "symmetry_apply_evolution", plan)
    gamma = inverse_evolve(u, plan)
    app = apply_initial_op(op, gamma, plan.params)
    if moment_override is None:
        x_image = app.field.first_moment(normalized=True)
    else:
        x_image = _vector(moment_override, plan.params.dim, "moment_override")
    return evolve_analytic(app.field, plan.reanchored(x_image),
                           require_normalized=app.normalized)


def symmetry_routes(op: InitialOperator, initial: GaussianMixture,
                    params: ModelParams, s: float, t: float, moment_override=None):
    """The three routes of the operator from initial data at s to time t.

    Builds the shifts, the plan and the evolved solution once and returns
    ((shift, conclusion, conjugation), shifts); the routes are mixtures,
    for the caller to evaluate on its own points.
    """
    _require_field(initial, (GaussianMixture,), "symmetry_routes")
    shifts = build_shifts(op, initial, params, s, moment_override=moment_override)
    plan = plan_for(params, s, t, initial)
    shifts._frame(op, t, plan.m, plan.x_end)  # the plan's trajectory is the base one
    u = evolve_analytic(initial, plan)
    routes = (symmetry_apply_shift(op, u, shifts, t),
              symmetry_apply_conclusion(op, u, shifts, t),
              symmetry_apply_evolution(op, u, plan, moment_override=moment_override))
    return routes, shifts


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


def residual_field(params: ModelParams, eval_at, t0: float, dt: float, steps: int,
                   x_min, x_max, nodes,
                   moment: MomentTrajectory) -> tuple[float, float]:
    """Centered-difference residual of the equation with a fixed moment
    trajectory: -u_t + eps lap(u) + div((L x + f X(t)) u).

    eval_at(t, points) -> values gives the field at the (N, dim) nodes of
    the uniform grid from x_min to x_max with the given node counts per
    axis (SampledDensity.on_grid), sampled at the steps times
    t0 + dt * arange(steps); the stencils take their spacing from that
    same grid.  Returns (max abs, rms) over interior nodes and times; both
    decay at second order for exact solutions.
    """
    grid = SampledDensity.on_grid(x_min, x_max, nodes)
    if min(steps, *grid.values.shape) < 3:
        raise InputError("need at least 3 nodes per axis for centered stencils")
    times = t0 + dt * np.arange(steps)
    points = grid.points()
    field = [np.asarray(eval_at(t, points), dtype=float).reshape(grid.values.shape)
             for t in times]
    n, dx = grid.dim, grid.dx
    lam = params.effective_drift
    feedback = params.mean_feedback
    drift_static = [sum(lam[i, j] * grid.coordinate(j) for j in range(n))
                    for i in range(n)]

    interior = tuple(slice(1, -1) for _ in range(n))
    worst = 0.0
    total_sq = 0.0
    count = 0
    for k in range(1, steps - 1):
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
