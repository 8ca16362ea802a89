import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpknl import (DegenerateMomentError, GaussianMixture, GaussianPacket,
                   InputError, ModelParams, SampledDensity, apply_initial_op,
                   build_shifts, evolve_analytic, linsym_closed_form,
                   linsym_operator, matriciant, plan_for, residual_field,
                   spacetime_samples, symmetry_apply_conclusion,
                   symmetry_apply_evolution, symmetry_apply_shift)
from fpknl.symmetry import InitialOperator

E = np.e


def params_1d(lam=1.0, eps=0.1, feedback=-0.5, kappa=1.0):
    return ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                       coupling_mean=[[feedback]], diffusion=eps, coupling=kappa)


def unit_field(mean=0.5, num=1.0, den=1.0):
    return GaussianMixture([GaussianPacket(mean=[mean], num=[[num]], den=[[den]])])


# the operator that leaves every field as it is
IDENTITY = InitialOperator(1.0, [0.0], [0.0])


# -------------------------------------------------------------- applications

def test_identity_operator_returns_input():
    p = params_1d()
    pk = unit_field()
    app = apply_initial_op(IDENTITY, pk, p)
    assert app.alpha == pytest.approx(1.0)
    assert app.normalized
    xs = np.linspace(-3, 3, 41).reshape(-1, 1)
    np.testing.assert_allclose(app.field.eval(p, xs), pk.eval(p, xs), atol=1e-15)


def test_explicit_seed_on_centered_gaussian_has_zero_mass():
    # (x - mean + d/dx) applied to its own Gaussian integrates to zero
    p = params_1d(eps=0.4)
    pk = unit_field(mean=0.3, num=1.2, den=0.9)
    op = InitialOperator(const=-0.3, lin=[1.0], grad=[1.0])
    app = apply_initial_op(op, pk, p)
    assert app.alpha == pytest.approx(0.0, abs=1e-15)
    assert not app.normalized


def test_position_operator_yields_mean():
    p = params_1d(eps=0.4)
    pk = unit_field(mean=0.8)
    op = InitialOperator(const=0.0, lin=[1.0], grad=[0.0])
    app = apply_initial_op(op, pk, p)
    assert app.alpha == pytest.approx(0.8, abs=1e-14)


def test_gradient_operator_gives_odd_zero_mass_field():
    p = params_1d(eps=0.4)
    pk = unit_field(mean=0.2)
    op = InitialOperator(const=0.0, lin=[0.0], grad=[1.0])
    app = apply_initial_op(op, pk, p)
    assert app.alpha == pytest.approx(0.0, abs=1e-15)
    xs = np.array([0.2 - 0.5, 0.2 + 0.5]).reshape(-1, 1)
    vals = app.field.eval(p, xs)
    assert vals[0] == pytest.approx(-vals[1], abs=1e-14)  # odd about the mean
    # proportional to (x - mean) times the Gaussian
    d = 0.5
    expected = d * pk.precision()[0, 0, 0] / p.diffusion * pk.eval(p, [0.2 + d])
    assert vals[1] == pytest.approx(-expected, rel=1e-12)


def test_apply_operator_on_sampled_matches_analytic():
    from fpknl import SampledDensity
    p = params_1d(eps=0.4)
    pk = unit_field(mean=0.3)
    op = InitialOperator(const=0.2, lin=[0.7], grad=[-0.4])
    gamma = SampledDensity.from_callable(lambda q: pk.eval(p, q),
                                         [-8.0], [8.0], [3201])
    app_s = apply_initial_op(op, gamma, p)
    app_a = apply_initial_op(op, pk, p)
    assert app_s.alpha == pytest.approx(app_a.alpha, abs=1e-8)
    pts = gamma.points()
    # centered differences are second order: error ~ dx^2 |gamma'''|
    np.testing.assert_allclose(app_s.field.values,
                               app_a.field.eval(p, pts), atol=5e-5)


# ------------------------------------------------------------ explicit seeds

def test_linsym_at_start_is_shifted_position_plus_gradient():
    p = params_1d()
    m = matriciant(p, 0.0, 0.0)
    op = linsym_operator(p, m, [0.5])
    assert op.const == pytest.approx(-0.5)
    assert op.lin[0] == pytest.approx(1.0)
    assert op.grad[0] == pytest.approx(1.0)


def test_linsym_unit_drift_frozen_coefficients():
    p = params_1d(lam=1.0, eps=1.0, feedback=0.0, kappa=0.0)
    m = matriciant(p, 1.0, 0.0)
    op = linsym_operator(p, m, [0.0])
    assert op.lin[0] == pytest.approx(E, abs=1e-13)
    assert op.grad[0] == pytest.approx(E, abs=1e-13)  # eps*dn + dd collapses to e
    assert op.const == pytest.approx(0.0, abs=1e-15)


def test_linsym_zero_drift_coefficients():
    p = params_1d(lam=0.0, eps=0.3, feedback=0.0, kappa=0.0)
    tau = 1.4
    m = matriciant(p, tau, 0.0)
    op = linsym_operator(p, m, [0.2])
    assert op.lin[0] == pytest.approx(1.0, abs=1e-14)
    assert op.const == pytest.approx(-0.2, abs=1e-14)
    assert op.grad[0] == pytest.approx(2 * 0.3 * tau + 1.0, abs=1e-13)


# ------------------------------------------------------------------- routes

def routes_on(params, packet, op, t, override=None):
    plan = plan_for(params, 0.0, t, packet)
    u = evolve_analytic(packet, plan)
    shifts = build_shifts(op, packet, params, 0.0, moment_override=override)
    xs = np.linspace(-3.5, 4.0, 301)
    return (
        symmetry_apply_shift(op, u, shifts, t).eval(params, xs),
        symmetry_apply_conclusion(op, u, shifts, t).eval(params, xs),
        symmetry_apply_evolution(op, u, plan, moment_override=override).eval(params, xs),
        xs,
    )


def test_routes_agree_for_generic_operator():
    p = params_1d(lam=1.0, eps=0.4, feedback=-0.5, kappa=0.7)
    pk = unit_field(mean=0.6, num=1.2, den=0.9)
    op = InitialOperator(const=0.4, lin=[0.9], grad=[-0.5])
    a, b, c, _ = routes_on(p, pk, op, 0.8)
    assert np.max(np.abs(a - b)) < 1e-8
    assert np.max(np.abs(a - c)) < 1e-8


def test_routes_agree_for_explicit_seed_and_match_closed_form():
    p = params_1d()
    pk = unit_field()
    op = linsym_operator(p, matriciant(p, 0.0, 0.0), pk.mean[0])
    a, b, c, xs = routes_on(p, pk, op, 1.0, override=[0.2])
    closed = linsym_closed_form(p, 1.0, 0.0, 1.0, 1.0, 0.5, 0.2)(xs)
    assert np.max(np.abs(a - b)) < 1e-8
    assert np.max(np.abs(a - c)) < 1e-8
    assert np.max(np.abs(c - closed)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(a0=st.floats(min_value=0.2, max_value=2.0),
       a1=st.floats(min_value=-1.5, max_value=1.5),
       ag=st.floats(min_value=-1.5, max_value=1.5),
       lam=st.floats(min_value=-1.2, max_value=1.2),
       mean=st.floats(min_value=-0.8, max_value=0.8),
       t=st.floats(min_value=0.1, max_value=1.2))
def test_routes_agree_property(a0, a1, ag, lam, mean, t):
    # a0 bounded away from 0 keeps the operator image clearly normalizable
    p = params_1d(lam=lam, eps=0.4, feedback=-0.5, kappa=0.7)
    pk = unit_field(mean=mean, num=1.1, den=0.9)
    op = InitialOperator(const=a0, lin=[a1], grad=[ag])
    alpha = a0 + a1 * mean
    if abs(alpha) < 0.05:
        return  # near-degenerate normalization; covered by the zero-mass path
    a, b, c, _ = routes_on(p, pk, op, t)
    scale = max(np.max(np.abs(a)), 1e-3)
    assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, scale)
    assert np.max(np.abs(a - c)) < 1e-9 * max(1.0, scale)


def test_identity_operator_routes_return_solution():
    p = params_1d()
    pk = unit_field()
    op = IDENTITY
    a, b, c, xs = routes_on(p, pk, op, 1.0)
    plan = plan_for(p, 0.0, 1.0, pk)
    u_vals = evolve_analytic(pk, plan).eval(p, xs)
    for field in (a, b, c):
        np.testing.assert_allclose(field, u_vals, atol=1e-10)


def test_zero_mass_route_needs_moment_override():
    p = params_1d()
    pk = unit_field()
    op = linsym_operator(p, matriciant(p, 0.0, 0.0), pk.mean[0])
    with pytest.raises(InputError):
        build_shifts(op, pk, p, 0.0)


@pytest.mark.parametrize("sampled", [False, True], ids=["mixture", "sampled"])
def test_zero_mass_field_has_no_normalized_moment(sampled):
    p = params_1d()
    field = GaussianMixture([
        GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]], weight=0.6),
        GaussianPacket(mean=[-0.2], num=[[2.0]], den=[[1.0]], weight=-0.6)])
    if sampled:
        mix = field
        field = SampledDensity.from_callable(lambda pts: mix.eval(p, pts),
                                             [-6.0], [6.0], [1201])
    with pytest.raises(DegenerateMomentError):
        field.first_moment(p, normalized=True)
    op = InitialOperator(const=0.4, lin=[0.9], grad=[-0.5])
    with pytest.raises(DegenerateMomentError):
        build_shifts(op, field, p, 0.0, moment_override=[0.1])


def test_image_moment_trajectories():
    p = params_1d()
    pk = unit_field()
    op = InitialOperator(const=0.4, lin=[0.9], grad=[-0.5])
    shifts = build_shifts(op, pk, p, 0.0)
    # image moment follows the coupled rate, the drift shift the linear rate
    rate = p.moment_rate[0, 0]
    lam_rate = -p.effective_drift[0, 0]
    t = 0.7
    x0 = shifts.image_moment.x0[0]
    assert shifts.image_moment.at(t)[0] == pytest.approx(x0 * np.exp(rate * t),
                                                         rel=1e-12)
    assert shifts.drift_shift.at(t)[0] == pytest.approx(
        shifts.lam[0] * np.exp(lam_rate * t), rel=1e-12)
    assert shifts.drift_shift.at(0.0)[0] == pytest.approx(shifts.lam[0])


def test_drift_shift_consistency_relation():
    # d/dt [dd(t,s) v] = -L dd(t,s) v for any fixed v
    p = params_1d()
    v = 0.3
    h = 1e-6
    t = 0.8
    dd = lambda tt: matriciant(p, tt, 0.0).dd[0, 0]
    lhs = (dd(t + h) - dd(t - h)) / (2 * h) * v
    rhs = -p.effective_drift[0, 0] * dd(t) * v
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_routes_agree_in_two_dimensions():
    lam = np.array([[0.7, 0.2], [-0.15, 0.5]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.4, 0.1], [0.0, -0.3]]),
                    diffusion=0.35, coupling=0.8)
    pk = GaussianMixture([GaussianPacket(mean=[0.5, -0.3], num=np.eye(2),
                                         den=np.array([[1.0, 0.2], [0.2, 1.4]]))])
    t = 0.7
    plan = plan_for(p, 0.0, t, pk)
    u = evolve_analytic(pk, plan)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.5, 2.5, size=(200, 2))

    op = InitialOperator(const=0.6, lin=[0.4, -0.3], grad=[0.2, 0.5])
    shifts = build_shifts(op, pk, p, 0.0)
    a = symmetry_apply_shift(op, u, shifts, t).eval(p, pts)
    b = symmetry_apply_conclusion(op, u, shifts, t).eval(p, pts)
    c = symmetry_apply_evolution(op, u, plan).eval(p, pts)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - c)) < 1e-12

    # explicit seed lifted row-wise, zero-mass image with supplied moment
    seed = [0.2, -0.1]
    for direction in (0, 1):
        lop = linsym_operator(p, matriciant(p, 0.0, 0.0), pk.mean[0],
                              direction=direction)
        sh = build_shifts(lop, pk, p, 0.0, moment_override=seed)
        assert sh.alpha == pytest.approx(0.0, abs=1e-14)
        aa = symmetry_apply_shift(lop, u, sh, t).eval(p, pts)
        cc = symmetry_apply_evolution(lop, u, plan,
                                      moment_override=seed).eval(p, pts)
        assert np.max(np.abs(aa - cc)) < 1e-12


# ----------------------------------------------------------------- residuals

def test_transformed_field_solves_equation_at_second_order():
    p = params_1d()
    pk = unit_field()
    op = linsym_operator(p, matriciant(p, 0.0, 0.0), pk.mean[0])
    app = apply_initial_op(op, pk, p)
    seed = [0.2]

    def resid(dx, dt):
        nx = int(round(5.5 / dx)) + 1
        times = 0.4 + dt * np.arange(7)

        def field_at(t, pts):
            plan = plan_for(p, 0.0, float(t), app.field, moment_override=seed)
            return evolve_analytic(app.field, plan,
                                   require_normalized=app.normalized).eval(p, pts)

        fld = spacetime_samples(field_at, times, [-2.5], [3.0], [nx])
        return residual_field(p, fld, float(times[0]), dt, [-2.5],
                              [5.5 / (nx - 1)], p.moment_trajectory(seed, 0.0))

    coarse = resid(1e-2, 1e-3)
    fine = resid(5e-3, 5e-4)
    assert coarse[1] / fine[1] == pytest.approx(4.0, abs=1.0)


def test_residual_zero_field():
    p = params_1d()
    fld = np.zeros((5, 33))
    worst, rms = residual_field(p, fld, 0.0, 1e-3, [-1.0], [0.0625],
                                p.moment_trajectory([0.0], 0.0))
    assert worst == 0.0 and rms == 0.0


def test_residual_needs_stencil_margin():
    p = params_1d()
    with pytest.raises(InputError):
        residual_field(p, np.zeros((2, 33)), 0.0, 1e-3, [-1.0], [0.0625],
                       p.moment_trajectory([0.0], 0.0))
