import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpknl import (DegenerateMomentError, GaussianMixture, GaussianPacket,
                   InputError, InvalidCovarianceError, KernelValidityError, ModelParams,
                   MomentTrajectory, SampledDensity, apply_initial_op,
                   build_shifts, evolve_analytic, inverse_evolve, kernels, linsym_closed_form,
                   linsym_operator, matriciant, plan_for, residual_field,
                   symmetry_apply_conclusion, symmetry_apply_evolution,
                   symmetry_apply_shift, symmetry_routes)
from fpknl import checks, symmetry
from fpknl.checks import reference_case
from fpknl.symmetry import InitialOperator
from fpknl.variations import propagate_pair

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
    expected = d / pk.cov[0, 0, 0] / p.diffusion * pk.eval(p, [0.2 + d])
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


@pytest.mark.parametrize("sampled", [False, True], ids=["mixture", "sampled"])
def test_operator_of_another_dimension_is_refused(sampled):
    # a 2-coefficient operator on a 1D field: the mixture used to escape as
    # numpy's matmul ValueError, the samples to drop lin[1] and grad[1]
    p = params_1d()
    field = unit_field()
    if sampled:
        mix = field
        field = SampledDensity.from_callable(lambda q: mix.eval(p, q), [-6.0], [6.0], [601])
    op = InitialOperator(const=1.0, lin=[0.5, 0.2], grad=[0.3, 0.1])
    with pytest.raises(InputError, match="operator has dimension 2, but the field "
                                         "has dimension 1"):
        apply_initial_op(op, field, p)


def test_operator_coefficients_of_different_lengths_are_refused():
    with pytest.raises(InputError, match="lin and grad coefficient vectors must match"):
        InitialOperator(1.0, [0.0, 1.0], [0.0])


@pytest.mark.parametrize("lin, grad, delta", [
    ([1.2], [0.7], [0.25]),
    ([0.3, -1.1], [0.5, 2.0], [0.4, -0.9]),
    ([0.3, -1.1, 2.5], [0.5, 2.0, -0.2], [0.4, -0.9, 1e-3]),
], ids=["1d", "2d", "3d"])
def test_a_shifted_operator_has_the_bits_of_one_built_from_its_coefficients(lin, grad, delta):
    op = InitialOperator(0.3, lin, grad)
    shifted = op.shift_argument(delta)
    built = InitialOperator(op.const + op.lin @ np.asarray(delta), op.lin, op.grad)
    assert shifted == built
    assert type(shifted.const) is float and shifted.const == built.const
    assert shifted.lin is op.lin and shifted.grad is op.grad


def test_a_shift_whose_constant_overflows_is_an_input_error_and_no_warning():
    # lin . delta overflows to inf: the shift used to leak numpy's "overflow
    # encountered in matmul" before its InputError (RuntimeWarning is an
    # error in this suite)
    op = InitialOperator(0.0, [1e300], [1.0])
    with pytest.raises(InputError, match="operator coefficients must be finite, got inf"):
        op.shift_argument([1e300])


def test_operator_on_a_dipole_mixture_is_refused():
    # the image of a dipole would need second derivatives of the Gaussian
    dipole = GaussianMixture([GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]],
                                             dipole=[0.3])])
    with pytest.raises(InputError, match="dipole-carrying packet"):
        apply_initial_op(IDENTITY, dipole, params_1d())


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


@pytest.mark.parametrize("direction", [0.5, 1.0, "0"])
def test_linsym_direction_that_is_not_an_integer_is_refused(direction):
    # 0.5 used to pass the range test and raise IndexError from the row index
    p = params_1d()
    with pytest.raises(InputError, match="is not an integer in 0 ... 0"):
        linsym_operator(p, matriciant(p, 0.0, 0.0), [0.5], direction=direction)


def test_a_route_time_that_is_not_a_number_is_an_input_error():
    # np.isfinite("1") raised TypeError from the frame's matriciant
    p, initial = params_1d(), unit_field()
    shifts = build_shifts(IDENTITY, initial, p, 0.0)
    u = evolve_analytic(initial, plan_for(p, 0.0, 1.0, initial))
    for t in ("1", "a"):
        with pytest.raises(InputError, match="time t must be finite, got .*, not a number"):
            symmetry_apply_shift(IDENTITY, u, shifts, t)


@pytest.mark.parametrize("tau", [240.0, 250.0])
def test_a_horizon_whose_dd_leaves_double_precision_is_a_kernel_validity_error(tau):
    # drift 3 takes dd to 2e-313 (subnormal) at t - s = 240 and to 0 at 250,
    # where nn = inv(dd)^T does not exist.  At 240 linsym_operator leaked
    # "invalid value encountered in matmul" and symmetry_apply_shift raised
    # "operator coefficients must be finite"; at 250 each of these raised
    # numpy's LinAlgError "Singular matrix"
    p, initial = params_1d(lam=3.0), unit_field()
    op = InitialOperator(1.0, [0.3], [0.2])
    m = matriciant(p, tau, 0.0)
    u = evolve_analytic(initial, plan_for(p, 0.0, tau, initial))
    calls = [lambda: linsym_operator(p, m, [0.0]),
             lambda: symmetry_apply_shift(op, u, build_shifts(op, initial, p, 0.0), tau),
             lambda: symmetry_routes(op, initial, p, 0.0, tau),
             lambda: propagate_pair(m, [[1.0]], [[1.0]])]
    for call in calls:
        with pytest.raises(KernelValidityError, match=rf"\|t - s\| = {tau:g}: dd decays"):
            call()


@pytest.mark.parametrize("direction", [1, -1])
def test_linsym_direction_outside_the_axes_is_refused(direction):
    # 1 used to raise IndexError, -1 to return the last row silently
    p = params_1d()
    with pytest.raises(InputError, match=f"direction {direction} lies outside 0 ... 0"):
        linsym_operator(p, matriciant(p, 0.0, 0.0), [0.5], direction=direction)


def test_linsym_closed_form_is_one_dimensional():
    p = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.zeros((2, 2)), diffusion=0.5)
    with pytest.raises(InputError, match="one-dimensional display"):
        linsym_closed_form(p, 1.0, 0.0, 1.0, 1.0, 0.5, 0.2)


# ------------------------------------------------------------------- routes

def routes_on(params, packet, op, t, override=None):
    routes, _ = symmetry_routes(op, packet, params, 0.0, t, moment_override=override)
    xs = np.linspace(-3.5, 4.0, 301)
    return (*(route.eval(params, xs) for route in routes), xs)


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
        field.first_moment(normalized=True)
    op = InitialOperator(const=0.4, lin=[0.9], grad=[-0.5])
    with pytest.raises(DegenerateMomentError):
        build_shifts(op, field, p, 0.0, moment_override=[0.1])


def test_image_moment_trajectories():
    p = params_1d()
    pk = unit_field()
    op = InitialOperator(const=0.4, lin=[0.9], grad=[-0.5])
    shifts = build_shifts(op, pk, p, 0.0)
    # image moment follows the coupled rate, the drift shift dd @ lam the
    # linear rate
    rate = p.moment_rate[0, 0]
    lam_rate = -p.effective_drift[0, 0]
    t = 0.7
    x0 = shifts.image_moment.x0[0]
    assert shifts.image_moment.at(t)[0] == pytest.approx(x0 * np.exp(rate * t),
                                                         rel=1e-12)
    assert (matriciant(p, t, 0.0).dd @ shifts.lam)[0] == pytest.approx(
        shifts.lam[0] * np.exp(lam_rate * t), rel=1e-12)
    assert (matriciant(p, 0.0, 0.0).dd @ shifts.lam)[0] == pytest.approx(shifts.lam[0])


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


def non_normal_2d():
    lam = np.array([[0.7, 0.2], [-0.15, 0.5]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.4, 0.1], [0.0, -0.3]]),
                    diffusion=0.35, coupling=0.8)
    pk = GaussianMixture([GaussianPacket(mean=[0.5, -0.3], num=np.eye(2),
                                         den=np.array([[1.0, 0.2], [0.2, 1.4]]))])
    return p, pk


def test_routes_agree_in_two_dimensions():
    p, pk = non_normal_2d()
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


@pytest.mark.parametrize("case", ["reference-1d", "non-normal-2d"])
def test_symmetry_routes_has_the_bits_of_the_direct_route_calls(case):
    if case == "reference-1d":
        p, packet = reference_case()
        pk = GaussianMixture([packet])
        op = linsym_operator(p, matriciant(p, 0.0, 0.0), packet.mean)
        override, t, pts = [0.2], 1.0, np.linspace(-3.0, 4.0, 301)
    else:
        p, pk = non_normal_2d()
        op = InitialOperator(const=0.6, lin=[0.4, -0.3], grad=[0.2, 0.5])
        override, t = None, 0.7
        pts = np.random.default_rng(1).uniform(-2.5, 2.5, size=(200, 2))
    plan = plan_for(p, 0.0, t, pk)
    u = evolve_analytic(pk, plan)
    shifts = build_shifts(op, pk, p, 0.0, moment_override=override)
    direct = (symmetry_apply_shift(op, u, shifts, t),
              symmetry_apply_conclusion(op, u, shifts, t),
              symmetry_apply_evolution(op, u, plan, moment_override=override))
    routes, got = symmetry_routes(op, pk, p, 0.0, t, moment_override=override)
    assert (got.alpha, got.normalized) == (shifts.alpha, shifts.normalized)
    np.testing.assert_array_equal(got.lam, shifts.lam)
    for route, expected in zip(routes, direct, strict=True):
        assert np.array_equal(route.eval(p, pts), expected.eval(p, pts))


@pytest.mark.parametrize("override", [None, [0.2, -0.1]])
def test_conjugation_route_reuses_the_plans_matriciant(monkeypatch, override):
    # the image plan is the plan's matriciant re-anchored on the image's
    # trajectory: no matriciant is built, and the route has the bits of
    # a fresh plan_for for the image
    p, pk = non_normal_2d()
    plan = plan_for(p, 0.0, 0.7, pk)
    u = evolve_analytic(pk, plan)
    op = InitialOperator(const=0.6, lin=[0.4, -0.3], grad=[0.2, 0.5])
    calls = []
    real = kernels.matriciant

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "matriciant", counting)
    route = symmetry_apply_evolution(op, u, plan, moment_override=override)
    monkeypatch.undo()
    assert calls == []
    app = apply_initial_op(op, inverse_evolve(u, plan), p)
    fresh = plan_for(p, 0.0, 0.7, app.field, moment_override=override)
    expected = evolve_analytic(app.field, fresh, require_normalized=app.normalized)
    for name in ("weight", "mean", "cov", "amp0", "dipole"):
        np.testing.assert_array_equal(getattr(route, name), getattr(expected, name))


def same_bits(a: GaussianMixture, b: GaussianMixture) -> bool:
    return all(x is y is None or (x is not None and y is not None
                                  and x.shape == y.shape and x.tobytes() == y.tobytes())
               for x, y in ((getattr(a, f), getattr(b, f))
                            for f in ("weight", "mean", "cov", "amp0", "dipole")))


def route_case(case: str, t: float):
    """(params, initial mixture, operator, moment override, u at t)."""
    if case == "reference-1d":
        p, packet = reference_case()
        pk = GaussianMixture([packet])
        op, override = linsym_operator(p, matriciant(p, 0.0, 0.0), packet.mean), [0.2]
    else:
        p, pk = non_normal_2d()
        op, override = InitialOperator(const=0.6, lin=[0.4, -0.3], grad=[0.2, 0.5]), None
    return p, pk, op, override, evolve_analytic(pk, plan_for(p, 0.0, t, pk))


def counting(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_the_shift_and_conclusion_routes_share_one_frame_per_time(monkeypatch):
    # the matriciant from s to t, both trajectories at t and the evolved
    # operator are built once per shifts object and time, by whichever
    # route asks first; another time replaces them, so coming back to a
    # time builds them again
    p, pk, op, override, _ = route_case("non-normal-2d", 0.7)
    shifts = build_shifts(op, pk, p, 0.0, moment_override=override)
    built = counting(monkeypatch, symmetry, "matriciant")
    moments = counting(monkeypatch, MomentTrajectory, "at")
    evolved = counting(monkeypatch, symmetry, "evolve_operator")
    for t in (0.7, 0.4, 0.7):
        u = evolve_analytic(pk, plan_for(p, 0.0, t, pk))
        moments.clear()
        evolved.clear()
        symmetry_apply_shift(op, u, shifts, t)
        symmetry_apply_conclusion(op, u, shifts, t)
        symmetry_apply_shift(op, u, shifts, t)
        assert len(moments) == 2  # X_base(t) and X_image(t), once each
        assert len(evolved) == 1  # A_t
    assert [args[1:] for args in built] == [(0.7, 0.0), (0.4, 0.0), (0.7, 0.0)]


@pytest.mark.parametrize("case", ["reference-1d", "non-normal-2d"])
@pytest.mark.parametrize("first", [symmetry_apply_shift, symmetry_apply_conclusion],
                         ids=["shift-first", "conclusion-first"])
def test_routes_sharing_a_frame_keep_the_bits_of_routes_on_fresh_shifts(case, first):
    t = 1.0 if case == "reference-1d" else 0.7
    p, pk, op, override, u = route_case(case, t)
    shared = build_shifts(op, pk, p, 0.0, moment_override=override)
    second = symmetry_apply_conclusion if first is symmetry_apply_shift else symmetry_apply_shift
    for route in (first, second, first):
        fresh = build_shifts(op, pk, p, 0.0, moment_override=override)
        assert same_bits(route(op, u, shared, t), route(op, u, fresh, t))


def test_a_frame_is_read_only_and_a_plan_that_seeds_it_stays_writable():
    p, pk, op, override, _ = route_case("non-normal-2d", 0.7)
    plan = plan_for(p, 0.0, 0.7, pk)
    built = build_shifts(op, pk, p, 0.0)._frame(op, 0.7)
    seeded = build_shifts(op, pk, p, 0.0)._frame(op, 0.7, plan.m, plan.x_end)

    def arrays(frame):
        a_t, x_base, anchor = frame
        return a_t.lin, a_t.grad, x_base, anchor

    for frame in (built, seeded):
        for a in arrays(frame):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    # the plan's blocks and end anchor are the same calls on the same
    # inputs as the frame's own: symmetry_routes keeps every bit
    assert built[0].const == seeded[0].const
    for a, b in zip(arrays(built), arrays(seeded)):
        assert a.tobytes() == b.tobytes()
    assert plan.m.dd.flags.writeable and plan.m.w.flags.writeable and plan.x_end.flags.writeable


@pytest.mark.parametrize("case", ["reference-1d", "non-normal-2d"])
def test_the_shift_and_conclusion_routes_refuse_another_operator(case):
    # both routes used to take any operator of the field's dimension and
    # mix the shifts' image mass and moment with its coefficients; in 2D
    # comparing two operators raised numpy's ValueError
    t = 1.0 if case == "reference-1d" else 0.7
    p, pk, op, override, u = route_case(case, t)
    shifts = build_shifts(op, pk, p, 0.0, moment_override=override)
    other = InitialOperator(1.0, np.full(p.dim, 0.3), np.full(p.dim, 0.2))
    twin = InitialOperator(op.const, op.lin.copy(), op.grad.copy())
    assert twin == op and other != op
    for route in (symmetry_apply_shift, symmetry_apply_conclusion):
        with pytest.raises(InputError, match="operator differs"):
            route(other, u, shifts, t)
        # an equal operator built separately is the same operator
        assert same_bits(route(twin, u, shifts, t), route(op, u, shifts, t))


@pytest.mark.parametrize("case", ["reference-1d", "non-normal-2d"])
def test_symmetry_routes_builds_one_matriciant(monkeypatch, case):
    # the plan's, which seeds the shifts' frame: the shift and conclusion
    # routes used to build one each; three trajectory points, the plan's
    # end, the image's and the conjugation route's re-anchor
    t = 1.0 if case == "reference-1d" else 0.7
    p, pk, op, override, _ = route_case(case, t)
    built = counting(monkeypatch, kernels, "matriciant")
    built += counting(monkeypatch, symmetry, "matriciant")
    moments = counting(monkeypatch, MomentTrajectory, "at")
    symmetry_routes(op, pk, p, 0.0, t, moment_override=override)
    assert len(built) == 1 and len(moments) == 3


def test_symmetry_routes_back_in_time_refuse_what_is_not_a_density():
    # drift 1, feedback -0.5, diffusion 0.2: run back from 1 to 0.5 the
    # packet of precision 2 would have covariance -0.359; the routes used
    # to return mixtures whose eval gave NaN
    p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]], coupling_mean=[[-0.5]],
                    diffusion=0.2, coupling=1.0)
    pk = GaussianMixture([GaussianPacket(mean=[0.5], num=[[2.0]], den=[[1.0]])])
    with pytest.raises(InvalidCovarianceError, match=r"backward evolution over \|t - s\| = 0\.5"):
        symmetry_routes(IDENTITY, pk, p, 1.0, 0.5)


# ----------------------------------------------------------------- residuals

def test_transformed_field_solves_equation_at_second_order():
    # the verify check's pipeline: the linsym image of the packet, its
    # trajectory seeded at the image moment 0.2, sampled on [-2.5, 3] from
    # t = 0.4 over 7 steps; dx 1e-2 and dt 1e-3, then both halved
    p = params_1d()
    pk = unit_field().components[0]
    coarse = checks._symmetry_residual(p, pk, 551, 1e-3)
    fine = checks._symmetry_residual(p, pk, 1101, 5e-4)
    assert coarse[1] / fine[1] == pytest.approx(4.0, abs=1.0)


def zero_field(t, pts):
    return np.zeros(len(pts))


def test_residual_zero_field():
    p = params_1d()
    worst, rms = residual_field(p, zero_field, 0.0, 1e-3, 5, [-1.0], [1.0], [33],
                                p.moment_trajectory([0.0], 0.0))
    assert worst == 0.0 and rms == 0.0


def test_residual_needs_stencil_margin():
    # three samples in time and three nodes per space axis at least
    p = params_1d()
    for steps, nodes in ((2, [33]), (5, [2])):
        with pytest.raises(InputError, match="at least 3 nodes"):
            residual_field(p, zero_field, 0.0, 1e-3, steps, [-1.0], [1.0], nodes,
                           p.moment_trajectory([0.0], 0.0))
