import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpknl import (GaussianMixture, GaussianPacket,
                   IllPosedInverseError, InputError, InvalidCovarianceError,
                   KernelValidityError, ModelParams,
                   NormalizationError, SampledDensity, TruncationError,
                   evolution, evolve_analytic, evolve_packet,
                   evolve_quadrature, inverse_evolve, kernel_matrix, kernels, model,
                   plan_for)
from fpknl.checks import reference_case
from fpknl.kernels import LOG_TINY, exp_product
from fpknl.packets import propagate_packet
from fpknl.symmetry import (build_shifts, linsym_operator, symmetry_apply_conclusion,
                            symmetry_apply_evolution, symmetry_apply_shift, symmetry_routes)
from fpknl.variations import Matriciant, matriciant


def params_1d(lam=1.0, eps=0.1, feedback=-0.5, kappa=1.0):
    return ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                       coupling_mean=[[feedback]], diffusion=eps, coupling=kappa)


def unit_packet(mean=0.5, num=1.0, den=1.0):
    return GaussianPacket(mean=[mean], num=[[num]], den=[[den]])


def unit_field(mean=0.5, num=1.0, den=1.0):
    return GaussianMixture([unit_packet(mean, num, den)])


def sampled_from(packet, params, x_min=-8.0, x_max=8.0, nodes=801):
    return SampledDensity.from_callable(lambda p: packet.eval(params, p),
                                        [x_min], [x_max], [nodes])


# ------------------------------------------------------------------ analytic

def test_single_packet_reproduces_direct_evolution():
    p = params_1d()
    pk = unit_packet()
    plan = plan_for(p, 0.0, 1.0, GaussianMixture([pk]))
    out = evolve_analytic(GaussianMixture([pk]), plan)
    direct = evolve_packet(pk, p, 1.0, 0.0)
    np.testing.assert_allclose(out.mean, direct.mean, atol=1e-15)
    np.testing.assert_allclose(out.cov, direct.cov, atol=1e-15)


def test_identity_at_equal_times():
    p = params_1d()
    pk = unit_packet()
    plan = plan_for(p, 0.5, 0.5, GaussianMixture([pk]))
    out = evolve_analytic(GaussianMixture([pk]), plan).components[0]
    np.testing.assert_allclose(out.mean, pk.mean)
    np.testing.assert_allclose(out.den, pk.den)


def test_symmetric_mixture_mean_stays_zero():
    p = params_1d(lam=1.0, feedback=-0.4)
    mix = GaussianMixture([
        GaussianPacket(mean=[-0.8], num=[[1.0]], den=[[1.0]], weight=0.5),
        GaussianPacket(mean=[0.8], num=[[1.0]], den=[[1.0]], weight=0.5),
    ])
    for t in (0.3, 0.9, 1.7):
        plan = plan_for(p, 0.0, t, mix)
        out = evolve_analytic(mix, plan)
        assert out.first_moment()[0] == pytest.approx(0.0, abs=1e-14)


def test_semigroup_property_pointwise():
    p = params_1d()
    mix = GaussianMixture([
        GaussianPacket(mean=[0.1], num=[[1.2]], den=[[0.8]], weight=0.6),
        GaussianPacket(mean=[0.9], num=[[0.9]], den=[[1.1]], weight=0.4),
    ])
    s, r, t = 0.0, 0.4, 1.0
    direct = evolve_analytic(mix, plan_for(p, s, t, mix))
    half = evolve_analytic(mix, plan_for(p, s, r, mix))
    stepped = evolve_analytic(half, plan_for(p, r, t, half))
    xs = np.linspace(-4, 4, 201).reshape(-1, 1)
    np.testing.assert_allclose(stepped.eval(p, xs), direct.eval(p, xs),
                               atol=1e-10)


def test_mass_preserved_exactly_analytic():
    p = params_1d()
    mix = GaussianMixture([
        GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]], weight=0.3),
        GaussianPacket(mean=[0.5], num=[[1.0]], den=[[2.0]], weight=0.7),
    ])
    out = evolve_analytic(mix, plan_for(p, 0.0, 1.3, mix))
    assert out.total_mass() == mix.total_mass()


def test_normalization_gate():
    p = params_1d()
    heavy = GaussianMixture([GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]], weight=2.0)])
    plan = plan_for(p, 0.0, 1.0, heavy)
    with pytest.raises(NormalizationError):
        evolve_analytic(heavy, plan)
    raw = evolve_analytic(heavy, plan, require_normalized=False)
    assert raw.total_mass() == pytest.approx(2.0)


# ---------------------------------------------------------------- quadrature

def test_quadrature_matches_analytic():
    p = params_1d()
    pk = unit_packet()
    gamma = sampled_from(pk, p, -6.0, 6.0, 1201)
    plan = plan_for(p, 0.0, 1.0, gamma)
    out = evolve_quadrature(gamma, plan)
    exact = evolve_analytic(GaussianMixture([pk]), plan).eval(p, out.points())
    assert np.max(np.abs(out.values.ravel() - exact)) < 1e-6


def test_quadrature_mass_and_moment():
    p = params_1d()
    pk = unit_packet()
    gamma = sampled_from(pk, p, -6.0, 6.0, 1201)
    for t in (0.25, 1.0):
        plan = plan_for(p, 0.0, t, gamma)
        out = evolve_quadrature(gamma, plan)
        assert out.total_mass() == pytest.approx(1.0, abs=1e-6)
        assert out.first_moment()[0] == pytest.approx(
            plan.x_end[0], abs=1e-6)


def test_quadrature_uncoupled_matches_linear_propagation():
    p = params_1d(lam=0.6, eps=0.4, feedback=0.0, kappa=0.0)
    pk = unit_packet(mean=0.8)
    gamma = sampled_from(pk, p, -9.0, 9.0, 1201)
    plan = plan_for(p, 0.0, 0.7, gamma)
    out = evolve_quadrature(gamma, plan)
    exact = evolve_packet(pk, p, 0.7, 0.0).eval(p, out.points())
    assert np.max(np.abs(out.values.ravel() - exact)) < 1e-6


# drift -3 grows e^(3 tau) forward; the mean feedback 3.5 keeps the moment
# trajectory stable (rate -0.5), so over t - s = 250 the matriciant is
# what overflows
MATRICIANT_OVERFLOW = r"matriciant is not finite at \|t - s\| = 250.*overflows"


def growing_params():
    return params_1d(lam=-3.0, feedback=3.5)


def test_quadrature_long_horizon_names_the_overflow():
    # the error must name the overflowing matriciant rather than blame the
    # (finite) input samples
    p = growing_params()
    gamma = sampled_from(unit_packet(), p, -3.0, 3.0, 301)
    with pytest.raises(KernelValidityError, match=MATRICIANT_OVERFLOW):
        evolve_quadrature(gamma, plan_for(p, 0.0, 250.0, gamma))


def test_analytic_inverse_shares_the_backward_kernel_guard():
    # an overflowing horizon names the matriciant before any inverse runs
    # (the analytic inverse used to reach an SVD and raise numpy's
    # LinAlgError): forward on a growing drift, and backward from 250 to 0
    # on drift 3, whose moment rate 0.5 the feedback -3.5 keeps shrinking
    u = unit_field()
    backward = params_1d(lam=3.0, feedback=-3.5)
    for p, s, t in ((growing_params(), 0.0, 250.0), (backward, 250.0, 0.0)):
        with pytest.raises(KernelValidityError, match=MATRICIANT_OVERFLOW):
            inverse_evolve(u, plan_for(p, s, t, u))


def test_analytic_forward_names_an_overflowing_matriciant():
    # the forward pathways used to return num = den = inf and fail later in
    # eval as a focal point
    p = growing_params()
    pk = unit_packet(num=4.0)
    mix = GaussianMixture([pk])
    with pytest.raises(KernelValidityError, match=MATRICIANT_OVERFLOW):
        evolve_analytic(mix, plan_for(p, 0.0, 250.0, mix))
    with pytest.raises(KernelValidityError, match=MATRICIANT_OVERFLOW):
        evolve_packet(pk, p, 250.0, 0.0)


def backward_case(dim):
    """Drift 1, feedback -0.5, diffusion 0.2 and a packet of precision 2:
    run back from s = 1 to t = 0.5, its covariance would be -0.359 I."""
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=-0.5 * np.eye(dim), diffusion=0.2, coupling=1.0)
    return p, GaussianPacket(mean=np.full(dim, 0.5), num=2.0 * np.eye(dim), den=np.eye(dim))


BACKWARD_NO_DENSITY = re.escape("backward evolution over |t - s| = 0.5 "
                                "(inverse_evolve recovers earlier data): covariance")


@pytest.mark.parametrize("dim", [1, 2])
def test_a_backward_move_that_leaves_no_density_is_refused(dim):
    # evolve_analytic and evolve_packet used to return the covariance
    # -0.359 with no error; eval then gave NaN in 1D, with only a
    # RuntimeWarning, and numpy's LinAlgError in 2D
    p, pk = backward_case(dim)
    mix = GaussianMixture([pk])
    with pytest.raises(InvalidCovarianceError, match=BACKWARD_NO_DENSITY):
        evolve_analytic(mix, plan_for(p, 1.0, 0.5, mix))
    with pytest.raises(InvalidCovarianceError, match=BACKWARD_NO_DENSITY):
        evolve_packet(pk, p, 0.5, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_backward_move_that_keeps_a_density_returns_it(dim):
    # the check refuses only what is not a density: the same packet moved
    # forward from 0.5 to 1 and back again is the packet, to rounding
    p, pk = backward_case(dim)
    mix = GaussianMixture([pk])
    u = evolve_analytic(mix, plan_for(p, 0.5, 1.0, mix))
    back = evolve_analytic(u, plan_for(p, 1.0, 0.5, u))
    np.testing.assert_allclose(back.cov, mix.cov, rtol=1e-12)
    np.testing.assert_allclose(back.mean, mix.mean, rtol=1e-12)
    again = evolve_packet(u.components[0], p, 0.5, 1.0)
    np.testing.assert_allclose(again.cov, mix.cov, rtol=1e-12)
    np.testing.assert_allclose(again.mean, mix.mean, rtol=1e-12)


@pytest.mark.parametrize("tau", [250.0, 400.0])
def test_stable_drift_reaches_its_stationary_law_at_long_horizons(tau):
    # drift 3 leaves the Ornstein-Uhlenbeck law of precision 3 (scaled
    # covariance 1/3); the unnormalized block e^(3 tau) used to overflow
    # the matriciant from about t - s = 236 on, and every pathway raised
    p = params_1d(lam=3.0)
    pk = unit_packet(num=4.0)
    mix = GaussianMixture([pk])
    plan = plan_for(p, 0.0, tau, mix)
    fields = (evolve_packet(pk, p, tau, 0.0), evolve_analytic(mix, plan))
    for u in fields:
        assert abs(1.0 / u.cov[0, 0, 0] - 3.0) <= 1e-8
    gamma = sampled_from(pk, p, -3.0, 3.0, 301)
    quad = evolve_quadrature(gamma, plan_for(p, 0.0, tau, gamma))
    exact = fields[1].eval(p, quad.points())
    assert np.max(np.abs(quad.values.ravel() - exact)) <= 1e-8
    offset = quad.coordinate(0) - quad.first_moment(normalized=True)[0]
    var = np.sum(quad.weights() * quad.values * offset ** 2) / quad.total_mass()
    assert abs(p.diffusion / var - 3.0) <= 1e-8


@pytest.mark.parametrize("tau", [1e308, 1.7e308])
def test_a_horizon_near_the_largest_double_keeps_the_stationary_law(tau):
    # tau times the generator's 1-norm overflowed, frexp(inf) gave no
    # doublings and the plan came back with dd = w = nan: evolve_analytic
    # returned a nan mean and covariance and eval nan, with no error
    p, pk = reference_case()
    mix = GaussianMixture([pk])
    # the blocks of 1e307, the stationary law, to one ulp
    near, far = plan_for(p, 0.0, 1e307, mix), plan_for(p, 0.0, tau, mix)
    ulp = np.finfo(float).eps
    np.testing.assert_allclose(far.m.dd, near.m.dd, rtol=ulp, atol=0.0)
    np.testing.assert_allclose(far.m.w, near.m.w, rtol=ulp, atol=0.0)
    u = evolve_analytic(mix, far)
    assert np.isfinite(u.mean).all() and np.isfinite(u.cov).all()
    np.testing.assert_allclose(u.cov, evolve_analytic(mix, near).cov, rtol=ulp, atol=0.0)
    assert np.isfinite(u.eval(p, np.array([0.0, 0.5]))).all()


def test_plan_names_an_overflowing_moment_trajectory():
    # moment rate +9 overflows the end anchor at t = 100 while the matriciant
    # (drift 1) stays finite; quadrature used to blame the input samples and
    # the analytic pathway to return a field of mean inf that evaluates to 0
    p = params_1d(lam=1.0, eps=0.5, feedback=-10.0)
    pk = unit_packet()
    overflow = r"\|t - s\| = 100.*moment trajectory overflows"
    for initial in (GaussianMixture([pk]), sampled_from(pk, p, -8.0, 8.0, 401)):
        with pytest.raises(KernelValidityError, match=overflow):
            plan_for(p, 0.0, 100.0, initial)


def test_quadrature_identity_at_equal_times():
    p = params_1d()
    gamma = sampled_from(unit_packet(), p, -6.0, 6.0, 601)
    plan = plan_for(p, 0.0, 0.0, gamma)
    out = evolve_quadrature(gamma, plan)
    np.testing.assert_array_equal(out.values, gamma.values)


def test_truncation_guard():
    p = params_1d()
    gamma = sampled_from(unit_packet(), p, -1.0, 1.5, 301)  # fat edges
    with pytest.raises(TruncationError):
        evolve_quadrature(gamma, plan_for(p, 0.0, 0.5, gamma))


def test_quadrature_checks_keep_their_order_and_messages(monkeypatch):
    # one weighted product serves the mass test, and the edge test still
    # comes first; neither reads total_mass
    p = params_1d()
    fat = sampled_from(unit_packet(), p, -1.0, 1.5, 301)
    plan = plan_for(p, 0.0, 0.5, fat)
    monkeypatch.setattr(SampledDensity, "total_mass", None)
    with pytest.raises(TruncationError, match=r"max edge value 2\.550e-02"):
        evolve_quadrature(fat.scaled(3.0), plan)  # off in mass and at the edges
    heavy = sampled_from(unit_packet(), p).scaled(1.5)
    mass = float(np.sum(heavy.weights() * heavy.values))
    with pytest.raises(NormalizationError, match=rf"input mass {mass:.12g} is not 1 within "
                                                 r"1e-06"):
        evolve_quadrature(heavy, plan)
    gamma = sampled_from(unit_packet(), p)
    same = evolve_quadrature(gamma, plan_for(p, 0.5, 0.5, gamma))
    assert same is not gamma and same.values is not gamma.values
    np.testing.assert_array_equal(same.values, gamma.values)


def test_a_sampled_inverse_inverts_dd_once(monkeypatch):
    # the band reads the reversed context twice, for its centres and for
    # input_width; the plan keeps it, as it keeps its exponent matrix
    gamma, plan = _grid_1d(401)
    u = evolve_quadrature(gamma, plan)
    expected = inverse_evolve(u, plan)
    built = []
    monkeypatch.setattr(kernels, "Matriciant",
                        lambda **blocks: built.append(blocks) or Matriciant(**blocks))
    _, fresh = _grid_1d(401)  # the same move, in a context of its own
    back = inverse_evolve(u, fresh)
    assert len(built) == 1
    assert fresh.reversed() is fresh.reversed() and len(built) == 1
    np.testing.assert_array_equal(back.values, expected.values)


# ------------------------------------------------------------------- inverse

def test_analytic_roundtrip_exact_parameters():
    p = params_1d()
    mix = GaussianMixture([
        GaussianPacket(mean=[0.2], num=[[1.4]], den=[[0.9]], weight=0.45),
        GaussianPacket(mean=[0.7], num=[[1.0]], den=[[1.3]], weight=0.55),
    ])
    plan = plan_for(p, 0.0, 1.0, mix)
    back = inverse_evolve(evolve_analytic(mix, plan), plan)
    for orig, rec in zip(mix.components, back.components):
        np.testing.assert_allclose(rec.mean, orig.mean, atol=1e-12)
        np.testing.assert_allclose(rec.num, orig.num, atol=1e-12)
        np.testing.assert_allclose(rec.den, orig.den, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=-1.5, max_value=1.5),
       feedback=st.floats(min_value=-1.0, max_value=1.0),
       mean=st.floats(min_value=-1.0, max_value=1.0),
       num=st.floats(min_value=0.5, max_value=2.0),
       den=st.floats(min_value=0.5, max_value=2.0),
       t=st.floats(min_value=0.05, max_value=1.5))
def test_analytic_roundtrip_property(lam, feedback, mean, num, den, t):
    p = ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                    coupling_mean=[[feedback]], diffusion=0.3, coupling=1.0)
    mix = unit_field(mean, num, den)
    plan = plan_for(p, 0.0, t, mix)
    rec = inverse_evolve(evolve_analytic(mix, plan), plan)
    scale = max(1.0, abs(num), abs(den))
    assert abs(rec.mean[0, 0] - mean) < 1e-10 * scale
    assert abs(rec.cov[0, 0, 0] - mix.cov[0, 0, 0]) < 1e-10 * scale


def _long_roundtrip(drift, tau):
    # stable drifts (> 0) take the first parameter set, unstable the second
    feedback, eps, mean, num = (-0.5, 0.1, 0.5, 4.0) if drift > 0 else (-0.3, 0.2, 0.3, 2.0)
    p = params_1d(lam=drift, eps=eps, feedback=feedback)
    mix = unit_field(mean=mean, num=num)
    plan = plan_for(p, 0.0, tau, mix)
    return mix, inverse_evolve(evolve_analytic(mix, plan), plan)


@pytest.mark.parametrize("drift, tau", [(-1.0, 20.0), (-3.0, 10.0), (3.0, 2.0)])
def test_analytic_inverse_recovers_long_horizons(drift, tau):
    # the inverse is the block inverse of the forward blocks; a second
    # exponential cross-checked against them used to raise
    # ConfigurationError ("not mutual inverses") on the unstable drifts.
    # Drift 3 over tau 2 has a rounding bound of 9.6e-11, inside the limit
    mix, rec = _long_roundtrip(drift, tau)
    for f in ("mean", "cov"):
        np.testing.assert_allclose(getattr(rec, f), getattr(mix, f), rtol=0, atol=1e-15)


def test_analytic_roundtrip_keeps_the_covariance_where_dd_is_far_from_identity():
    # the backward spread is built from the forward one; recomputed from the
    # inverted blocks it lost 2.2e-11 of the covariance here
    mix, rec = _long_roundtrip(2.0, 1.5)
    np.testing.assert_allclose(rec.cov, mix.cov, rtol=0, atol=1e-13)


@pytest.mark.parametrize("tau", [5.0, 10.0])
def test_analytic_inverse_rejects_cancelled_precision(tau):
    # backward over a stable drift den is a difference of terms about
    # e^(2 drift tau) times its size; at tau 5 the inverse used to return
    # den off by 1.95e-3 without an error, at tau 10 to blame a focal point
    with pytest.raises(IllPosedInverseError, match=rf"\|t - s\| = {tau:g}.*precise only"):
        _long_roundtrip(3.0, tau)


@pytest.mark.parametrize("tau", [120.0, 236.0, 250.0, 400.0])
def test_analytic_inverse_names_a_horizon_the_flow_forgot(tau):
    # drift 3 shrinks dd to e^(-3 tau): its inverse overflowed the backward
    # sum to a covariance of nan, which passed every check (120, 236), and
    # where dd underflows to 0 numpy's LinAlgError escaped (250, 400)
    p = params_1d(lam=3.0)
    u = unit_field(num=4.0)
    plan = plan_for(p, 0.0, tau, u)
    fwd = evolve_analytic(u, plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllPosedInverseError,
                           match=rf"analytic inverse over \|t - s\| = {tau:g}:"):
            inverse_evolve(fwd, plan)


def test_analytic_inverse_rejects_a_field_no_gaussian_evolves_into():
    # narrower than the spread the flow adds over t - s = 1: the recovered
    # covariance is negative
    p = params_1d()
    u = unit_field(num=100.0)
    with pytest.raises(InvalidCovarianceError, match="recovered covariance.*not positive definite"):
        inverse_evolve(u, plan_for(p, 0.0, 1.0, u))


def test_quadrature_roundtrip():
    p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]],
                    coupling_mean=[[-0.5]], diffusion=0.5, coupling=1.0)
    pk = unit_packet(mean=0.3)
    gamma = sampled_from(pk, p, -8.0, 8.0, 801)
    plan = plan_for(p, 0.0, 0.1, gamma)
    u = evolve_quadrature(gamma, plan)
    back = inverse_evolve(u, plan)
    assert np.max(np.abs(back.values - gamma.values)) < 1e-4


def test_inverse_identity_at_equal_times():
    p = params_1d()
    gamma = sampled_from(unit_packet(), p, -6.0, 6.0, 401)
    plan = plan_for(p, 0.0, 0.0, gamma)
    out = inverse_evolve(gamma, plan)
    np.testing.assert_array_equal(out.values, gamma.values)


def test_inverse_rejects_rough_input():
    p = params_1d(eps=0.5)
    pk = unit_packet(mean=0.3)
    gamma = sampled_from(pk, p, -8.0, 8.0, 801)
    plan = plan_for(p, 0.0, 0.1, gamma)
    u = evolve_quadrature(gamma, plan)
    rng = np.random.default_rng(0)
    u.values = u.values + 1e-3 * rng.standard_normal(u.values.shape) \
        * np.exp(-u.coordinate(0) ** 2)
    with pytest.raises(IllPosedInverseError) as info:
        inverse_evolve(u, plan)
    sv = np.linalg.svd(_dense_quadrature_matrix(u, plan), compute_uv=False)
    cutoff = evolution.INVERSE_RCOND * sv[0]
    msg = str(info.value)
    assert f"rank {int(np.sum(sv > cutoff))} of 801" in msg
    reported = float(re.search(r"sigma cutoff (\S+)", msg).group(1))
    assert reported == pytest.approx(cutoff, rel=1e-3)
    assert "forward residual" in msg and "factorization" in msg


def _dense_quadrature_matrix(gamma, plan):
    return evolution._dense(evolution.forward_quadrature_matrix(gamma, plan),
                            gamma.values.size)


def _grid_2d(nodes):
    lam = np.array([[0.6, 0.2], [-0.1, 0.4]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.3, 0.0], [0.1, -0.2]]),
                    diffusion=0.4, coupling=1.0)
    pk = GaussianPacket(mean=[0.3, -0.2], num=np.eye(2), den=np.eye(2))
    gamma = SampledDensity.from_callable(lambda q: pk.eval(p, q),
                                         [-7.0, -7.0], [7.0, 7.0],
                                         [nodes, nodes])
    return gamma, plan_for(p, 0.0, 0.5, gamma)


def _grid_1d(nodes, eps=0.5, tau=0.1):
    p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]],
                    coupling_mean=[[-0.5]], diffusion=eps, coupling=1.0)
    gamma = sampled_from(unit_packet(mean=0.3), p, -8.0, 8.0, nodes)
    return gamma, plan_for(p, 0.0, tau, gamma)


# grid and the factorization its solve must use; the "narrow" cases have a
# kernel narrow enough that the lstsq rank exceeds the first sketch, so it
# grows (at N = 801 too: 256 columns stay within the N/3 cap); the "mid"
# case has its rank at the stop level between 128 and 192, and the 2D case
# is near full rank
SOLVE_CASES = {
    "1d-401": (lambda: _grid_1d(401), "randomized sketch k=128"),
    "1d-1201": (lambda: _grid_1d(1201), "randomized sketch k=128"),
    "1d-801-mid": (lambda: _grid_1d(801, eps=0.4, tau=0.08), "randomized sketch k=192"),
    "1d-narrow": (lambda: _grid_1d(1201, eps=0.15), "randomized sketch k=256"),
    "1d-801-narrow": (lambda: _grid_1d(801, eps=0.15), "randomized sketch k=256"),
    "2d-31x31": (lambda: _grid_2d(31), "lstsq"),
}


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_sampled_solve_matches_lstsq(case, monkeypatch):
    grid, how = SOLVE_CASES[case]
    gamma, plan = grid()
    u = evolve_quadrature(gamma, plan)
    blocks = evolution.forward_quadrature_matrix(u, plan)
    rhs = u.values.ravel()
    a = evolution._dense(blocks, rhs.size)
    rcond = evolution.INVERSE_RCOND
    ref, _, ref_rank, _ = np.linalg.lstsq(a, rhs, rcond=rcond)
    sketches = []
    real_sketch = evolution._sketch

    def counting(n, width):
        sketches.append(width)
        return real_sketch(n, width)

    monkeypatch.setattr(evolution, "_sketch", counting)
    sol, rank, _, used = evolution._sketch_solve(blocks, rhs, rcond)
    monkeypatch.undo()
    assert used == how
    assert rank == ref_rank
    start, step = evolution.SKETCH_START, evolution.SKETCH_STEP
    if how == "lstsq":
        # a near-full-rank system stops at the first sketch whose decay
        # cannot reach the stop level within the cap
        assert len(sketches) <= 1
    else:
        # each growth step refactors the whole sketch, one width wider
        k = int(how.rsplit("=", 1)[1])
        assert sketches == list(range(start, k + 1, step))
    if case.endswith("narrow"):
        assert ref_rank > start
    if case.endswith("mid"):
        s = np.linalg.svd(a, compute_uv=False)
        stop_rank = int((s > evolution.SKETCH_STOP * rcond * s[0]).sum())
        assert start < stop_rank <= start + step
    if case.startswith("2d"):
        assert ref_rank > rhs.size // 3
    assert np.max(np.abs(sol - ref)) < 1e-6
    back = inverse_evolve(u, plan)
    np.testing.assert_array_equal(back.values.ravel(), sol)
    # the band leaves out only entries below e^-BAND_EXPONENT of the peak:
    # the same solve over the whole untruncated kernel lands within 1e-8
    pts = u.points()
    whole = kernel_matrix(plan, pts, pts) * u.weights().ravel()
    untruncated, *_ = evolution._sketch_solve(
        [(slice(0, rhs.size), slice(0, rhs.size), whole)], rhs, rcond)
    assert np.max(np.abs(sol - untruncated)) < 1e-8


def test_each_sketch_width_takes_one_householder_qr(monkeypatch):
    # the sketch A Omega_k is factored once per width, and A^T Q once, for
    # its triangular factor, by the same _householder
    gamma, plan = SOLVE_CASES["1d-801-mid"][0]()
    u = evolve_quadrature(gamma, plan)
    blocks = evolution.forward_quadrature_matrix(u, plan)
    rhs = u.values.ravel()
    widths, factored = [], []
    real_sketch, real_householder = evolution._sketch, evolution._householder

    def sketch(n, width):
        widths.append(width)
        return real_sketch(n, width)

    def householder(y):
        factored.append(y.copy())
        return real_householder(y)

    monkeypatch.setattr(evolution, "_sketch", sketch)
    monkeypatch.setattr(evolution, "_householder", householder)
    *_, how = evolution._sketch_solve(blocks, rhs, evolution.INVERSE_RCOND)
    monkeypatch.undo()
    assert how == "randomized sketch k=192" and widths == [128, 192]
    assert len(factored) == len(widths) + 1
    for width, y in zip(widths, factored):
        sketched = evolution._band_product(blocks, real_sketch(rhs.size, width))
        np.testing.assert_array_equal(y, sketched)
    assert factored[-1].shape == (rhs.size, widths[-1])


def test_a_grown_sketch_refactors_to_an_orthonormal_basis_and_a_triangular_factor():
    # three widths of a sketch with a rapidly decaying spectrum, each one
    # factored whole: q is orthonormal, q r reproduces every column drawn
    # and r is upper triangular
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((300, 120)))
    a = (u * np.logspace(0, -14, 120)) @ u.T
    omega = rng.standard_normal((300, 80))
    for width in (40, 60, 80):
        y = a @ omega[:, :width]
        vt, tau, r = evolution._householder(y)
        q = evolution._basis(vt, tau)
        assert q.shape == (300, width) and r.shape == (width, width)
        assert np.max(np.abs(q.T @ q - np.eye(width))) < 1e-13
        assert np.max(np.abs(q @ r - y)) < 1e-13 * np.max(np.abs(y))
        assert not np.tril(r, -1).any()


@pytest.mark.parametrize("rank", [120, 30, 0])
def test_householder_qr_is_orthonormal_and_reconstructs(rank):
    # the blocked QR's Q is orthonormal and Q R reproduces y to 1e-14, also
    # past the numerical rank (rank of 120 columns) and with an exactly
    # zero column (a reflector with tau 0, the diagonal of its T factor);
    # R is upper triangular
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((700, 120)))
    spectrum = np.logspace(0, -18, 120)
    spectrum[rank:] *= 1e-30
    y = (u * spectrum) @ rng.standard_normal((120, 120))
    if not rank:
        y[:, 7] = 0.0
    v, t, r = evolution._householder(y)
    if not rank:
        assert not t[7 % evolution.QR_BLOCK, 7]
    q = evolution._basis(v, t)
    assert np.max(np.abs(q.T @ q - np.eye(120))) < 1e-14
    assert np.max(np.abs(q @ r - y)) < 1e-14 * np.max(np.abs(y))
    assert not np.tril(r, -1).any()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       k=st.sampled_from([1, 7, evolution.QR_BLOCK - 1, evolution.QR_BLOCK + 5, 100, 256]),
       kind=st.sampled_from(["full", "graded", "zero-columns", "rank-deficient"]))
def test_householder_qr_holds_for_any_width_and_rank(seed, k, kind):
    # one column, fewer than a block, widths that are no multiple of the
    # block and the widest sketch of the suite's grids; with zero columns
    # and rank-deficient draws: Q orthonormal, Q R = y, R upper triangular
    rng = np.random.default_rng(seed)
    n = k + int(rng.integers(0, 3 * k + 40))
    y = rng.standard_normal((n, k))
    if kind == "graded":
        y *= np.logspace(0, -rng.uniform(0, 20), k)
    elif kind == "zero-columns":
        y[:, rng.integers(0, k, size=1 + k // 4)] = 0.0
    elif kind == "rank-deficient":
        rank = int(rng.integers(0, k))
        y = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
    # factored in place from a column-major copy, as _sketch_solve lays it out
    work = y.copy(order="F")
    v, t, r = evolution._householder(work)
    assert np.shares_memory(v, work)
    q = evolution._basis(v, t)
    assert q.shape == (n, k) and r.shape == (k, k)
    assert np.max(np.abs(q.T @ q - np.eye(k))) < 1e-14
    assert np.max(np.abs(q @ r - y)) <= 1e-14 * np.max(np.abs(y))
    assert not np.tril(r, -1).any()


@pytest.mark.parametrize("case", ["1d-801-mid", "1d-narrow"])
def test_lapack_gets_the_sketch_and_bt_column_major(case, monkeypatch):
    # both N x k matrices reach LAPACK column-major and are factored in
    # place, with no copy of its own: once per sketch width, and B^T once
    gamma, plan = SOLVE_CASES[case][0]()
    u = evolve_quadrature(gamma, plan)
    blocks = evolution.forward_quadrature_matrix(u, plan)
    seen = []
    real_dgeqrt = evolution.lapack.dgeqrt

    def dgeqrt(nb, a, **kwargs):
        seen.append((nb, a.shape, a.flags.f_contiguous, kwargs.get("overwrite_a")))
        return real_dgeqrt(nb, a, **kwargs)

    monkeypatch.setattr(evolution.lapack, "dgeqrt", dgeqrt)
    *_, how = evolution._sketch_solve(blocks, u.values.ravel(), evolution.INVERSE_RCOND)
    monkeypatch.undo()
    k = int(how.rsplit("=", 1)[1])
    widths = list(range(evolution.SKETCH_START, k + 1, evolution.SKETCH_STEP))
    n = u.values.size
    assert seen == [(evolution.QR_BLOCK, (n, w), True, True) for w in widths + [k]]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 60),
       kind=st.sampled_from(["full", "graded", "rank-deficient", "zero-diagonal"]),
       level=st.sampled_from([evolution.SKETCH_STOP * evolution.INVERSE_RCOND, 1e-6, 1e-2]))
def test_a_diagonal_stop_is_a_singular_value_stop(seed, k, kind, level):
    # sigma_min <= min |r_ii| and max |r_ii| <= sigma_max for a triangular
    # r, so where the diagonal passes the stop test the SVD's does too; an
    # exact zero on the diagonal always stops
    rng = np.random.default_rng(seed)
    if kind == "rank-deficient":
        rank = int(rng.integers(0, k))
        r = np.linalg.qr(rng.standard_normal((2 * k, rank))
                         @ rng.standard_normal((rank, k)), mode="r")
    else:
        r = np.triu(rng.standard_normal((k, k)))
        if kind == "graded":
            r *= np.logspace(0, -rng.uniform(0, 20), k)
        elif kind == "zero-diagonal":
            zero = int(rng.integers(k))
            r[zero, zero] = 0.0
    stops = evolution._diagonal_stops(r, level)
    if stops:
        sy = np.linalg.svd(r, compute_uv=False)
        assert sy[-1] <= level * sy[0]
    assert stops or kind != "zero-diagonal"


def test_the_sketch_is_drawn_once_and_read_only():
    # the memo holds the seeded stream's draws bit for bit: SKETCH_START
    # columns, then SKETCH_STEP at a time, side by side
    rng = np.random.default_rng(evolution.SKETCH_SEED)
    start, step = evolution.SKETCH_START, evolution.SKETCH_STEP
    fresh = [rng.standard_normal((333, width)) for width in (start, step, step)]
    omega = evolution._sketch(333, start + 2 * step)
    assert omega.shape == (333, start + 2 * step)
    np.testing.assert_array_equal(omega, np.hstack(fresh))
    np.testing.assert_array_equal(evolution._sketch(333, start), fresh[0])
    assert evolution._sketch(333, start + 2 * step) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        omega[0, 0] = 0.0


def test_the_sketch_holds_no_dense_matrix_but_lstsq_gets_one(monkeypatch):
    # at N = 1201 the N x N matrix alone takes 8 N^2 bytes (11.5 MB); the
    # blocks of the band take 0.37 of that
    gamma, plan = _grid_1d(1201)
    u = evolve_quadrature(gamma, plan)
    inverse_evolve(u, plan)  # draw the sketch, warm numpy's and BLAS's buffers
    tracemalloc.start()
    try:
        inverse_evolve(u, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1201 ** 2
    # a near-full-rank system goes to lstsq on the assembled dense A
    gamma, plan = _grid_2d(31)
    u = evolve_quadrature(gamma, plan)
    seen = []
    real_lstsq = np.linalg.lstsq

    def recording(a, b, rcond):
        seen.append(a.copy())
        return real_lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    inverse_evolve(u, plan)
    monkeypatch.undo()
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], _dense_quadrature_matrix(u, plan))


def test_sampled_inverse_is_repeatable_and_leaves_global_rng_alone():
    gamma, plan = _grid_1d(801)
    u = evolve_quadrature(gamma, plan)
    before = np.random.get_state()
    first = inverse_evolve(u, plan).values
    second = inverse_evolve(u, plan).values
    after = np.random.get_state()
    assert first.tobytes() == second.tobytes()
    assert before[0] == after[0] and before[2:] == after[2:]
    np.testing.assert_array_equal(before[1], after[1])


def test_plan_from_final_moment_closes_the_loop():
    # the trajectory through the plan's end anchor at the final time passes
    # through the initial moment at the start
    p = params_1d()
    fwd = plan_for(p, 0.0, 1.0, unit_field(mean=0.5))
    x_s = p.moment_trajectory(fwd.x_end, 1.0).at(0.0)
    np.testing.assert_allclose(x_s, [0.5], atol=1e-14)


def test_2d_quadrature_matches_analytic():
    lam = np.array([[0.6, 0.2], [-0.1, 0.4]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.3, 0.0], [0.1, -0.2]]),
                    diffusion=0.4, coupling=1.0)
    pk = GaussianPacket(mean=[0.3, -0.2], num=np.eye(2), den=np.eye(2))
    gamma = SampledDensity.from_callable(lambda q: pk.eval(p, q),
                                         [-7.0, -7.0], [7.0, 7.0], [55, 55])
    plan = plan_for(p, 0.0, 0.5, gamma)
    out = evolve_quadrature(gamma, plan)
    exact = evolve_analytic(GaussianMixture([pk]), plan).eval(p, out.points())
    assert np.max(np.abs(out.values.ravel() - exact)) < 1e-8
    assert out.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_2d_analytic_roundtrip():
    lam = np.array([[0.5, 0.2], [-0.3, 0.7]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.4, 0.1], [0.0, -0.2]]),
                    diffusion=0.3, coupling=1.0)
    pk = GaussianPacket(mean=[0.4, -0.1], num=np.eye(2),
                        den=np.array([[1.0, 0.2], [0.2, 1.5]]))
    mix = GaussianMixture([pk])
    plan = plan_for(p, 0.0, 0.8, mix)
    back = inverse_evolve(evolve_analytic(mix, plan), plan).components[0]
    np.testing.assert_allclose(back.mean, pk.mean, atol=1e-12)
    np.testing.assert_allclose(back.num, pk.num, atol=1e-12)
    np.testing.assert_allclose(back.den, pk.den, atol=1e-12)


# ------------------------------------------------------- blocked quadrature

def _dense_quadrature(gamma, plan, rows=slice(None)):
    """Output rows of the quadrature from the dense kernel over every input
    node (a sample of rows keeps a 3D grid's kernel small)."""
    pts = gamma.points()
    return kernel_matrix(plan, pts[rows], pts) @ (gamma.weights() * gamma.values).ravel()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rows", ["default", "unequal", "single"])
def test_blocked_quadrature_equals_the_dense_kernel(dim, rows, monkeypatch):
    # row blocks of the kernel, each multiplied into the weighted samples,
    # give the dense product up to the matrix-vector product's rounding
    gamma, plan = _grid_1d(1201) if dim == 1 else _grid_2d(31)
    n = gamma.values.size
    entries = {"default": model.BLOCK_ENTRIES,
               # 5 blocks of unequal rows (240 and 241, 192 and 193)
               "unequal": -(-n * n // 5),
               # one row at a time: the matrix-vector path of every block
               "single": 1}[rows]
    monkeypatch.setattr(model, "BLOCK_ENTRIES", entries)
    if rows == "unequal":
        sizes = {b.stop - b.start for b in model.row_blocks(n, n)}
        assert len(model.row_blocks(n, n)) == 5 and len(sizes) == 2
    out = evolve_quadrature(gamma, plan).values.ravel()
    ref = _dense_quadrature(gamma, plan)
    np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())


def _grid_3d():
    lam = np.array([[0.6, 0.2, 0.0], [-0.1, 0.4, 0.1], [0.0, 0.1, 0.5]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((3, 3)),
                    coupling_mean=-0.2 * np.eye(3), diffusion=0.4, coupling=1.0)
    pk = GaussianPacket(mean=[0.3, -0.2, 0.1], num=np.eye(3), den=np.eye(3))
    gamma = SampledDensity.from_callable(lambda q: pk.eval(p, q), [-7.0] * 3, [7.0] * 3,
                                         [25, 27, 29])
    return gamma, plan_for(p, 0.0, 0.5, gamma)


def _grid_forward(nodes):
    # a quad_forward-shaped 1D grid: a packet of sd 0.5 on [-6, 6]
    p = params_1d(eps=0.15)
    gamma = sampled_from(unit_packet(mean=0.3, num=4.0), p, -6.0, 6.0, nodes)
    return gamma, plan_for(p, 0.0, 0.8, gamma)


def _grid_narrow():
    # a kernel a few grid steps wide: its offset tables would leave the
    # exponent bound for every run above 1
    p = params_1d(eps=0.01)
    gamma = sampled_from(unit_packet(num=50.0), p, -3.0, 3.0, 1201)
    return gamma, plan_for(p, 0.0, 0.01, gamma)


def _grid_anisotropic():
    # drift 3 along the first axis and 0 along the second: the kernel is
    # about 7 grid steps wide along one and 2 along the other, so the tile
    # is uneven and neither axis' length is a whole number of tiles
    p = ModelParams(drift=[[3.0, 0.1], [-0.05, 0.0]], coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.3, 0.0], [0.0, -0.2]]),
                    diffusion=0.4, coupling=1.0)
    pk = GaussianPacket(mean=[0.3, -0.2], num=np.eye(2), den=np.eye(2))
    gamma = SampledDensity.from_callable(lambda q: pk.eval(p, q), [-7.0, -7.0], [7.0, 7.0],
                                         [45, 39])
    return gamma, plan_for(p, 0.0, 0.6, gamma)


def _chosen_tile(gamma, plan):
    v = plan.m.dd * gamma.dx
    return evolution._tile(plan, gamma, v, plan.exponent @ v)


# grid, the tile the factored loop takes, and whether some exponent of its
# base columns lies below LOG_TINY
FACTORED_CASES = {
    "1d-1201": (lambda: _grid_forward(1201), (64,), False),
    "1d-2401": (lambda: _grid_forward(2401), (64,), False),
    "2d-31x31": (lambda: _grid_2d(31), (4, 4), False),
    "2d-45x45": (lambda: _grid_2d(45), (4, 8), False),
    "2d-45x39-anisotropic": (_grid_anisotropic, (16, 4), False),
    "3d-25x27x29": (_grid_3d, (2, 4, 2), True),
    "1d-narrow": (_grid_narrow, (1,), True),
    "1d-801-wide-box": (lambda: _grid_1d(801), (32,), True),
}


@pytest.mark.parametrize("case", list(FACTORED_CASES))
def test_factored_quadrature_equals_the_dense_kernel(case, monkeypatch):
    # over tiles of nodes the kernel is the tile centres' kernel times two
    # exponential tables; the sum over a tile is one GEMM, and the result
    # is the dense product up to its rounding.  Each call takes
    # N x prod ceil(n_a / B_a) kernel entries from exp_product, not N^2, of
    # which none is subnormal; a tile of one node is the plain blocked loop
    # over every column
    grid, tile, underflow = FACTORED_CASES[case]
    gamma, plan = grid()
    entries, minima = [], []
    tiny = np.finfo(float).tiny

    def recording(left, right, out=None):
        minima.append((left @ right).min())
        block = exp_product(left, right, out=out)
        entries.append(block.size)
        assert not ((block > 0.0) & (block < tiny)).any()
        return block

    monkeypatch.setattr(evolution, "exp_product", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve_quadrature(gamma, plan).values.ravel()
    tiles = [-(-n // b) for n, b in zip(gamma.values.shape, tile)]
    assert sum(entries) == gamma.values.size * int(np.prod(tiles))
    assert _chosen_tile(gamma, plan) == tile and (min(minima) < LOG_TINY) == underflow
    # every row up to 2401 nodes; on the 3D grid every 37th row, the peak's
    # among them, so the reference kernel has 529 rows, not 19575
    rows = np.arange(0, out.size, 1 if out.size <= 2401 else 37)
    rows = np.union1d(rows, np.argmax(np.abs(out)))
    ref = _dense_quadrature(gamma, plan, rows)
    np.testing.assert_allclose(out[rows], ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())


def _table_exponent(gamma, plan, tile):
    """The largest |exponent| of the output table plus the largest of the
    base table for this tile, over every output node, tile centre and
    offset: -2 m.g(x) and 2 m.h(b) + m^T q m, with g and h taken from the
    output grid's anchored centre."""
    v = plan.m.dd * gamma.dx
    cv = plan.exponent @ v
    offsets = np.stack(np.meshgrid(*[np.arange(b) - b // 2 for b in tile], indexing="ij"),
                       axis=-1).reshape(-1, gamma.dim)
    xp = gamma.points() - plan.x_end
    centre = 0.5 * (xp.min(axis=0) + xp.max(axis=0))
    axes = [x0 + h * (b * np.arange(-(-n // b)) + b // 2)
            for x0, h, b, n in zip(gamma.x_min, gamma.dx, tile, gamma.values.shape)]
    ys = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    yp = (ys - plan.x_start) @ plan.m.dd.T
    out_table = -2.0 * (xp - centre) @ cv @ offsets.T
    base_table = (2.0 * (yp - centre) @ cv @ offsets.T
                  + np.einsum("mi,ij,mj->m", offsets, v.T @ cv, offsets))
    return np.abs(out_table).max() + np.abs(base_table).max()


@pytest.mark.parametrize("case", [c for c in FACTORED_CASES if not c.startswith("3d")])
def test_the_tile_is_the_largest_whose_tables_stay_bounded(case):
    # every exponent of the chosen tile's tables lies within TABLE_EXPONENT,
    # and every candidate with more nodes, or as many nodes over fewer base
    # nodes, has one past it: the corner bounds of _tile agree with the
    # tables over every node and offset
    gamma, plan = FACTORED_CASES[case][0]()
    shape = gamma.values.shape
    chosen = _chosen_tile(gamma, plan)

    def rank(tile):
        return -int(np.prod(tile)), int(np.prod([-(-n // b) for n, b in zip(shape, tile)]))

    candidates = itertools.product(*[[1 << k for k in range(min(64, n).bit_length())]
                                     for n in shape])
    for tile in candidates:
        if np.prod(tile) > evolution.RUN_MAX:
            continue
        bounded = _table_exponent(gamma, plan, tile) <= evolution.TABLE_EXPONENT
        if tile == chosen:
            assert bounded
        elif rank(tile) < rank(chosen):
            assert not bounded, tile


def test_unresolved_kernel_takes_no_tables_and_warns_nothing():
    # t - s = 1e-3 on 401 nodes: the kernel is under a grid step wide, so
    # the loop runs over every column (B = 1) and no table exponentiates
    # past double precision.  The mass this returns is wrong (1.025) and
    # raises nothing; that is the open trapezoid-resolution defect
    p = params_1d()
    gamma = sampled_from(unit_packet(), p, -6.0, 6.0, 401)
    plan = plan_for(p, 0.0, 1e-3, gamma)
    assert _chosen_tile(gamma, plan) == (1,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve_quadrature(gamma, plan)
    assert np.array_equal(out.values.ravel(), _blocked_quadrature(gamma, plan))


def _blocked_quadrature(gamma, plan):
    """The unfactored loop: every kernel column, a row block at a time."""
    pts = gamma.points()
    weighted = (gamma.weights() * gamma.values).ravel()
    left, right = evolution.kernel_features(plan, pts, pts)
    return np.concatenate([exp_product(left[rows], right) @ weighted
                           for rows in model.row_blocks(len(pts), len(pts))])


def _grid_wide():
    # a kernel wider than its grid: every window of the band would run past
    # both ends of [-3, 3] and is clipped to the whole grid
    p = params_1d(eps=0.5)
    gamma = sampled_from(unit_packet(mean=0.3), p, -3.0, 3.0, 301)
    return gamma, plan_for(p, 0.0, 1.0, gamma)


# 1D grids keep the bits of the dense kernel in the band; in 2D, BLAS takes
# another kernel for another block shape, which moves a few entries by an
# ulp of the exponent (5.7e-14 relative at most on 31^2, as the row blocks
# of a full-width fill did)
BAND_CASES = {
    401: lambda: _grid_1d(401),
    801: lambda: _grid_1d(801),
    1201: lambda: _grid_1d(1201),
    "2d-31x31": lambda: _grid_2d(31),
    "1d-whole-grid": _grid_wide,
}


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_forward_quadrature_matrix_is_the_weighted_dense_kernel(case):
    # A comes as the blocks of its band, each its own contiguous array that
    # holds the dense kernel times the weights, with the entries below the
    # smallest normal double flushed; outside the band A is exactly 0,
    # where the dense kernel is below e^-BAND_EXPONENT of its largest entry
    gamma, plan = BAND_CASES[case]()
    n = gamma.values.size
    pts = gamma.points()
    ref = kernel_matrix(plan, pts, pts) * gamma.weights().ravel()
    ref[ref < np.finfo(float).tiny] = 0.0
    blocks = evolution.forward_quadrature_matrix(gamma, plan)
    band = evolution._band(gamma, plan)
    assert [(rows, cols) for rows, cols, _ in blocks] == band
    for rows, cols, block in blocks:
        assert block.flags.c_contiguous and block.flags.owndata
        if gamma.dim == 1:
            assert np.array_equal(block, ref[rows, cols])
        else:
            np.testing.assert_allclose(block, ref[rows, cols], rtol=1e-13, atol=0)
    a = evolution._dense(blocks, n)
    inside = np.zeros(a.shape, dtype=bool)
    for rows, cols in band:
        inside[rows, cols] = True
    assert not a[~inside].any()
    assert ref[~inside].max(initial=0.0) <= np.exp(-evolution.BAND_EXPONENT) * ref.max()
    # several blocks, the first window clipped at the grid's start and the
    # last at its end
    assert len(band) > 1 and band[0][1].start == 0 and band[-1][1].stop == n
    if case == "1d-whole-grid":
        assert all(cols == slice(0, n) for _, cols in band)
    else:
        assert inside.mean() < 0.75


def test_the_sampled_inverse_exponentiates_only_its_band(monkeypatch):
    # a quad_inverse-shaped fill: N 1201, diffusion 0.5, t - s 0.1.  The
    # kernel takes exp_product over the band's area alone, under half of N^2
    gamma, plan = _grid_1d(1201)
    entries = []

    def recording(*args, **kwargs):
        block = exp_product(*args, **kwargs)
        entries.append(block.size)
        return block

    monkeypatch.setattr(evolution, "exp_product", recording)
    evolution.forward_quadrature_matrix(gamma, plan)
    area = sum((rows.stop - rows.start) * (cols.stop - cols.start)
               for rows, cols in evolution._band(gamma, plan))
    assert sum(entries) == area < gamma.values.size ** 2 / 2


@pytest.mark.parametrize("tau", [20.0, 250.0])
def test_the_band_refuses_a_flow_that_forgets_its_input(tau):
    # drift 3 shrinks dd to 8.8e-27 over t - s = 20 and to 0 over 250: the
    # kernel is all but flat in its input, dd^-1 is huge or does not exist,
    # and the band, the one place that measures the kernel's footprint on
    # the grid, refuses it with no warning and no LinAlgError
    p = params_1d(lam=3.0, eps=0.5)
    gamma = sampled_from(unit_packet(mean=0.3), p, -3.0, 3.0, 201)
    plan = plan_for(p, 0.0, tau, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllPosedInverseError, match=r"exceeds the grid's span 6 along its "
                                                       r"first axis"):
            evolution._band(gamma, plan)


@pytest.mark.parametrize("tau, width", [(5.0, "1.33e+06"), (20.0, "4.66e+25"),
                                        (250.0, "inf (dd is singular)")])
def test_the_sampled_inverse_refuses_a_horizon_that_forgets_its_input(tau, width):
    # drift 3: the kernel's input width outgrows the 16 units of the grid,
    # and a minimum-norm solve returned a field 0.501 off with a passing
    # forward residual
    p = params_1d(lam=3.0, eps=0.5)
    gamma = sampled_from(unit_packet(mean=0.3), p, -8.0, 8.0, 401)
    plan = plan_for(p, 0.0, tau, gamma)
    u = evolve_quadrature(gamma, plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllPosedInverseError,
                           match=rf"\|t - s\| = {tau:g}: .* sigma_0 = {re.escape(width)} exceeds the "
                                 r"grid's span 16 along its first axis"):
            inverse_evolve(u, plan)


def test_a_kernel_narrower_than_the_grid_still_inverts():
    # t - s = 1 at drift 3: sigma_0 8.19 lies within the span 16, and the
    # minimum-norm label of the roundtrip (0.172 off) is left as it is
    p = params_1d(lam=3.0, eps=0.5)
    gamma = sampled_from(unit_packet(mean=0.3), p, -8.0, 8.0, 401)
    plan = plan_for(p, 0.0, 1.0, gamma)
    assert kernels.input_width(plan)[0] == pytest.approx(8.19, abs=5e-3)
    back = inverse_evolve(evolve_quadrature(gamma, plan), plan)
    assert np.max(np.abs(back.values - gamma.values)) == pytest.approx(0.172, abs=1e-3)


def test_the_sampled_inverse_names_a_backward_plan():
    # along plan.reversed() the kernel runs backward, and the error used to
    # say "inverse_evolve inverts" to a caller of inverse_evolve
    gamma, plan = _grid_1d(401)
    with pytest.raises(KernelValidityError, match=r"takes the forward plan .* not a backward "
                                                  r"one \(t - s = -0\.1\)"):
        inverse_evolve(evolve_quadrature(gamma, plan), plan.reversed())


def test_quadrature_never_holds_the_kernel_matrix():
    # N = 2401: the dense kernel alone would take 46 MB
    gamma, plan = _grid_forward(2401)
    evolve_quadrature(gamma, plan)  # warm numpy's and BLAS's one-off buffers
    tracemalloc.start()
    try:
        evolve_quadrature(gamma, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_a_plan_of_another_dimension_is_an_input_error():
    # a 1D grid along a 2D plan died in numpy's matmul or broadcasting
    gamma_1d, plan_1d = _grid_1d(201)
    gamma_2d, plan_2d = _grid_2d(21)
    mix_1d = unit_field(mean=0.3)
    for field, plan in ((gamma_1d, plan_2d), (gamma_2d, plan_1d), (mix_1d, plan_2d)):
        calls = [inverse_evolve]
        calls.append(evolve_analytic if isinstance(field, GaussianMixture)
                     else evolve_quadrature)
        for call in calls:
            with pytest.raises(InputError, match=rf"a {field.dim}D \w+ cannot move "
                                                 rf"along a {plan.params.dim}D plan"):
                call(field, plan)


def _wrong_kind_calls():
    """Each entry call given a field of a kind it does not take, the call
    named in the refusal and the hint it gives, all on the reference case."""
    params, packet = reference_case()
    mix = GaussianMixture([packet])
    plan = plan_for(params, 0.0, 1.0, mix)
    sampled = sampled_from(packet, params, nodes=201)
    sampled_plan = plan_for(params, 0.0, 1.0, sampled)
    u_sampled = evolve_quadrature(sampled, sampled_plan)
    op = linsym_operator(params, matriciant(params, 0.0, 0.0), packet.mean)
    shifts = build_shifts(op, mix, params, 0.0, moment_override=[0.2])
    packet_hint, mixture_hint = "GaussianMixture([packet]) makes one", "evolve_analytic takes one"
    sampled_hint = "evolve_quadrature takes one"
    return {
        "plan_for-packet": (lambda: plan_for(params, 0.0, 1.0, packet), packet_hint),
        "evolve_analytic-sampled": (lambda: evolve_analytic(sampled, plan), sampled_hint),
        "evolve_analytic-packet": (lambda: evolve_analytic(packet, plan), packet_hint),
        "evolve_quadrature-mixture": (lambda: evolve_quadrature(mix, plan), mixture_hint),
        "inverse_evolve-packet": (lambda: inverse_evolve(packet, plan), packet_hint),
        "propagate_packet-sampled": (lambda: propagate_packet(sampled, plan), sampled_hint),
        "symmetry_routes-sampled": (
            lambda: symmetry_routes(op, sampled, params, 0.0, 1.0, moment_override=[0.2]),
            sampled_hint),
        "symmetry_apply_shift-sampled": (
            lambda: symmetry_apply_shift(op, u_sampled, shifts, 1.0), sampled_hint),
        "symmetry_apply_conclusion-sampled": (
            lambda: symmetry_apply_conclusion(op, u_sampled, shifts, 1.0), sampled_hint),
        "symmetry_apply_evolution-sampled": (
            lambda: symmetry_apply_evolution(op, u_sampled, sampled_plan), sampled_hint),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(_wrong_kind_calls()))
def test_a_field_of_the_wrong_kind_is_an_input_error(case):
    # each died with a raw AttributeError naming a missing attribute
    # ('first_moment', 'cov', 'dim', 'edge_max', 'shifted')
    call, hint = _wrong_kind_calls()[case]
    caller, kind = case.split("-")
    kind = {"packet": "GaussianPacket", "sampled": "SampledDensity",
            "mixture": "GaussianMixture"}[kind]
    with pytest.raises(InputError, match=rf"^{caller} takes a .*, not a {kind}; "
                                         rf"{re.escape(hint)}$"):
        call()
