import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpknl import (GaussianMixture, GaussianPacket,
                   IllPosedInverseError, KernelValidityError, ModelParams,
                   NormalizationError, SampledDensity, TruncationError,
                   evolution, evolve_analytic, evolve_packet,
                   evolve_quadrature, inverse_evolve, plan_for)


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
    np.testing.assert_allclose(out.precision(), direct.precision(), atol=1e-15)


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
        assert out.first_moment(p)[0] == pytest.approx(0.0, abs=1e-14)


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


def test_quadrature_long_horizon_names_the_overflow():
    # drift 3 over t - s = 250 overflows the matriciant; the error must say
    # so rather than blame the (finite) input samples
    p = params_1d(lam=3.0)
    gamma = sampled_from(unit_packet(), p, -3.0, 3.0, 301)
    with pytest.raises(KernelValidityError, match=r"\|t - s\| = 250.*overflows"):
        evolve_quadrature(gamma, plan_for(p, 0.0, 250.0, gamma))


def test_analytic_inverse_shares_the_backward_kernel_guard():
    # both backward moves go through KernelContext.reversed(): an overflowing
    # horizon names the matriciant (the analytic inverse used to reach an SVD
    # and raise numpy's LinAlgError)
    p = params_1d(lam=3.0)
    u = unit_field()
    with pytest.raises(KernelValidityError, match=r"\|t - s\| = 250.*overflows"):
        inverse_evolve(u, plan_for(p, 0.0, 250.0, u))


def test_analytic_forward_names_an_overflowing_matriciant():
    # drift 3 over t - s = 250 overflows the matriciant; the forward pathways
    # used to return num = den = inf and fail later in eval as a focal point
    p = params_1d(lam=3.0)
    pk = unit_packet(num=4.0)
    overflow = r"\|t - s\| = 250.*overflows"
    mix = GaussianMixture([pk])
    with pytest.raises(KernelValidityError, match=overflow):
        evolve_analytic(mix, plan_for(p, 0.0, 250.0, mix))
    with pytest.raises(KernelValidityError, match=overflow):
        evolve_packet(pk, p, 250.0, 0.0)


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
    rec = inverse_evolve(evolve_analytic(mix, plan), plan).components[0]
    scale = max(1.0, abs(num), abs(den))
    assert abs(rec.mean[0] - mean) < 1e-10 * scale
    assert abs(rec.num[0, 0] - num) < 1e-10 * scale
    assert abs(rec.den[0, 0] - den) < 1e-10 * scale


def _long_roundtrip(drift, tau):
    # stable drifts (> 0) take the first parameter set, unstable the second
    feedback, eps, mean, num = (-0.5, 0.1, 0.5, 4.0) if drift > 0 else (-0.3, 0.2, 0.3, 2.0)
    p = params_1d(lam=drift, eps=eps, feedback=feedback)
    pk = unit_packet(mean=mean, num=num)
    plan = plan_for(p, 0.0, tau, GaussianMixture([pk]))
    return pk, inverse_evolve(evolve_analytic(GaussianMixture([pk]), plan), plan).components[0]


@pytest.mark.parametrize("drift, tau", [(-1.0, 20.0), (-3.0, 10.0), (3.0, 2.0)])
def test_analytic_inverse_recovers_long_horizons(drift, tau):
    # the inverse is the block inverse of the forward blocks; a second
    # exponential cross-checked against them used to raise
    # ConfigurationError ("not mutual inverses") on the unstable drifts.
    # Drift 3 over tau 2 has a rounding bound of 9.6e-11, inside the limit
    pk, rec = _long_roundtrip(drift, tau)
    for f in ("mean", "num", "den"):
        np.testing.assert_allclose(getattr(rec, f), getattr(pk, f), rtol=0, atol=1e-15)


@pytest.mark.parametrize("tau", [5.0, 10.0])
def test_analytic_inverse_rejects_cancelled_precision(tau):
    # backward over a stable drift den is a difference of terms about
    # e^(2 drift tau) times its size; at tau 5 the inverse used to return
    # den off by 1.95e-3 without an error, at tau 10 to blame a focal point
    with pytest.raises(IllPosedInverseError, match=rf"\|t - s\| = {tau:g}.*precise only"):
        _long_roundtrip(3.0, tau)


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
    sv = np.linalg.svd(evolution.forward_quadrature_matrix(u, plan),
                       compute_uv=False)
    cutoff = evolution.INVERSE_RCOND * sv[0]
    msg = str(info.value)
    assert f"rank {int(np.sum(sv > cutoff))} of 801" in msg
    reported = float(re.search(r"sigma cutoff (\S+)", msg).group(1))
    assert reported == pytest.approx(cutoff, rel=1e-3)
    assert "forward residual" in msg and "factorization" in msg


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
# grows (at N = 801 too: 256 columns stay within the N/3 cap)
SOLVE_CASES = {
    "1d-401": (lambda: _grid_1d(401), "randomized sketch k=128"),
    "1d-1201": (lambda: _grid_1d(1201), "randomized sketch k=128"),
    "1d-narrow": (lambda: _grid_1d(1201, eps=0.15), "randomized sketch k=256"),
    "1d-801-narrow": (lambda: _grid_1d(801, eps=0.15), "randomized sketch k=256"),
    "2d-31x31": (lambda: _grid_2d(31), "lstsq"),
}


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_sampled_solve_matches_lstsq(case):
    grid, how = SOLVE_CASES[case]
    gamma, plan = grid()
    u = evolve_quadrature(gamma, plan)
    a = evolution.forward_quadrature_matrix(u, plan)
    rhs = u.values.ravel()
    rcond = evolution.INVERSE_RCOND
    ref, _, ref_rank, _ = np.linalg.lstsq(a, rhs, rcond=rcond)
    sol, rank, _, used = evolution._sketch_solve(a, rhs, rcond)
    assert used == how
    assert rank == ref_rank
    if case.endswith("narrow"):
        assert ref_rank > evolution.SKETCH_START
    if case.startswith("2d"):
        assert ref_rank > rhs.size // 3
    assert np.max(np.abs(sol - ref)) < 1e-6
    back = inverse_evolve(u, plan)
    np.testing.assert_array_equal(back.values.ravel(), sol)


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
