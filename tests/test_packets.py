import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fpknl import (GaussianMixture, GaussianPacket, InputError, InvalidCovarianceError,
                   KernelContext, KernelValidityError, ModelParams, NormalizationError,
                   SampledDensity, checks, evolve_analytic, evolve_packet,
                   inverse_evolve, kernel_context, linsym_operator, matriciant, plan_for,
                   propagate_packet, residual_field, symmetry_routes)
from fpknl import model, packets, variations


def params_1d(lam=0.0, eps=0.5, feedback=0.0, kappa=0.0):
    return ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                       coupling_mean=[[feedback]], diffusion=eps, coupling=kappa)


def test_peak_value_is_normalization():
    p = params_1d(eps=0.5)
    pk = GaussianPacket(mean=[0.2], num=[[2.0]], den=[[1.0]], weight=0.7)
    q = 2.0
    expected = 0.7 * np.sqrt(q / (2 * np.pi * 0.5))
    assert pk.eval(p, [0.2]) == pytest.approx(expected, abs=1e-14)


def test_peak_value_frozen_unit_case():
    p = params_1d(eps=0.5)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    assert pk.eval(p, [0.0]) == pytest.approx(0.5641895835477563, abs=1e-15)


def test_eval_symmetric_about_mean():
    p = params_1d(eps=0.3)
    pk = GaussianPacket(mean=[0.4], num=[[1.3]], den=[[0.9]])
    for d in (0.1, 0.7, 2.0):
        assert pk.eval(p, [0.4 + d]) == pytest.approx(
            pk.eval(p, [0.4 - d]), abs=1e-15)


def test_evolve_identity_at_equal_times():
    p = params_1d(lam=1.0, eps=0.5)
    pk = GaussianPacket(mean=[0.3], num=[[1.0]], den=[[1.0]])
    out = evolve_packet(pk, p, 2.0, 2.0)
    np.testing.assert_allclose(out.mean[0], pk.mean)
    np.testing.assert_allclose(out.cov[0], pk.den @ np.linalg.inv(pk.num))


def test_heat_variance_growth():
    # pure diffusion: variance eps*den/num grows from 0.5 to 1.5 over t=1
    p = params_1d(lam=0.0, eps=0.5)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    out = evolve_packet(pk, p, 1.0, 0.0)
    assert np.linalg.inv(out.cov[0])[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
    cov = p.diffusion * out.cov[0]
    assert cov[0, 0] == pytest.approx(1.5, abs=1e-12)


def test_mean_follows_moment_trajectory():
    p = params_1d(lam=1.0, eps=0.5, feedback=1.0, kappa=1.0)
    pk = GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]])
    out = evolve_packet(pk, p, 1.0, 0.0)
    assert out.mean[0] == pytest.approx(0.06766764161830635, abs=1e-15)


def test_packet_moments_of_valid_packet():
    p = params_1d(eps=0.5)
    pk = GaussianPacket(mean=[-0.3], num=[[1.0]], den=[[3.0]], weight=0.9)
    mix = GaussianMixture([pk])
    mass, mean, cov = mix.total_mass(), pk.mean, p.diffusion * mix.cov[0]
    assert mass == pytest.approx(0.9)
    assert mean[0] == pytest.approx(-0.3)
    assert cov[0, 0] == pytest.approx(1.5, abs=1e-13)


def test_mass_invariant_along_evolution():
    p = params_1d(lam=0.7, eps=0.2, feedback=-0.4, kappa=1.0)
    pk = GaussianPacket(mean=[0.6], num=[[1.2]], den=[[0.8]], weight=1.0)
    for t in (0.1, 0.5, 1.0, 2.0):
        assert evolve_packet(pk, p, t, 0.0).total_mass() == GaussianMixture([pk]).total_mass()


def test_grid_mass_of_evolved_packet():
    p = params_1d(lam=1.0, eps=0.1, feedback=-0.5, kappa=1.0)
    pk = GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]])
    out = evolve_packet(pk, p, 1.0, 0.0)
    x = np.linspace(-6, 6, 4001).reshape(-1, 1)
    mass = np.trapezoid(out.eval(p, x), dx=12 / 4000)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pde_residual_second_order():
    p = params_1d(lam=1.0, eps=0.1, feedback=-0.5, kappa=1.0)
    pk = GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]])
    traj = p.moment_trajectory(pk.mean, 0.0)

    def resid(nodes, dt):
        return residual_field(p, lambda t, pts: evolve_packet(pk, p, t, 0.0).eval(p, pts),
                              0.4, dt, 7, [-1.7], [2.3], [nodes], traj)

    # dx 1e-2 and dt 1e-3, then both halved
    coarse = resid(401, 1e-3)
    fine = resid(801, 5e-4)
    assert coarse[0] / fine[0] == pytest.approx(4.0, abs=1.0)
    assert coarse[1] / fine[1] == pytest.approx(4.0, abs=1.0)


def test_reduction_identity_links_linear_and_coupled_flows():
    # coupled solution at x equals the drift-only solution at
    # x - X_coupled(t) + X_linear(t)
    p = params_1d(lam=0.8, eps=0.3, feedback=-0.6, kappa=1.0)
    pk = GaussianPacket(mean=[0.5], num=[[1.1]], den=[[0.9]])
    t = 0.9
    coupled = evolve_packet(pk, p, t, 0.0)
    linear = propagate_packet(GaussianMixture([pk]), kernel_context(p, t, 0.0))
    x_coupled = p.moment_trajectory(pk.mean, 0.0).at(t)
    x_linear = linear.mean[0]  # drift-only mean law
    xs = np.linspace(-3, 3, 57).reshape(-1, 1)
    np.testing.assert_allclose(
        coupled.eval(p, xs),
        linear.eval(p, xs - x_coupled + x_linear),
        atol=1e-13)


def test_evolve_packet_names_an_overflowing_moment_trajectory():
    # moment rate +9 overflows the mean at t = 100 while the matriciant stays
    # finite; the packet used to come back with mean inf and evaluate to 0
    p = params_1d(lam=1.0, eps=0.5, feedback=-10.0, kappa=1.0)
    pk = GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]])
    with pytest.raises(KernelValidityError,
                       match=r"\|t - s\| = 100.*moment trajectory overflows"):
        evolve_packet(pk, p, 100.0, 0.0)


@pytest.mark.parametrize("weight", [2.0, 0.5, 0.0])
def test_evolve_packet_refuses_a_packet_that_is_not_unit_mass(weight):
    # the feedback reads the raw moment weight * mean, so a packet of another
    # weight solves a different equation; the FD oracle check used to report
    # linf 0.53 and moment deviation 0.61 at weight 2 instead of an error
    p, _ = checks.reference_case()
    pk = GaussianPacket([0.5], [[1.0]], [[1.0]], weight=weight)
    with pytest.raises(NormalizationError, match="weight 1"):
        evolve_packet(pk, p, 0.5, 0.0)
    with pytest.raises(NormalizationError, match="weight 1"):
        checks.fd_vs_analytic(p, pk, nx=601, dt=1e-4, t_end=0.5)


@pytest.mark.parametrize("extra", [{"dipole": [0.3]}, {"amp0": 2.0}], ids=["dipole", "amp0"])
def test_evolve_packet_refuses_a_packet_that_is_not_a_plain_density(extra):
    p, _ = checks.reference_case()
    pk = GaussianPacket([0.5], [[1.0]], [[1.0]], **extra)
    with pytest.raises(InvalidCovarianceError, match="needs a plain density packet"):
        evolve_packet(pk, p, 0.5, 0.0)


@pytest.mark.parametrize("fields", [
    {"mean": [0.5], "num": [[1.0, 0.0]], "den": [[1.0]]},
    {"mean": [0.5], "num": np.eye(2), "den": np.eye(2)},
    {"mean": [[0.5, 0.1]], "num": np.eye(2), "den": np.eye(2)},
    {"mean": [0.5, 0.1], "num": np.eye(2), "den": [[1.0]]},
    {"mean": [0.5], "num": [[1.0]], "den": [[1.0]], "dipole": [1.0, 2.0]},
])
def test_packet_rejects_mismatched_shapes(fields):
    # used to surface later as numpy's solve or inhomogeneous-array ValueError
    with pytest.raises(InputError, match="packet needs"):
        GaussianPacket(**fields)


@pytest.mark.parametrize("field, value", [
    ("mean", [0.5, [1.0]]), ("num", [[1.0, 2.0], [3.0]]), ("den", [[1.0], []]),
    ("dipole", ["a"]), ("num", [["a"]]),
], ids=["ragged-mean", "ragged-num", "ragged-den", "dipole-not-a-number", "num-not-a-number"])
def test_packet_names_a_field_that_is_not_an_array_of_numbers(field, value):
    # each used to escape as numpy's ValueError ("inhomogeneous shape", "could
    # not convert string to float")
    fields = {"mean": np.array([0.5]), "num": [[1.0]], "den": [[1.0]], field: value}
    with pytest.raises(InputError, match=f"^packet {field} must be an array of numbers, got "):
        GaussianPacket(**fields)


@pytest.mark.parametrize("field", ["mean", "num", "den", "weight", "amp0", "dipole"])
def test_packet_rejects_non_finite_fields(field):
    # a NaN weight used to surface as a KernelValidityError blaming the
    # horizon, a NaN num as a silently NaN evolved field
    fields = {"mean": [0.5], "num": [[1.0]], "den": [[1.0]], "dipole": [0.1]}
    fields[field] = np.full_like(fields.get(field, 1.0), np.nan, dtype=float)
    with pytest.raises(InputError, match="finite"):
        GaussianPacket(**fields)


def test_groups_take_every_component_even_a_non_finite_mean():
    # a NaN mean is near no center, so the grouping used to yield empty
    # groups forever and eval never returned; islice bounds the loop
    mean = np.array([[0.0], [np.nan], [5.0], [np.nan]])
    groups = list(itertools.islice(packets._groups(mean, np.full(4, 100.0), np.inf), 5))
    members = np.concatenate([g for g, _, _ in groups])
    assert sorted(members) == [0, 1, 2, 3]


def grouping_case(case, dim, rng):
    """A mixture of the named kind: one component; several sharing one
    center, plain, signed or with dipoles; the same 100 away from the
    origin, past the bound that skips the grouping; or means 1e3 apart."""
    k = 1 if case == "one" else 6
    mean = rng.uniform(-1.0, 1.0, (k, dim))
    if case == "split":
        mean[::2] += 1e3
    if case == "offset":
        mean += 100.0
    cov = np.array([np.eye(dim) * rng.uniform(0.3, 2.0) for _ in range(k)])
    weight = rng.uniform(0.1, 1.0, k)
    if case == "signed":
        weight[1::2] *= -1.0
    dipole = rng.standard_normal((k, dim)) if case in ("dipole", "split") else None
    return GaussianMixture._of(mean, cov, weight, rng.uniform(0.5, 1.5, k), dipole)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("case", ["one", "plain", "signed", "dipole", "offset", "split"])
def test_eval_shortcuts_keep_the_bits_of_the_general_grouping(monkeypatch, case, dim):
    # one component, and one group within the bound, skip the general
    # loop (_split) and keep every bit of its values; a group past the
    # bound takes the loop, and means 1e3 apart still split
    rng = np.random.default_rng(40 + dim)
    mix = grouping_case(case, dim, rng)
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=0.2)
    pts = np.concatenate([rng.standard_normal((300, dim)), mix.mean + rng.standard_normal((6, dim))])
    groups, real = [], packets._split

    def split(mean, reach):
        groups.extend(real(mean, reach))
        return groups

    monkeypatch.setattr(packets, "_split", split)
    fast = mix.eval(p, pts)
    assert len(groups) == {"offset": 1, "split": 2}.get(case, 0)
    monkeypatch.setattr(packets, "_groups", lambda mean, reach, bound: real(mean, reach))
    assert fast.tobytes() == mix.eval(p, pts).tobytes()


def test_mixture_rejects_components_of_different_dimensions():
    # used to raise InvalidCovarianceError, reported as a numerical error
    one = GaussianPacket([0.5], [[1.0]], [[1.0]])
    two = GaussianPacket([0.5, 0.0], np.eye(2), np.eye(2))
    for comps in ([one, two], []):
        with pytest.raises(InputError, match="one dimension"):
            GaussianMixture(comps)


def test_mixture_points_of_the_wrong_width_are_input_errors():
    # a 2D mixture used to re-read (4, 1) points as 2 points and (3, 4)
    # points as 6, with no error
    p = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.zeros((2, 2)), diffusion=0.3)
    mix = GaussianMixture([GaussianPacket([0.1, -0.2], np.eye(2), np.eye(2))])
    for pts in (np.zeros((4, 1)), np.zeros((3, 4)), np.zeros(4), 0.0, np.zeros((2, 2, 2))):
        with pytest.raises(InputError, match=r"\(N, 2\) arrays or one \(2,\) point"):
            mix.eval(p, pts)
    assert mix.eval(p, np.zeros((3, 2))).shape == (3,)
    assert np.ndim(mix.eval(p, np.zeros(2))) == 0
    # 1D callers keep passing flat grids, and one scalar point
    p1 = params_1d()
    one = GaussianMixture([GaussianPacket([0.1], [[1.0]], [[1.0]])])
    grid = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(one.eval(p1, grid), one.eval(p1, grid.reshape(-1, 1)))
    assert one.eval(p1, 0.5) == one.eval(p1, [[0.5]])[0]
    with pytest.raises(InputError, match=r"\(N, 1\) arrays"):
        one.eval(p1, np.zeros((3, 2)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_input_errors(dim, bad):
    # a nan point used to come back as nan with no error, an infinite one
    # as nan with an "invalid value encountered in matmul" warning
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=0.3)
    mix = GaussianMixture([GaussianPacket(np.full(dim, 0.1), np.eye(dim), np.eye(dim))])
    pts = np.zeros((4, dim))
    pts[2, -1] = bad
    with pytest.raises(InputError, match=r"points must be finite, got .* at point 2$"):
        mix.eval(p, pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_far_points_evaluate_to_zero_with_no_overflow(dim):
    # in 1D [1e200, 0.5] came back right but warned of an overflow in
    # y y^T, an error under the suite's filter; in 2D and 3D the cross
    # terms of a positively correlated component (Q with negative
    # off-diagonal entries) overflowed too and inf - inf gave nan.  The
    # component at 1e150 is a group of its own
    rng = np.random.default_rng(dim)
    eps = 0.2
    comps = [GaussianPacket(mean=rng.uniform(-1, 1, dim), num=np.eye(dim),
                            den=0.8 + 0.2 * np.eye(dim), dipole=rng.standard_normal(dim)),
             GaussianPacket(mean=np.full(dim, 1e150), num=2.0 * np.eye(dim),
                            den=np.eye(dim), weight=0.5)]
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=eps)
    near = comps[0].mean + 0.3 * rng.standard_normal((20, dim))
    far = np.array([np.full(dim, 1e200), np.full(dim, -1e200), np.full(dim, 1.7e308),
                    np.full(dim, -1.7e308), np.r_[1e200, near[0, 1:]]])
    vals = GaussianMixture(comps).eval(p, np.concatenate([near, far]))
    terms = component_terms(comps[:1], eps, near)[0]
    assert np.max(np.abs(vals[:20] - terms) / np.abs(terms)) <= 1e-12
    assert not vals[20:].any()
    # the offset of -1.7e308 from a center at 1e307 overflows
    lone = GaussianMixture(comps[1:]).shifted(np.full(dim, 1e307 - 1e150))
    vals = lone.eval(p, np.concatenate([far, lone.mean]))
    assert not vals[:5].any()
    assert vals[5] == pytest.approx(0.5 * (2.0 / (2 * np.pi * eps)) ** (dim / 2), rel=1e-14)
    if dim == 1:
        ref_params, ref_packet = checks.reference_case()
        out = GaussianMixture([ref_packet]).eval(ref_params, np.array([1e200, 0.5]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.1), rel=1e-14)


def test_mixture_values_below_the_smallest_normal_are_zero():
    # the reference packet's exponent is -720 at 12.0 past its mean and
    # -744.2 at 12.2, below log(tiny) = -708.4: one exp gave the subnormals
    # 2.56e-313 and 4.94e-324 there.  At 11.8 (-696.2) the value is normal
    # and stays as it was
    params, packet = checks.reference_case()
    tiny = np.finfo(float).tiny
    vals = GaussianMixture([packet]).eval(params, 0.5 + np.array([11.8, 12.0, 12.2]))
    assert vals[0] >= tiny and vals[0] == pytest.approx(
        np.exp(-11.8 ** 2 / 0.2) / np.sqrt(2 * np.pi * 0.1), rel=1e-12)
    assert vals[1] == 0.0 and vals[2] == 0.0
    # a weight applied after the exp can push a normal exponential below
    # the smallest normal double: at weight 1e-3 the values at 11.85, 11.88
    # and 11.89 past the mean were the subnormals 1.504e-308, 4.28e-310 and
    # 1.30e-310.  At 11.8 the value is normal and stays as it was
    light = GaussianPacket(packet.mean, packet.num, packet.den, weight=1e-3)
    vals = GaussianMixture([light]).eval(params, 0.5 + np.array([11.8, 11.85, 11.88, 11.89]))
    assert vals[0] >= tiny and vals[0] == pytest.approx(
        1e-3 * np.exp(-11.8 ** 2 / 0.2) / np.sqrt(2 * np.pi * 0.1), rel=1e-12)
    assert not vals[1:].any()


@pytest.mark.parametrize("eps", [1.0, 1e-200])
def test_a_normalization_past_the_largest_double_is_taken_in_logs(eps):
    # drift -I over t - s = 250 spreads a 3D packet to cov 2.8e217 I, and the
    # product of its Cholesky diagonal overflowed: numpy warned and eval gave
    # 0 even at diffusion 1e-200, where the peak is 4.27e-28
    p = ModelParams(drift=-np.eye(3), coupling_state=np.zeros((3, 3)),
                    coupling_mean=np.zeros((3, 3)), diffusion=eps)
    mix = GaussianMixture([GaussianPacket(np.zeros(3), np.eye(3), np.eye(3))])
    u = evolve_analytic(mix, plan_for(p, 0.0, 250.0, mix))
    peak = np.exp(-1.5 * np.log(2.0 * np.pi * eps * u.cov[0, 0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = u.eval(p, np.array([[0.0, 0.0, 0.0], [1e100, 0.0, 0.0]]))
    assert values[0] == pytest.approx(peak, rel=1e-12) and values[1] == 0.0
    assert (peak == 0.0) == (eps == 1.0)


def test_a_scale_past_the_doubles_is_refused_only_where_a_value_is():
    # a 3D component of covariance 1e-210 I at diffusion 1 peaks at 10^313.8:
    # its weight over the overflowing normalization gave inf, inf and nan at
    # (0, 0, 0), (1e-104, 0, 0) and (1, 0, 0), with numpy's overflow and
    # invalid-value warnings.  Its log scale joins the exponent instead, so
    # only the peak, whose value is past the largest double, is refused
    p = ModelParams(drift=-np.eye(3), coupling_state=np.zeros((3, 3)),
                    coupling_mean=np.zeros((3, 3)), diffusion=1.0)
    mix = GaussianMixture([GaussianPacket(np.zeros(3), np.eye(3), 1e-210 * np.eye(3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mix.eval(p, np.array([1.0, 0.0, 0.0])) == 0.0
        value = mix.eval(p, np.array([1e-104, 0.0, 0.0]))
        with pytest.raises(InputError, match=r"component 0 peaks at a density of 1e313\.8"):
            mix.eval(p, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    closed = np.exp(-1e-208 / 2e-210 - 1.5 * np.log(2.0 * np.pi * 1e-210))
    assert value == pytest.approx(closed, rel=1e-12)
    assert value == pytest.approx(1.2246e292, rel=1e-4)


def test_a_diffusion_whose_normalization_leaves_the_doubles_evaluates_to_zero():
    # (2 pi eps)^(3/2) at eps = 1e300 was a Python float power, which raised
    # a raw OverflowError; the peak density, 10^-451, is 0 in double precision
    p = ModelParams(drift=-np.eye(3), coupling_state=np.zeros((3, 3)),
                    coupling_mean=np.zeros((3, 3)), diffusion=1e300)
    mix = GaussianMixture([GaussianPacket(np.zeros(3), np.eye(3), np.eye(3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = mix.eval(p, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert values.tolist() == [0.0, 0.0]


def test_propagating_along_a_context_of_another_dimension_is_an_input_error():
    # used to die in numpy matmul ("mismatch in its core dimension")
    mix = GaussianMixture([GaussianPacket([0.1, -0.2], np.eye(2), np.eye(2))])
    with pytest.raises(InputError, match="2D GaussianMixture cannot move along a 1D plan"):
        propagate_packet(mix, kernel_context(params_1d(), 0.5, 0.0))


def test_a_built_mixture_never_forms_the_fraction_again(monkeypatch):
    # the pair (num, den) becomes a covariance once, where the mixture is
    # built; evaluation, evolution, the inverse and the three symmetry
    # routes move that covariance alone
    p, pk = checks.reference_case()
    mix = GaussianMixture([pk])

    def refuse(num, den):
        raise AssertionError("fraction formed again")

    for module in (variations, packets):
        monkeypatch.setattr(module, "fraction", refuse)
    with pytest.raises(AssertionError, match="fraction formed again"):
        GaussianMixture([pk])
    xs = np.linspace(-2.0, 3.0, 11)
    plan = plan_for(p, 0.0, 1.0, mix)
    u = evolve_analytic(mix, plan)
    assert np.all(u.eval(p, xs) > 0.0)
    np.testing.assert_allclose(inverse_evolve(u, plan).cov, mix.cov, rtol=0, atol=1e-12)
    op = linsym_operator(p, matriciant(p, 0.0, 0.0), pk.mean)
    routes, _ = symmetry_routes(op, mix, p, 0.0, 1.0, moment_override=[0.2])
    assert checks.route_spread([r.eval(p, xs) for r in routes]) <= checks.ROUTE_TOL


def test_invalid_covariance_detected():
    p = params_1d()
    pk = GaussianPacket(mean=[0.0], num=[[-1.0]], den=[[1.0]])
    with pytest.raises(InvalidCovarianceError):
        evolve_packet(pk, p, 1.0, 0.0)


def test_2d_residual_second_order():
    lam = np.array([[0.6, 0.2], [-0.1, 0.4]])
    p = ModelParams(drift=lam, coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.3, 0.0], [0.1, -0.2]]),
                    diffusion=0.4, coupling=1.0)
    pk = GaussianPacket(mean=[0.3, -0.2], num=np.eye(2), den=np.eye(2))
    traj = p.moment_trajectory(pk.mean, 0.0)

    def resid(x_min, x_max, nodes, dt):
        return residual_field(p, lambda t, pts: evolve_packet(pk, p, t, 0.0).eval(p, pts),
                              0.3, dt, 5, x_min, x_max, nodes, traj)

    # dx 0.1 and dt 2e-3, then both halved; on the second span the
    # spacings, 4.3/30 and 4/36, are no round decimal, and the stencils
    # must take them from the sampled grid itself
    for x_min, x_max, nodes in (([-2.0, -2.0], [2.0, 2.0], [41, 41]),
                                ([-2.0, -1.9], [2.3, 2.1], [31, 37])):
        coarse = resid(x_min, x_max, nodes, 2e-3)
        fine = resid(x_min, x_max, [2 * n - 1 for n in nodes], 1e-3)
        assert coarse[1] / fine[1] == pytest.approx(4.0, abs=1.0)


def precision_of(num, den):
    """Symmetrized num @ inv(den), over stacks too, with plain numpy."""
    q = np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))
    return 0.5 * (q + np.swapaxes(q, -1, -2))


def gradient_amplitude(c, eps):
    """Coefficient a1 of the affine amplitude amp0 + a1.(x - mean) that the
    dipole stands for: -dipole . grad N = (Q dipole / eps).(x - mean) N."""
    if c.dipole is None:
        return np.zeros_like(c.mean)
    return precision_of(c.num, c.den) @ c.dipole / eps


def reference_mixture(comps, eps, pts):
    """Values and raw first moment of a packet list, one packet at a time
    with plain numpy."""
    vals, moment = np.zeros(len(pts)), np.zeros(pts.shape[1])
    for c in comps:
        q = precision_of(c.num, c.den)
        n = len(c.mean)
        xi = pts - c.mean
        amp = c.amp0 + xi @ gradient_amplitude(c, eps)
        norm = np.sqrt(np.linalg.det(q) / (2 * np.pi * eps) ** n)
        quad = np.einsum("ij,jk,ik->i", xi, q, xi)
        vals += c.weight * norm * amp * np.exp(-quad / (2 * eps))
        shift = 0.0 if c.dipole is None else c.dipole
        moment += c.weight * (c.amp0 * c.mean + shift)
    return vals, moment


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixture_eval_and_moment_match_per_component_reference(dim):
    rng = np.random.default_rng(70 + dim)
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=-0.5 * np.eye(dim), diffusion=0.2, coupling=1.0)
    comps = []
    for k in range(6):
        a = rng.standard_normal((dim, dim))
        den = rng.uniform(0.5, 2.0) * np.eye(dim)
        comps.append(GaussianPacket(
            mean=rng.uniform(-1, 1, dim), num=(a @ a.T + np.eye(dim)) @ den, den=den,
            weight=rng.uniform(0.1, 1.0), amp0=rng.uniform(0.5, 1.5),
            dipole=None if k % 3 == 0 else rng.standard_normal(dim)))
    mix = GaussianMixture(comps)
    pts = rng.standard_normal((500, dim))
    vals, moment = reference_mixture(comps, p.diffusion, pts)
    for got, want in ((mix.eval(p, pts), vals), (mix.first_moment(), moment)):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    # a packet evaluates as the mixture of one, and the stacked flow moves
    # each component exactly as it would move alone
    ctx = KernelContext(p, matriciant(p, 0.7, 0.0), x_start=moment, x_end=np.ones(dim))
    moved = propagate_packet(mix, ctx).components
    for c, c_t in zip(comps, moved):
        assert np.array_equal(c.eval(p, pts), GaussianMixture([c]).eval(p, pts))
        alone = propagate_packet(GaussianMixture([c]), ctx).components[0]
        for f in ("mean", "den", "dipole"):
            assert np.array_equal(getattr(alone, f), getattr(c_t, f))
    # components come back as the packets that went in, with num = I and
    # den the covariance, and rebuild the same mixture
    for a, b in zip(comps, mix.components):
        for f in ("mean", "weight", "amp0"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.dipole is None) == (b.dipole is None)
        assert np.array_equal(b.num, np.eye(dim))
        cov = np.linalg.inv(precision_of(a.num, a.den))
        assert np.max(np.abs(b.den - cov)) <= 1e-13 * np.max(np.abs(cov))
    assert np.array_equal(GaussianMixture(mix.components).cov, mix.cov)


def component_terms(comps, eps, pts):
    """(K, points) values of each packet alone, by the direct formula."""
    terms = []
    for c in comps:
        q = precision_of(c.num, c.den)
        xi = pts - c.mean
        amp = c.amp0 + xi @ gradient_amplitude(c, eps)
        norm = np.sqrt(np.linalg.det(q) / (2 * np.pi * eps) ** len(c.mean))
        quad = np.einsum("ij,jk,ik->i", xi, q, xi)
        terms.append(c.weight * norm * amp * np.exp(-quad / (2 * eps)))
    return np.array(terms)


def assert_eval_matches_terms(comps, eps, pts):
    # relative to the summed magnitudes of the terms, so that amplitudes
    # crossing zero and far tails are judged on the same footing
    dim = len(comps[0].mean)
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=eps)
    terms = component_terms(comps, eps, pts)
    err = np.abs(GaussianMixture(comps).eval(p, pts) - terms.sum(axis=0))
    assert np.max(err / np.abs(terms).sum(axis=0)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_comp", [1, 4, 16])
@pytest.mark.parametrize("with_dipole", [False, True])
def test_mixture_eval_matches_direct_formula(dim, n_comp, with_dipole):
    rng = np.random.default_rng(100 * dim + n_comp + 7 * with_dipole)
    comps = []
    for _ in range(n_comp):
        a = rng.standard_normal((dim, dim))
        scale = rng.uniform(0.5, 2.0)
        comps.append(GaussianPacket(
            mean=rng.uniform(-1, 1, dim), num=scale * (a @ a.T + 0.5 * np.eye(dim)),
            den=scale * np.eye(dim), weight=rng.uniform(0.1, 1.0),
            amp0=rng.uniform(-0.5, 1.5),
            dipole=rng.standard_normal(dim) if with_dipole else None))
    pts = np.concatenate([rng.standard_normal((400, dim))]
                         + [c.mean + 0.2 * rng.standard_normal((20, dim)) for c in comps])
    # a zero weight, whose log scale takes a floor in place of log 0, and a
    # negative one, whose sign applies after the exp
    comps += [replace(comps[0], weight=0.0),
              replace(comps[-1], mean=comps[-1].mean + 0.3, weight=-0.4)]
    assert_eval_matches_terms(comps, 0.15, pts)


def test_means_too_far_apart_to_group_evaluate_with_no_overflow():
    # the squared distance between means at -1e200 and 1e200 overflows to
    # inf, an error under the suite's filter; inf is "not near", so each
    # component still takes a center of its own
    params, _ = checks.reference_case()
    mix = GaussianMixture([GaussianPacket(mean=[m], num=[[1.0]], den=[[1.0]], weight=0.5)
                           for m in (1e200, -1e200)])
    vals = mix.eval(params, np.array([0.0, 1e200, -1e200]))
    assert vals[0] == 0.0
    np.testing.assert_allclose(vals[1:], 0.5 / np.sqrt(2 * np.pi * 0.1), rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sep", [100.0, 1000.0])
def test_mixture_eval_keeps_far_apart_components_exact(dim, sep):
    # one center for means at +-sep would leave exponent terms of about
    # sep^2 |Q| / 2 eps = 1e5 (sep 100) to cancel, losing 1e-11; each
    # component must get a center of its own
    rng = np.random.default_rng(int(sep) + dim)
    eps = 0.1
    comps = [GaussianPacket(mean=np.full(dim, s * sep), num=2.0 * np.eye(dim),
                            den=np.eye(dim), weight=0.5, dipole=dipole)
             for s in (-1.0, 1.0) for dipole in (None, rng.standard_normal(dim))]
    pts = np.concatenate([c.mean + np.sqrt(eps / 2.0) * rng.standard_normal((100, dim))
                          for c in comps])
    assert_eval_matches_terms(comps, eps, pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixture_eval_in_blocks_equals_one_block(dim, monkeypatch):
    # every point is evaluated on its own row, so splitting the points into
    # blocks must not change a single bit
    rng = np.random.default_rng(90 + dim)
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=0.3)
    comps = []
    for k in range(5):
        a = rng.standard_normal((dim, dim))
        comps.append(GaussianPacket(
            mean=rng.uniform(-1, 1, dim), num=a @ a.T + np.eye(dim), den=np.eye(dim),
            weight=rng.uniform(0.1, 1.0), amp0=rng.uniform(0.5, 1.5),
            dipole=None if k == 0 else rng.standard_normal(dim)))
    mix = GaussianMixture(comps)
    pts = rng.standard_normal((503, dim))
    whole = mix.eval(p, pts)
    # 5 components x dim coordinates x b points: near-equal blocks of about
    # b points; every block keeps at least two rows, so the stacked matmul
    # takes the same matrix-matrix path as the single block (a one-row
    # block goes through a matrix-vector product, about 1e-14 off)
    for b in (4, 7, 250):
        monkeypatch.setattr(model, "BLOCK_ENTRIES", 5 * dim * b)
        assert np.array_equal(mix.eval(p, pts), whole)


def dipole_mixture(rng, dim, n_comp=5):
    comps = []
    for k in range(n_comp):
        a = rng.standard_normal((dim, dim))
        den = rng.uniform(0.5, 2.0) * np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        comps.append(GaussianPacket(
            mean=rng.uniform(-1, 1, dim), num=(a @ a.T + np.eye(dim)) @ den, den=den,
            weight=rng.uniform(0.1, 1.0), amp0=rng.uniform(0.5, 1.5),
            dipole=None if k == 0 else rng.standard_normal(dim)))
    return GaussianMixture(comps)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dipole_moves_as_the_gradient_amplitude_law(dim):
    # the gradient amplitude a1 = Q dipole / eps moved as
    # a1' = Q_t dd Q_s^{-1} a1 is the same field as the dipole moved by dd,
    # forward and back along the reversed context
    rng = np.random.default_rng(40 + dim)
    lam = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    p = ModelParams(drift=lam, coupling_state=np.zeros((dim, dim)),
                    coupling_mean=-0.4 * np.eye(dim), diffusion=0.25, coupling=1.0)
    mix = dipole_mixture(rng, dim)
    ctx = KernelContext(p, matriciant(p, 0.8, 0.1), x_start=rng.uniform(-1, 1, dim),
                        x_end=rng.uniform(-1, 1, dim))
    eps = p.diffusion
    fwd = propagate_packet(mix, ctx)
    for src, move in ((mix, ctx), (fwd, ctx.reversed())):
        out = propagate_packet(src, move)
        q_s, q_t = np.linalg.inv(src.cov), np.linalg.inv(out.cov)
        a1_s = (q_s @ src.dipole[..., None])[..., 0] / eps
        want = (q_t @ move.m.dd @ np.linalg.solve(q_s, a1_s[..., None]))[..., 0]
        got = (q_t @ out.dipole[..., None])[..., 0] / eps
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
def test_dipole_first_moment_is_the_moment_of_the_field(dim):
    rng = np.random.default_rng(60 + dim)
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=0.2)
    mix = dipole_mixture(rng, dim)
    nodes = 1601 if dim == 1 else 321
    sampled = SampledDensity.from_callable(lambda x: mix.eval(p, x), [-6.0] * dim,
                                           [6.0] * dim, [nodes] * dim)
    np.testing.assert_allclose(mix.first_moment(), sampled.first_moment(), rtol=0, atol=1e-10)
