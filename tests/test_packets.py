import numpy as np
import pytest

from fpknl import (GaussianMixture, GaussianPacket, InputError, InvalidCovarianceError,
                   KernelContext, KernelValidityError, ModelParams, NormalizationError,
                   checks, evolve_packet, kernel_context, matriciant, propagate_packet,
                   residual_field, spacetime_samples)
from fpknl import packets


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
    np.testing.assert_allclose(out.num[0], pk.num)
    np.testing.assert_allclose(out.den[0], pk.den)


def test_heat_variance_growth():
    # pure diffusion: variance eps*den/num grows from 0.5 to 1.5 over t=1
    p = params_1d(lam=0.0, eps=0.5)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    out = evolve_packet(pk, p, 1.0, 0.0)
    assert out.precision()[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
    cov = p.diffusion * np.linalg.inv(out.precision()[0])
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
    mass, mean, cov = mix.total_mass(), pk.mean, p.diffusion * np.linalg.inv(mix.precision()[0])
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

    def resid(dx, dt):
        nx = int(round(4.0 / dx)) + 1
        times = 0.4 + dt * np.arange(7)
        fld = spacetime_samples(
            lambda t, pts: evolve_packet(pk, p, t, 0.0).eval(p, pts),
            times, [-1.7], [2.3], [nx])
        return residual_field(p, fld, float(times[0]), dt, [-1.7],
                              [4.0 / (nx - 1)], traj)

    coarse = resid(1e-2, 1e-3)
    fine = resid(5e-3, 5e-4)
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


@pytest.mark.parametrize("fields", [
    {"mean": [0.5], "num": [[1.0, 0.0]], "den": [[1.0]]},
    {"mean": [0.5], "num": np.eye(2), "den": np.eye(2)},
    {"mean": [[0.5, 0.1]], "num": np.eye(2), "den": np.eye(2)},
    {"mean": [0.5, 0.1], "num": np.eye(2), "den": [[1.0]]},
    {"mean": [0.5], "num": [[1.0]], "den": [[1.0]], "amp1": [1.0, 2.0]},
])
def test_packet_rejects_mismatched_shapes(fields):
    # used to surface later as numpy's solve or inhomogeneous-array ValueError
    with pytest.raises(InputError, match="packet needs"):
        GaussianPacket(**fields)


def test_mixture_rejects_components_of_different_dimensions():
    # used to raise InvalidCovarianceError, reported as a numerical error
    one = GaussianPacket([0.5], [[1.0]], [[1.0]])
    two = GaussianPacket([0.5, 0.0], np.eye(2), np.eye(2))
    for comps in ([one, two], []):
        with pytest.raises(InputError, match="one dimension"):
            GaussianMixture(comps)


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

    def resid(dx, dt):
        nx = int(round(4.0 / dx)) + 1
        times = 0.3 + dt * np.arange(5)
        fld = spacetime_samples(
            lambda t, pts: evolve_packet(pk, p, t, 0.0).eval(p, pts),
            times, [-2.0, -2.0], [2.0, 2.0], [nx, nx])
        return residual_field(p, fld, float(times[0]), dt, [-2.0, -2.0],
                              [dx, dx], traj)

    coarse = resid(0.1, 2e-3)
    fine = resid(0.05, 1e-3)
    assert coarse[1] / fine[1] == pytest.approx(4.0, abs=1.0)


def reference_mixture(comps, eps, pts):
    """Values and raw first moment of a packet list, one packet at a time
    with plain numpy."""
    vals, moment = np.zeros(len(pts)), np.zeros(pts.shape[1])
    for c in comps:
        q = np.linalg.solve(c.den.T, c.num.T).T
        q = 0.5 * (q + q.T)
        n = len(c.mean)
        xi = pts - c.mean
        amp = c.amp0 + (0.0 if c.amp1 is None else xi @ c.amp1)
        norm = np.sqrt(np.linalg.det(q) / (2 * np.pi * eps) ** n)
        quad = np.einsum("ij,jk,ik->i", xi, q, xi)
        vals += c.weight * norm * amp * np.exp(-quad / (2 * eps))
        shift = 0.0 if c.amp1 is None else eps * np.linalg.inv(q) @ c.amp1
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
            amp1=None if k % 3 == 0 else rng.standard_normal(dim)))
    mix = GaussianMixture(comps)
    pts = rng.standard_normal((500, dim))
    vals, moment = reference_mixture(comps, p.diffusion, pts)
    for got, want in ((mix.eval(p, pts), vals), (mix.first_moment(p), moment)):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    # a packet evaluates as the mixture of one, and the stacked flow moves
    # each component exactly as it would move alone
    ctx = KernelContext(p, matriciant(p, 0.7, 0.0), x_start=moment, x_end=np.ones(dim))
    moved = propagate_packet(mix, ctx).components
    for c, c_t in zip(comps, moved):
        assert np.array_equal(c.eval(p, pts), GaussianMixture([c]).eval(p, pts))
        alone = propagate_packet(GaussianMixture([c]), ctx).components[0]
        for f in ("mean", "num", "den", "amp1"):
            assert np.array_equal(getattr(alone, f), getattr(c_t, f))
    # components come back as the packets that went in
    for a, b in zip(comps, mix.components):
        for f in ("mean", "num", "den", "weight", "amp0"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.amp1 is None) == (b.amp1 is None)


def component_terms(comps, eps, pts):
    """(K, points) values of each packet alone, by the direct formula."""
    terms = []
    for c in comps:
        q = np.linalg.solve(c.den.T, c.num.T).T
        q = 0.5 * (q + q.T)
        xi = pts - c.mean
        amp = c.amp0 + (0.0 if c.amp1 is None else xi @ c.amp1)
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
@pytest.mark.parametrize("with_amp1", [False, True])
def test_mixture_eval_matches_direct_formula(dim, n_comp, with_amp1):
    rng = np.random.default_rng(100 * dim + n_comp + 7 * with_amp1)
    comps = []
    for _ in range(n_comp):
        a = rng.standard_normal((dim, dim))
        scale = rng.uniform(0.5, 2.0)
        comps.append(GaussianPacket(
            mean=rng.uniform(-1, 1, dim), num=scale * (a @ a.T + 0.5 * np.eye(dim)),
            den=scale * np.eye(dim), weight=rng.uniform(0.1, 1.0),
            amp0=rng.uniform(-0.5, 1.5),
            amp1=rng.standard_normal(dim) if with_amp1 else None))
    pts = np.concatenate([rng.standard_normal((400, dim))]
                         + [c.mean + 0.2 * rng.standard_normal((20, dim)) for c in comps])
    assert_eval_matches_terms(comps, 0.15, pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sep", [100.0, 1000.0])
def test_mixture_eval_keeps_far_apart_components_exact(dim, sep):
    # one center for means at +-sep would leave exponent terms of about
    # sep^2 |Q| / 2 eps = 1e5 (sep 100) to cancel, losing 1e-11; each
    # component must get a center of its own
    rng = np.random.default_rng(int(sep) + dim)
    eps = 0.1
    comps = [GaussianPacket(mean=np.full(dim, s * sep), num=2.0 * np.eye(dim),
                            den=np.eye(dim), weight=0.5, amp1=amp1)
             for s in (-1.0, 1.0) for amp1 in (None, rng.standard_normal(dim))]
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
            amp1=None if k == 0 else rng.standard_normal(dim)))
    mix = GaussianMixture(comps)
    pts = rng.standard_normal((503, dim))
    whole = mix.eval(p, pts)
    # 5 components x dim coordinates x b points: near-equal blocks of about
    # b points; every block keeps at least two rows, so the stacked matmul
    # takes the same matrix-matrix path as the single block (a one-row
    # block goes through a matrix-vector product, about 1e-14 off)
    for b in (4, 7, 250):
        monkeypatch.setattr(packets, "BLOCK_ENTRIES", 5 * dim * b)
        assert np.array_equal(mix.eval(p, pts), whole)
