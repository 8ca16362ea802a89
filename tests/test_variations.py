import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fpknl import (FocalPointError, InputError, InvalidCovarianceError,
                   ModelParams, fraction, matriciant, matriciant_rk4,
                   propagate_pair, variations)
from fpknl.variations import THETA_13, pair_generator, require_spd

E = np.e


def params_1d(lam, eps=1.0):
    return ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                       coupling_mean=[[0.0]], diffusion=eps)


def params_nd(lam):
    n = lam.shape[0]
    return ModelParams(drift=lam, coupling_state=np.zeros((n, n)),
                       coupling_mean=np.zeros((n, n)), diffusion=1.0)


def test_identity_at_coincident_times():
    m = matriciant(params_1d(0.7), 2.0, 2.0)
    assert m.nn[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert m.dd[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert m.dn[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_coincident_times_take_no_exponential(monkeypatch):
    # every linsym_operator caller builds matriciant(params, s, s) only to
    # read its identity blocks; they need no expm
    def no_expm(a):
        raise AssertionError("expm called at t == s")

    monkeypatch.setattr(variations, "expm", no_expm)
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        p = ModelParams(*(rng.normal(size=(n, n)) for _ in range(3)), 0.4, 1.0)
        m = matriciant(p, 0.6, 0.6)
        assert (m.t, m.s) == (0.6, 0.6)
        assert np.array_equal(m.dd, np.eye(n)) and np.array_equal(m.w, np.zeros((n, n)))


@pytest.mark.parametrize("t, s", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                  (1.0, -np.inf), (np.inf, np.inf)])
def test_non_finite_times_are_input_errors(t, s):
    # matriciant(p, nan, 0) used to return NaN blocks, and kernel_context
    # blamed an overflowing moment trajectory that never happened
    p = params_1d(0.7)
    name = "t" if not np.isfinite(t) else "s"
    with pytest.raises(InputError, match=rf"time {name} must be finite"):
        matriciant(p, t, s)


def test_zero_drift_blocks():
    m = matriciant(params_1d(0.0), 1.25, 0.0)
    assert m.nn[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert m.dd[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert m.dn[0, 0] == pytest.approx(2.5, abs=1e-13)


def test_unit_drift_blocks_frozen():
    m = matriciant(params_1d(1.0), 1.0, 0.0)
    assert m.nn[0, 0] == pytest.approx(E, abs=1e-13)
    assert m.dd[0, 0] == pytest.approx(1.0 / E, abs=1e-14)
    assert m.dn[0, 0] == pytest.approx(E - 1.0 / E, abs=1e-13)


def test_blocks_match_closed_form_exponentials():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        lam = rng.uniform(-2.0, 2.0, size=(n, n))
        p = params_nd(lam)
        tau = 0.8
        m = matriciant(p, tau, 0.0)
        np.testing.assert_allclose(m.nn, expm(lam.T * tau), atol=1e-12)
        np.testing.assert_allclose(m.dd, expm(-lam * tau), atol=1e-12)


def test_rk4_oracle_agrees_with_exponential():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lam = rng.uniform(-2.0, 2.0, size=(2, 2))
        p = params_nd(lam)
        a = matriciant(p, 0.9, -0.3)
        b = matriciant_rk4(p, 0.9, -0.3, steps=2000)
        for blk in ("nn", "dn", "dd"):
            np.testing.assert_allclose(getattr(a, blk), getattr(b, blk),
                                       atol=1e-10)


def single_exponential(p, tau):
    """dd and w of the pair system's fundamental matrix from one expm."""
    m = expm(tau * pair_generator(p))
    n = p.dim
    return m[n:, n:], np.linalg.solve(m[:n, :n].T, m[n:, :n].T).T


def _blocks_written_out(p, t, s):
    """dd, w and the doubling count k as matriciant's docstring states them:
    one expm of the pair generator [[L^T, 0], [2I, -L]] over (t - s) / 2^k,
    k the least that brings its 1-norm to at most THETA_13, the blocks
    dd and w = dn inv(nn) of that chunk, then k doublings
    dd <- dd^2, w <- w + dd w dd^T."""
    n = p.dim
    lam = p.drift + p.coupling * p.coupling_state
    a = np.block([[lam.T, np.zeros((n, n))], [2.0 * np.eye(n), -lam]])
    tau, k = t - s, 0
    while abs(tau) / 2 ** k * np.abs(a).sum(axis=0).max() > THETA_13:
        k += 1
    m = expm(tau / 2 ** k * a)
    dd, w = m[n:, n:], np.linalg.solve(m[:n, :n].T, m[n:, :n].T).T
    for _ in range(k):
        dd, w = dd @ dd, w + dd @ w @ dd.T
    return dd, w, k


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tau, doubled", [(0.7, False), (-0.45, False), (23.0, True), (-9.0, True)])
def test_matriciant_has_the_bits_of_its_exponential(n, tau, doubled):
    # every plan, and through it the analytic goldens, rests on these bits:
    # a change around the expm (its chunking, the blocks it reads, the
    # doubling law) shows here before it shows in a golden file
    rng = np.random.default_rng(50 + n)
    lam = np.diag(rng.uniform(0.4, 1.2, n)) + 0.2 * np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    p = ModelParams(drift=lam, coupling_state=0.3 * rng.uniform(-1.0, 1.0, (n, n)),
                    coupling_mean=-0.4 * np.eye(n), diffusion=0.3, coupling=0.5)
    dd, w, k = _blocks_written_out(p, 1.5 + tau, 1.5)
    assert (k > 0) == doubled
    m = matriciant(p, 1.5 + tau, 1.5)
    assert np.array_equal(m.dd, dd) and np.array_equal(m.w, w)


@pytest.mark.parametrize("n", [2, 3])
def test_doubled_blocks_match_one_exponential(n):
    # where |t - s| times the generator's 1-norm exceeds THETA_13 (here at
    # least twice), matriciant halves the horizon k times and doubles back;
    # on non-normal drifts (a strong upper-triangular coupling) its dd and w
    # must match one expm over the whole horizon, forward and backward
    rng = np.random.default_rng(40 + n)
    worst = 0.0
    for _ in range(10):
        lam = np.diag(rng.uniform(0.3, 1.5, n)) + np.triu(rng.uniform(-3.0, 3.0, (n, n)), 1)
        p = params_nd(lam)
        for tau in rng.uniform(4.0, 8.0) * np.array([1.0, -1.0]):
            assert abs(tau) * np.linalg.norm(pair_generator(p), 1) > 2 * THETA_13
            m = matriciant(p, tau, 0.0)
            for got, want in zip((m.dd, m.w), single_exponential(p, tau)):
                worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    # 5.1e-13 at most over these draws, where the backward dd reaches e^12
    assert worst < 1e-11


@settings(max_examples=40)
@given(lam=st.floats(min_value=-2.0, max_value=2.0),
       t=st.floats(min_value=-1.5, max_value=1.5),
       s=st.floats(min_value=-1.5, max_value=1.5),
       tau=st.floats(min_value=-1.5, max_value=1.5))
# blocks up to e^6 round like expm, about 1e-12 relative: at lam -2 the nn
# product is 148.41315910270177 against e^5 = 148.4131591025766, and at
# lam 2 the dd product the same
@example(lam=-2.0, t=-1.5, s=0.625, tau=1.0)
@example(lam=2.0, t=-1.5, s=0.625, tau=1.0)
# the mixed identity's two terms cancel: -8650.03 + 8650.03 rounds to
# 1.89e-10 against an exact 0, so it is measured against their size
@example(lam=1.75, t=-1.5, s=1.25, tau=-1.5)
def test_composition_identities_1d(lam, t, s, tau):
    p = params_1d(lam)
    m_ts, m_st, m_tt = (matriciant(p, t, s), matriciant(p, s, tau),
                        matriciant(p, t, tau))

    def close(want):
        return pytest.approx(want, rel=1e-12, abs=1e-10)

    assert m_ts.nn[0, 0] * m_st.nn[0, 0] == close(m_tt.nn[0, 0])
    assert m_ts.dd[0, 0] * m_st.dd[0, 0] == close(m_tt.dd[0, 0])
    a, b = m_st.nn[0, 0] * m_ts.dn[0, 0], m_st.dn[0, 0] * m_ts.dd[0, 0]
    assert abs(a + b - m_tt.dn[0, 0]) <= max(1e-12 * (abs(a) + abs(b)), 1e-10)


def test_composition_full_blocks_nd():
    rng = np.random.default_rng(3)
    lam = rng.uniform(-1.5, 1.5, size=(3, 3))
    p = params_nd(lam)
    t, s, tau = 0.9, 0.2, -0.5

    def full(m):
        n = 3
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = m.nn
        out[n:, :n] = m.dn
        out[n:, n:] = m.dd
        return out

    np.testing.assert_allclose(full(matriciant(p, t, s)) @ full(matriciant(p, s, tau)),
                               full(matriciant(p, t, tau)), atol=1e-11)


@given(lam=st.floats(min_value=-2.0, max_value=2.0),
       tau=st.floats(min_value=1e-3, max_value=3.0))
def test_mixing_block_positive_forward_1d(lam, tau):
    m = matriciant(params_1d(lam), tau, 0.0)
    assert m.dn[0, 0] > 0.0


# ----------------------------------------------------------------- fraction

def test_fraction_identity_at_start():
    m = matriciant(params_1d(0.9), 0.0, 0.0)
    np.testing.assert_allclose(fraction(*propagate_pair(m, [[1.0]], [[1.0]])), [[1.0]])


def test_fraction_heat_spread():
    # zero drift, unit seeds: den grows to 3, so the factor drops to 1/3
    m = matriciant(params_1d(0.0), 1.0, 0.0)
    q = fraction(*propagate_pair(m, [[1.0]], [[1.0]]))
    assert q[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_raw_fraction_solves_quadratic_flow():
    rng = np.random.default_rng(5)
    lam = rng.uniform(-1.0, 1.0, size=(2, 2))
    p = params_nd(lam)
    a = rng.uniform(-1, 1, size=(2, 2))
    num0 = a @ a.T + 0.4 * np.eye(2)
    b = rng.uniform(-1, 1, size=(2, 2))
    den0 = b @ b.T + 0.4 * np.eye(2)
    h = 1e-5

    def raw_fraction(t):
        # num @ inv(den) as propagated, unsymmetrized
        num, den = propagate_pair(matriciant(p, t, 0.0), num0, den0)
        return num @ np.linalg.inv(den)

    for t in (0.2, 0.6):
        q, qp, qm = raw_fraction(t), raw_fraction(t + h), raw_fraction(t - h)
        res = (qp - qm) / (2 * h) + 2 * q @ q - lam.T @ q - q @ lam
        assert np.max(np.abs(res)) < 1e-8


def test_focal_point_raises():
    # zero drift: den(t) = 2 t num0 + den0 crosses zero at t = 0.5
    m = matriciant(params_1d(0.0), 0.5, 0.0)
    with pytest.raises(FocalPointError):
        fraction(*propagate_pair(m, [[1.0]], [[-1.0]]))


def test_nonsymmetric_seed_rejected():
    # a seed whose fraction is not symmetric is no density's precision
    m = matriciant(params_nd(np.zeros((2, 2))), 1.0, 0.0)
    with pytest.raises(InvalidCovarianceError, match="not symmetric"):
        fraction(*propagate_pair(m, [[1.0, 0.5], [0.0, 1.0]], np.eye(2)))


def test_density_valid_rejects_indefinite():
    m = matriciant(params_1d(0.0), 0.1, 0.0)
    with pytest.raises(InvalidCovarianceError):
        fraction(*propagate_pair(m, [[-1.0]], [[1.0]]))


def test_fraction_symmetrizes_result():
    # num = Q den for a symmetric Q: the raw fraction is symmetric only up
    # to rounding, the returned one exactly
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, size=(3, 3))
    sym = a @ a.T + 0.5 * np.eye(3)
    den = rng.uniform(-1, 1, size=(3, 3)) + 3.0 * np.eye(3)
    q = fraction(sym @ den, den)
    assert np.array_equal(q, q.T)
    np.testing.assert_allclose(q, sym, rtol=1e-13)


# --------------------------------------------------------- stacked fraction

def valid_stack(rng, k, n):
    """k pairs (num, den) whose fractions are symmetric positive definite."""
    a = rng.standard_normal((k, n, n))
    q = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(n)
    den = rng.standard_normal((k, n, n)) + 3.0 * np.eye(n)
    return q @ den, den


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nested, fortran", [(False, True), (True, True), (False, False)])
def test_stacked_fraction_equals_each_slice_bit_for_bit(n, nested, fortran):
    # any (..., n, n) stack, in either memory order: a (12,) or a (2, 6) one
    num, den = valid_stack(np.random.default_rng(30 + n), 12, n)
    alone = np.stack([fraction(a, b) for a, b in zip(num, den)])
    if fortran:
        num, den = np.asfortranarray(num), np.asfortranarray(den)
    if nested:
        num, den = num.reshape(2, 6, n, n), den.reshape(2, 6, n, n)
    assert np.array_equal(fraction(num, den).reshape(12, n, n), alone)


def test_stacked_fraction_names_the_failing_component():
    num, den = valid_stack(np.random.default_rng(8), 5, 2)
    singular = den.copy()
    singular[3] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(FocalPointError, match=r"factor \(component 3\) singular"):
        fraction(num, singular)
    indefinite = num.copy()
    indefinite[2] = np.diag([1.0, -1.0]) @ den[2]
    with pytest.raises(InvalidCovarianceError,
                       match=r"factor \(component 2\) is not positive definite"):
        fraction(indefinite, den)
    skew = num.copy()
    skew[4] = np.array([[1.0, 0.5], [0.0, 1.0]]) @ den[4]
    with pytest.raises(InvalidCovarianceError, match=r"\(component 4\) is not symmetric"):
        fraction(skew, den)
    # a single matrix keeps the message without an index
    with pytest.raises(FocalPointError, match=r"^denominator factor singular"):
        fraction(num[3], singular[3])


@pytest.mark.parametrize("bad, where", [
    (np.array([[np.nan]]), ""),
    (np.array([[np.inf]]), ""),
    (np.stack([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)]),
     " (component 1)"),
    # an infinity on one side of the diagonal only
    (np.array([[1.0, np.inf], [0.0, 1.0]]), ""),
    (np.stack([np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]])]), " (component 1)"),
])
def test_require_spd_rejects_non_finite_matrices(bad, where):
    # numpy's Cholesky returns nan for nan input without an error, so these
    # used to pass as symmetric positive definite
    message = rf"^recovered covariance{re.escape(where)} is not finite"
    with pytest.raises(InvalidCovarianceError, match=message):
        require_spd(bad, "recovered covariance", InvalidCovarianceError)


@pytest.mark.parametrize("a, verdict", [
    (np.array([[2.0, 0.3], [0.3, 1.0]]), None),
    (np.array([[2.0, 0.3 + 1e-9], [0.3, 1.0]]), None),  # 5e-10 of the largest entry
    (np.array([[2.0, 0.3 + 5e-9], [0.3, 1.0]]), "not symmetric"),
    (np.array([[2.0, 3.0], [3.0, 1.0]]), "not positive definite"),
    (np.array([[1e-3]]), None),
    (np.array([[-1e-3]]), "not positive definite"),
    (np.array([[0.5, 0.1, 0.0], [0.1, 0.4, -0.2], [0.0, -0.2, np.nan]]), "not finite"),
])
def test_one_matrix_gets_the_verdict_and_symmetric_part_of_a_stack_of_one(a, verdict):
    # a single matrix is checked on its entries as floats, a stack by numpy
    # reductions: both give one verdict, and one symmetric part
    outcomes = []
    for m in (a, a[None]):
        try:
            outcomes.append(require_spd(m, "spread", InvalidCovarianceError).reshape(a.shape))
        except InvalidCovarianceError as exc:
            outcomes.append(str(exc).replace(" (component 0)", ""))
    if verdict is None:
        assert np.array_equal(outcomes[0], outcomes[1])
        assert np.array_equal(outcomes[0], 0.5 * (a + a.T))
    else:
        assert outcomes[0] == outcomes[1] == f"spread is {verdict}"

