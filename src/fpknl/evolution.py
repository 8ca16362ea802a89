"""Evolution operator of the mean-coupled equation and its left inverse.

A plan is a directed ``KernelContext``: the matriciant from s to t and the
moment-frame anchors x_start and x_end at both ends, computed up front
from the input's initial moment; kernels and packet propagation consume
it read-only.  Gaussian mixtures evolve in closed form; sampled densities
go through trapezoid quadrature of the kernel.

The left inverse on the analytic pathway is exact backward block algebra
along ``plan.reversed()``.  Its denominator den = dn @ num + dd @ den is a
sum whose rounding is at most eps times the sum of the magnitudes of its
terms; where that bound, relative to the result, exceeds INVERSE_PRECISION
the backward flow has cancelled the initial data and IllPosedInverseError
names |t - s| and the precision kept.  On sampled densities the literal
backward-kernel integral diverges for every forward image (the growing
exponent always wins), so the inverse is realized as a truncated-SVD
least-squares solve of the forward quadrature system, with lstsq's rule:
singular values at or below rcond * sigma_max are dropped, rcond being
INVERSE_RCOND.  The quadrature matrix is numerically low-rank, so the SVD
comes from a randomized range finder: a sketch of SKETCH_START Gaussian
columns from a local generator seeded with SKETCH_SEED (repeatable, and
the global numpy state is untouched), doubled until the sketch's smallest
singular value lies below SKETCH_STOP * rcond times its largest, so that
every singular value above the cutoff is captured.  A near-full-rank
system, one that would need a sketch of more than N/3 columns, is solved
by np.linalg.lstsq instead.  Either way the solution is checked against
the full matrix: inputs that no initial data can explain raise
IllPosedInverseError, naming the rank kept, the cutoff, the forward
residual and the factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import IllPosedInverseError, NormalizationError, TruncationError
from .kernels import KernelContext, kernel_context, kernel_matrix
from .model import BLOCK_ENTRIES, ModelParams, SampledDensity, _vector
from .packets import GaussianMixture, propagate_packet

MASS_TOL_ANALYTIC = 1e-10
MASS_TOL_QUADRATURE = 1e-6
EDGE_DECAY_TOL = 1e-12
INVERSE_RCOND = 1e-8
INVERSE_PRECISION = 1e-10
SKETCH_START = 128
SKETCH_STOP = 1e-3
SKETCH_SEED = 20110601


def plan_for(params: ModelParams, s: float, t: float,
             initial: GaussianMixture | SampledDensity,
             moment_override=None) -> KernelContext:
    """Build a plan from the initial data's first moment (or an override).

    The trajectory must exist before any kernel evaluation; for zero-mass
    fields the moment is not defined by the data (DegenerateMomentError)
    and the override is mandatory.
    """
    if moment_override is not None:
        x0 = _vector(moment_override, params.dim, "moment_override")
    else:
        x0 = initial.first_moment(params, normalized=True)
    return kernel_context(params, t, s, x0)


def _check_mass(mass: float, tol: float) -> None:
    if abs(mass - 1.0) > tol:
        raise NormalizationError(
            f"input mass {mass:.12g} is not 1 within {tol:.0e}; only "
            "evolve_analytic takes raw fields (require_normalized=False)"
        )


def evolve_analytic(mix: GaussianMixture, plan: KernelContext,
                    require_normalized: bool = True) -> GaussianMixture:
    """Propagate all components at once in closed form around the shared
    trajectory; a raw field (require_normalized=False) may carry any mass."""
    if require_normalized:
        _check_mass(mix.total_mass(), MASS_TOL_ANALYTIC)
    if plan.t == plan.s:
        return mix.copy()
    return propagate_packet(mix, plan)


def evolve_quadrature(gamma: SampledDensity, plan: KernelContext) -> SampledDensity:
    """Trapezoid quadrature of the evolution kernel on the input grid."""
    edge = gamma.edge_max()
    if edge > EDGE_DECAY_TOL:
        raise TruncationError(
            f"input does not decay at the grid edges (max edge value {edge:.3e})"
        )
    _check_mass(gamma.total_mass(), MASS_TOL_QUADRATURE)
    if plan.t == plan.s:
        return gamma.copy()
    pts = gamma.points()
    weighted = (gamma.weights() * gamma.values).ravel()
    n_pts = pts.shape[0]
    out = np.empty(n_pts)
    # bound the dense kernel block to BLOCK_ENTRIES entries at a time
    chunk = max(1, BLOCK_ENTRIES // n_pts)
    for i0 in range(0, n_pts, chunk):
        block = kernel_matrix(plan, pts[i0:i0 + chunk], pts)
        out[i0:i0 + chunk] = block @ weighted
    return SampledDensity(gamma.x_min.copy(), gamma.dx.copy(),
                          out.reshape(gamma.values.shape))


def forward_quadrature_matrix(gamma: SampledDensity,
                              plan: KernelContext) -> np.ndarray:
    """Matrix A with (A @ values) = forward quadrature on the input grid."""
    pts = gamma.points()
    a = kernel_matrix(plan, pts, pts)
    a *= gamma.weights().ravel()
    # the kernel tails underflow to subnormals, which halve the speed of
    # every product with A; below the smallest normal double they are zero
    np.putmask(a, a < np.finfo(a.dtype).tiny, 0.0)
    return a


def _inverse_analytic(u: GaussianMixture, plan: KernelContext) -> GaussianMixture:
    back = plan.reversed()
    m = back.m
    # den = dn @ num + dd @ den rounds by at most eps times the magnitudes
    # of its terms; relative to den that bounds the precision it keeps
    terms = np.abs(m.dn) @ np.abs(u.num) + np.abs(m.dd) @ np.abs(u.den)
    lost = float(np.max(np.finfo(float).eps * terms.max(axis=(-2, -1))
                        / np.abs(m.dn @ u.num + m.dd @ u.den).max(axis=(-2, -1))))
    if lost > INVERSE_PRECISION:
        raise IllPosedInverseError(
            f"analytic inverse over |t - s| = {abs(plan.t - plan.s):.6g}: the "
            f"backward denominator is precise only to {lost:.1e} relative (limit "
            f"{INVERSE_PRECISION:.0e}); rounding swamps the initial data"
        )
    out = propagate_packet(u, back)
    out.precision(density_valid=True)  # backward blocks must keep a valid shape
    return out


def _sketch_solve(a: np.ndarray, rhs: np.ndarray, rcond: float):
    """Truncated-SVD least squares with lstsq's cutoff rule, through the
    randomized range finder of the module docstring (Halko, Martinsson &
    Tropp, SIAM Review 2011) or, for a near-full-rank A, lstsq itself.

    Returns (solution, rank kept, sigma cutoff, factorization name).
    """
    n = a.shape[1]
    # the first sketch runs on any system at least twice its size; up to
    # N/3 columns the sketch beats a dense factorization (single-threaded
    # BLAS: k = 256 at N = 801 took 100 ms against lstsq's 180 ms), past
    # that it loses (k = 256 at N = 401: 58 ms against 24-32 ms)
    widest = max(n // 3, SKETCH_START if n >= 2 * SKETCH_START else 0)
    rng = np.random.default_rng(SKETCH_SEED)
    y = np.empty((a.shape[0], 0))
    k = SKETCH_START
    while k <= widest:
        y = np.hstack([y, a @ rng.standard_normal((n, k - y.shape[1]))])
        q, r = np.linalg.qr(y)
        sy = np.linalg.svd(r, compute_uv=False)
        if sy[-1] <= SKETCH_STOP * rcond * sy[0]:
            ub, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
            cutoff = rcond * s[0]
            keep = s > cutoff
            sol = vt[keep].T @ ((ub[:, keep].T @ (q.T @ rhs)) / s[keep])
            return sol, int(keep.sum()), cutoff, f"randomized sketch k={k}"
        k *= 2
    sol, _, rank, s = np.linalg.lstsq(a, rhs, rcond=rcond)
    return sol, int(rank), rcond * s[0], "lstsq"


def _inverse_sampled(u: SampledDensity, plan: KernelContext) -> SampledDensity:
    a = forward_quadrature_matrix(u, plan)
    rhs = u.values.ravel()
    sol, rank, cutoff, how = _sketch_solve(a, rhs, INVERSE_RCOND)
    resid = float(np.max(np.abs(a @ sol - rhs)))
    limit = 1e-6 * max(1.0, float(np.max(np.abs(rhs))))
    if resid > limit:
        raise IllPosedInverseError(
            f"no initial data on this grid reproduces the samples "
            f"(forward residual {resid:.3e} > {limit:.1e}; rank {rank} of "
            f"{rhs.size} kept above the sigma cutoff {cutoff:.3e} = rcond "
            f"{INVERSE_RCOND:.1e} x sigma_max, factorization {how}); backward "
            "diffusion amplifies content the forward flow cannot produce"
        )
    return SampledDensity(u.x_min.copy(), u.dx.copy(),
                          sol.reshape(u.values.shape))


def inverse_evolve(u: GaussianMixture | SampledDensity, plan: KernelContext):
    """Left inverse of the evolution operator: recovers the initial data.

    Analytic pathway: exact backward block algebra on all components at
    once, along ``plan.reversed()``.
    Sampled pathway: truncated-SVD solve of the forward quadrature system
    (the literal backward-kernel integral diverges for forward images);
    singular values at or below INVERSE_RCOND * sigma_max are dropped.
    """
    if plan.t == plan.s:
        return u.copy()
    solve = _inverse_sampled if isinstance(u, SampledDensity) else _inverse_analytic
    return solve(u, plan)
