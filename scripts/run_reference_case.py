#!/usr/bin/env python3
"""Run the flagship 1D mean-coupled case through all three pathways.

Evolves the same Gaussian initial density analytically, by kernel
quadrature, and with the self-consistent finite-difference solver, then
prints the cross-pathway errors and writes the fields to CSV.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from fpknl import (FDConfig, SampledDensity, compare, evolve_packet,
                   evolve_quadrature, fd_solve, plan_for)
from fpknl.checks import reference_case
from fpknl.cli import fmt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=1200)
    ap.add_argument("--dt", type=float, default=2e-5)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    params, packet = reference_case()
    cfg = FDConfig(x_min=-6.0, x_max=6.0, nx=args.nx, dt=args.dt,
                   t_end=args.t_end, snapshot_times=(args.t_end,))
    grid = ([cfg.x_min], [cfg.x_max], [cfg.nx])
    gamma = SampledDensity.from_callable(lambda p: packet.eval(params, p), *grid)

    exact_pk = evolve_packet(packet, params, args.t_end, 0.0)
    exact = SampledDensity.from_callable(lambda p: exact_pk.eval(params, p), *grid)

    start = time.perf_counter()
    fd = fd_solve(params, gamma, cfg)
    fd_time = time.perf_counter() - start

    plan = plan_for(params, 0.0, args.t_end, gamma)
    quad = evolve_quadrature(gamma, plan)

    closed = params.moment_trajectory(packet.mean, 0.0).at(fd.times)[:, 0]

    fd_linf = compare(fd.snapshots[0], exact)
    quad_linf = compare(quad, exact)
    print(f"grid nx={args.nx} dt={args.dt:g} t_end={args.t_end}")
    print(f"fd vs analytic      L-inf = {fd_linf:.3e}   ({fd_time:.1f}s)")
    print(f"quad vs analytic    L-inf = {quad_linf:.3e}")
    print(f"fd moment deviation       = {np.max(np.abs(fd.moments - closed)):.3e}")
    print(f"fd mass deviation         = {np.max(np.abs(fd.masses - 1.0)):.3e}")
    print(f"quad mass deviation       = {abs(quad.total_mass() - 1.0):.3e}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "reference_fields.csv", "w") as fh:
        fh.write("x,analytic,fd,quadrature\n")
        for xi, a, f, q in zip(gamma.coordinate(0), exact.values, fd.snapshots[0].values,
                               quad.values):
            fh.write(",".join(fmt(v) for v in (xi, a, f, q)) + "\n")
    print(f"fields written to {outdir / 'reference_fields.csv'}")


if __name__ == "__main__":
    main()
