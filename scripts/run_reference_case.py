#!/usr/bin/env python3
"""Run the flagship 1D mean-coupled case through all three pathways.

Evolves the same Gaussian initial density analytically, by kernel
quadrature, and with the self-consistent finite-difference solver, then
prints the cross-pathway errors and writes the fields to CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from fpknl import compare, evolve_quadrature, plan_for
from fpknl.checks import fd_vs_analytic, reference_case
from fpknl.cli import fmt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=1200)
    ap.add_argument("--dt", type=float, default=2e-5)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    params, packet = reference_case()
    cmp = fd_vs_analytic(params, packet, -6.0, 6.0, args.nx, args.dt, args.t_end)
    fd, gamma, exact = cmp.result, cmp.initial, cmp.exact
    quad = evolve_quadrature(gamma, plan_for(params, 0.0, args.t_end, gamma))
    # every FD step, where the check strides to 400 of them
    closed = params.moment_trajectory(packet.mean, 0.0).at(fd.times)[:, 0]

    quad_linf = compare(quad, exact)
    print(f"grid nx={args.nx} dt={args.dt:g} t_end={args.t_end}")
    print(f"fd vs analytic      L-inf = {cmp.linf:.3e}   ({cmp.runtime:.1f}s)")
    print(f"quad vs analytic    L-inf = {quad_linf:.3e}")
    print(f"fd moment deviation       = {np.max(np.abs(fd.moments - closed)):.3e}")
    print(f"fd mass deviation         = {cmp.mass_dev:.3e}")
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
