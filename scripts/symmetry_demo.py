#!/usr/bin/env python3
"""Build the explicit symmetry transform by all three routes and compare.

The transformed field is a zero-mass signed solution; its moment
trajectory is seeded explicitly (the operator image integrates to zero).
"""

import argparse
from pathlib import Path

import numpy as np

from fpknl import (GaussianMixture, build_shifts, evolve_analytic, linsym_closed_form,
                   linsym_operator, matriciant, plan_for,
                   symmetry_apply_conclusion, symmetry_apply_evolution,
                   symmetry_apply_shift)
from fpknl.checks import reference_case
from fpknl.cli import fmt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--image-moment", type=float, default=0.2)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    params, packet = reference_case()
    s, t = 0.0, args.t
    op = linsym_operator(params, matriciant(params, s, s), packet.mean)
    print(f"seed operator: {op.const:+.3f} {op.lin[0]:+.3f} x "
          f"{op.grad[0]:+.3f} d/dx")

    initial = GaussianMixture([packet])
    plan = plan_for(params, s, t, initial)
    u = evolve_analytic(initial, plan)
    shifts = build_shifts(op, initial, params, s,
                          moment_override=[args.image_moment])
    xs = np.linspace(-3.5, 4.0, 751)
    fields = {
        "shift": symmetry_apply_shift(op, u, shifts, t).eval(params, xs),
        "conclusion": symmetry_apply_conclusion(op, u, shifts, t).eval(params, xs),
        "conjugation": symmetry_apply_evolution(
            op, u, plan, moment_override=[args.image_moment]).eval(params, xs),
        "closed-form": linsym_closed_form(
            params, t, s, float(packet.num[0, 0]), float(packet.den[0, 0]),
            float(packet.mean[0]), args.image_moment)(xs),
    }
    names = list(fields)
    print(f"operator-image integral alpha = {shifts.alpha:.3e} "
          f"(zero-mass field, moment seeded at {args.image_moment})")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            diff = float(np.max(np.abs(fields[names[i]] - fields[names[j]])))
            print(f"max |{names[i]} - {names[j]}| = {diff:.3e}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "symmetry_fields.csv", "w") as fh:
        fh.write("x," + ",".join(names) + "\n")
        for k, xi in enumerate(xs):
            fh.write(",".join(fmt(v) for v in
                              (xi, *(fields[n][k] for n in names))) + "\n")
    print(f"fields written to {outdir / 'symmetry_fields.csv'}")


if __name__ == "__main__":
    main()
