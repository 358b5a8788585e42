#!/usr/bin/env python3
"""Remainder-sharpness study for the two closed-form counting functions.

For the trace problem on the n-ball the scaled residual
(count - C_lead tau^(n-1)) / tau^(n-2) settles at (1-n) C_lead; for the flux
problem on the disk, taken at the eigenvalues, it tends to 1/3.  Nonzero limits
mean the tau^(n-2) remainder order cannot be improved.
"""

import argparse
import math

from bisteklov import (
    CountingSeries,
    ProblemKind,
    WeylModel,
    harmonic_dim,
    remainder_fit,
    sphere_area,
)


def ball_study(n, m_max, rows):
    model = WeylModel(ProblemKind.NEUMANN_TRACE, n, sphere_area(n))
    samples, running = [], 0
    for m in range(0, m_max + 1):
        running += harmonic_dim(n, m)
        samples.append((float(n + 2 * m), running))
    report = remainder_fit(CountingSeries(tuple(samples)), model)
    print(f"\n== trace problem, unit {n}-ball (C_lead = {model.c_lead:.6g}) ==")
    print(f"{'tau':>10} {'count':>14} {'scaled residual':>18}")
    for tau, res in report.residual_series[:: max(1, len(samples) // rows)]:
        count = dict(samples)[tau]
        print(f"{tau:>10.1f} {count:>14d} {res:>18.10f}")
    print(f"limit prediction (1-n) C_lead = {(1 - n) * model.c_lead:.10f}")
    print(f"estimate at largest tau       = {report.second_coeff_estimate:.10f}")
    print(f"sharp remainder: {report.sharp_verdict} "
          f"(tolerance {report.tolerance_used:.4g})")


def disk_flux_study(m_max, rows):
    model = WeylModel(ProblemKind.DIRICHLET_TRACE, 2, 2 * math.pi)
    samples = [(float(2 * m * m * (m + 1)) ** (1 / 3), 1 + 2 * m)
               for m in range(1, m_max + 1)]
    report = remainder_fit(CountingSeries(tuple(samples)), model)
    print(f"\n== flux problem, unit disk (C_lead = {model.c_lead:.6g}) ==")
    print(f"{'tau':>14} {'count':>10} {'count - C_lead tau':>20}")
    for tau, res in report.residual_series[:: max(1, len(samples) // rows)]:
        count = dict(samples)[tau]
        print(f"{tau:>14.4f} {count:>10d} {res:>20.10f}")
    print(f"estimate at largest tau = {report.second_coeff_estimate:.10f}")
    print("series expansion of the exact eigenvalues puts the limit at 1/3 "
          f"= {1 / 3:.10f}, which is nonzero.")
    print(f"sharp remainder: {report.sharp_verdict} "
          f"(tolerance {report.tolerance_used:.4g})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=5000)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--rows", type=int, default=8, help="table rows to print")
    args = parser.parse_args()
    for n in args.dims:
        ball_study(n, args.m_max, args.rows)
    disk_flux_study(args.m_max, args.rows)


if __name__ == "__main__":
    main()
