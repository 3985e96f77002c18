#!/usr/bin/env python3
"""Measure the remainder order of the momentum expansion.

Sweeps p at a few fixed positions, subtracts the quadratic-in-p model from
the full effective potential, and fits the log-log slope of the remainder.
A slope near 4 confirms the expansion drops only O(p^4) terms. A row with a
remainder below NOISE_ULPS ulp(V0) e^{beta p^2/2m} reports the slope nan.
"""

import argparse
import math
import statistics
import sys

from effpot.atomic import csv_text, linspace
from effpot.cli import PARAMS
from effpot.errors import EffpotError
from effpot.kernel import effective_potential
from effpot.lowmomentum import LowMomentumModel, inverse_mass, smoothed_potential
from effpot.physical import PhysicalParams
from effpot.potential import SquareBarrier

# V_eff's closed form cancels terms up to V0 e^{beta p^2/2m}, leaving a few ulp of that as noise.
# Remainders of 1e4 such ulp or more move the fitted slope by under 3e-4/ln(pmax/pmin): 1.4e-4
# on the default sweep, whose smallest remainder is 6.6e7 ulp(V0).
NOISE_ULPS = 1e4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    for key in ("m", "beta", "hbar", "L", "V0"):
        default, text = PARAMS[key]
        ap.add_argument(f"--{key}", type=float, default=default, help=f"{text} (default {default})")
    ap.add_argument("--pmin", type=float, default=0.05,
                    help="sweep start in units of sqrt(m/beta)")
    ap.add_argument("--pmax", type=float, default=0.4,
                    help="sweep end in units of sqrt(m/beta)")
    ap.add_argument("--n", type=int, default=12, help="sweep points")
    ap.add_argument("--q", type=float, nargs="+", default=None,
                    help="positions to probe (default: 0, L, 2L)")
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error(f"--n must be at least 2 to fit a slope, got {args.n}")
    if not 0.0 < args.pmin < args.pmax < math.inf:
        ap.error(f"need 0 < --pmin < --pmax, both finite, got {args.pmin:g} and {args.pmax:g}")
    if args.q is not None and not all(map(math.isfinite, args.q)):
        ap.error(f"--q must be finite, got {' '.join(f'{q:g}' for q in args.q)}")
    try:
        params = PhysicalParams(m=args.m, beta=args.beta, hbar=args.hbar)
        barrier = SquareBarrier(v0=args.V0, l=args.L)
    except ValueError as exc:  # the records' own checks: not finite, not positive
        ap.error(str(exc))
    if args.hbar == 0:
        ap.error("--hbar must be positive: at hbar = 0 there is no momentum expansion")

    qs = args.q if args.q is not None else [0.0, args.L, 2.0 * args.L]
    ps = [p * math.sqrt(args.m / args.beta) for p in linspace(args.pmin, args.pmax, args.n)]
    try:  # every row before any output, so a failed run prints nothing
        model = LowMomentumModel(params, barrier)
        rows = [_row(model, q, ps) for q in qs]
    except EffpotError as exc:  # a computational failure: one line, as effpot reports it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {key: value for key, value in vars(args).items() if key in PARAMS}
    sys.stdout.write(csv_text(meta, ("q", "slope", "remainder_at_pmax"), rows))
    return 0


def _row(model, q, ps) -> tuple:
    """(q, fitted remainder slope over the momenta ps, remainder at the last p)."""
    params, floor = model.params, NOISE_ULPS * math.ulp(model.pot.v0)
    v0, dm = smoothed_potential(model, q), inverse_mass(model, q) - 1.0 / params.m
    deltas = [abs(effective_potential(params, model.pot, q, p) - (v0 + 0.5 * p * p * dm))
              for p in ps]
    if any(d * math.exp(-params.beta * p * p / (2.0 * params.m)) < floor  # never overflows
           for p, d in zip(ps, deltas)):
        return q, math.nan, deltas[-1]
    fit = statistics.linear_regression(list(map(math.log, ps)), list(map(math.log, deltas)))
    return q, fit.slope, deltas[-1]


if __name__ == "__main__":
    sys.exit(main())
