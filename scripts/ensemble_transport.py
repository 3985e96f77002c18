#!/usr/bin/env python3
"""Simulated beam transport against the closed transmission coefficient.

Classifies a batch of trajectories with energies drawn on (0, V0) and
compares the surpassing fraction with 1 - erf(sqrt(2)/H), reporting the
binomial error of the sample. The beam quantiles are the n bin midpoints
with --stratified, else n draws of the standard library's ``random.Random``
seeded with --seed; every hbar runs the same quantiles.
"""

import argparse
import math
import random
import sys

from effpot.errors import EffpotError
from effpot.lowmomentum import LowMomentumModel
from effpot.physical import PhysicalParams, dimensionless
from effpot.potential import SquareBarrier
from effpot.transmission import effective_coefficients, surpass_fraction


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=0.125)
    ap.add_argument("--hbar", type=float, nargs="+", default=[2.0, 4.0, 6.0])
    ap.add_argument("--L", type=float, default=0.5)
    ap.add_argument("--V0", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=200, help="trajectories per hbar")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stratified", action="store_true",
                    help="use stratified midpoint energies instead of random draws")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error(f"--n must be at least 1, got {args.n}")
    try:
        barrier = SquareBarrier(v0=args.V0, l=args.L)
        per_hbar = [PhysicalParams(m=args.m, beta=args.beta, hbar=hbar) for hbar in args.hbar]
    except ValueError as exc:  # the records' own checks: not finite, not positive
        ap.error(str(exc))

    if args.stratified:
        quantiles = [(i + 0.5) / args.n for i in range(args.n)]
    else:
        draw = random.Random(args.seed).random
        quantiles = [draw() for _ in range(args.n)]
    try:  # every row before any output, so a failed run prints nothing
        rows = [_row(params, barrier, quantiles) for params in per_hbar]
    except EffpotError as exc:  # a computational failure: one line, as effpot reports it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("hbar,H,t_closed,fraction,binomial_3sigma", *rows, sep="\n")
    return 0


def _row(params, barrier, quantiles) -> str:
    """The CSV row of one hbar: closed coefficient against the beam's fraction."""
    model = LowMomentumModel(params, barrier)
    frac = surpass_fraction(model, quantiles)
    t = effective_coefficients(model).t
    err = 3.0 * math.sqrt(t * (1.0 - t) / len(quantiles))
    H = dimensionless(params, barrier).H
    return f"{params.hbar:g},{H:.6g},{t:.6g},{frac:.6g},{err:.3g}"


if __name__ == "__main__":
    sys.exit(main())
