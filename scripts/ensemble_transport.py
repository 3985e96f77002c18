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

from effpot.atomic import csv_text
from effpot.cli import PARAMS
from effpot.errors import EffpotError
from effpot.lowmomentum import LowMomentumModel
from effpot.physical import PhysicalParams, dimensionless
from effpot.potential import SquareBarrier
from effpot.transmission import effective_coefficients, surpass_fraction


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    for key in ("m", "beta", "L", "V0"):
        default, text = PARAMS[key]
        ap.add_argument(f"--{key}", type=float, default=default, help=f"{text} (default {default})")
    ap.add_argument("--hbar", type=float, nargs="+", default=[2.0, 4.0, 6.0])
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

    draw = random.Random(args.seed).random
    quantiles = [(i + 0.5) / args.n if args.stratified else draw() for i in range(args.n)]
    try:  # every row before any output, so a failed run prints nothing
        rows = [_row(params, barrier, quantiles) for params in per_hbar]
    except EffpotError as exc:  # a computational failure: one line, as effpot reports it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(csv_text({}, ("hbar", "H", "t_closed", "fraction", "binomial_3sigma"), rows))
    return 0


def _row(params, barrier, quantiles) -> tuple:
    """The row of one hbar: closed coefficient against the beam's fraction."""
    model = LowMomentumModel(params, barrier)
    frac = surpass_fraction(model, quantiles)
    t = effective_coefficients(model).t
    return (params.hbar, dimensionless(params, barrier).H, t, frac,
            3.0 * math.sqrt(t * (1.0 - t) / len(quantiles)))


if __name__ == "__main__":
    sys.exit(main())
