#!/usr/bin/env python3
"""Measure the remainder order of the momentum expansion.

Sweeps p at a few fixed positions, subtracts the quadratic-in-p model from
the full effective potential, and fits the log-log slope of the remainder.
A slope near 4 confirms the expansion drops only O(p^4) terms.
"""

import argparse
import math
import sys

import numpy as np

from effpot.errors import EffpotError
from effpot.kernel import effective_potential
from effpot.lowmomentum import LowMomentumModel, inverse_mass, smoothed_potential
from effpot.physical import PhysicalParams
from effpot.potential import SquareBarrier


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=0.125)
    ap.add_argument("--hbar", type=float, default=3.0)
    ap.add_argument("--L", type=float, default=0.5)
    ap.add_argument("--V0", type=float, default=1.0)
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
    ps = np.linspace(args.pmin, args.pmax, args.n) * math.sqrt(args.m / args.beta)
    try:  # every row before any output, so a failed run prints nothing
        model = LowMomentumModel(params, barrier)
        rows = [_row(model, q, ps) for q in qs]
    except EffpotError as exc:  # a computational failure: one line, as effpot reports it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# m={args.m:g} beta={args.beta:g} hbar={args.hbar:g} L={args.L:g} V0={args.V0:g}")
    print("q,slope,remainder_at_pmax", *rows, sep="\n")
    return 0


def _row(model, q, ps) -> str:
    """The fitted remainder slope at q over the momenta ps."""
    v0 = smoothed_potential(model, q)
    dm = inverse_mass(model, q) - 1.0 / model.params.m
    veff = np.array([effective_potential(model.params, model.pot, q, p) for p in ps])
    deltas = np.abs(veff - (v0 + 0.5 * ps * ps * dm))
    if np.any(deltas <= 0.0):
        return f"{q:.6g},nan,{deltas[-1]:.6g}"
    slope = float(np.polyfit(np.log(ps), np.log(deltas), 1)[0])
    return f"{q:.6g},{slope:.4f},{deltas[-1]:.6g}"


if __name__ == "__main__":
    sys.exit(main())
