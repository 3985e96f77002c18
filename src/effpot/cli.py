"""Command-line front end.

Subcommands:
  veff        sample the momentum-dependent effective potential on a (q, p) grid
  model       emit smoothed potential, mass, and reduced-potential profiles
  trajectory  integrate one trajectory and export its samples
  coeff       print effective and quantum transmission/reflection coefficients
  figures     regenerate the four reference data sets
  validate    run the built-in cross-checks and report PASS/FAIL

Each subcommand declares a flag only for the parameters it reads; validate
and figures take none. Parameters resolve in three layers: built-in
defaults, then a JSON config file given with --config (any key of PARAMS,
with a number value), then explicit flags. A --potential-csv run records the
file in its header in place of L and V0, and refuses --L and --V0. Exit
codes: 0 success, 1 computational failure, 2 usage error.

At module level this file imports only the standard library, ``errors`` and
``atomic``; each command imports the layers it runs when it runs, so a
launch loads only its subcommand's modules (``model`` never loads the
dynamics, the kernel or the quadrature, and only ``validate`` loads
``checks``). No command loads numpy: grids come from ``atomic.linspace``,
and the kernel and the dynamics run on Python floats.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .atomic import csv_text, linspace, write_atomic
from .errors import EffpotError

if TYPE_CHECKING:
    from .lowmomentum import LowMomentumModel
    from .physical import PhysicalParams
    from .potential import SquareBarrier
    from .quadrature import QuadratureConfig

PARAMS = {
    "m": (1.0, "particle mass"),
    "beta": (0.125, "inverse temperature"),
    "hbar": (3.0, "quantum strength"),
    "L": (0.5, "barrier half-width"),
    "V0": (1.0, "barrier height"),
    "eps": (0.25, "trajectory energy"),
    "rel_tol": (1e-10, "quadrature relative tolerance"),
    "abs_tol": (1e-14, "quadrature absolute tolerance"),
}


class UsageError(Exception):
    pass


class RunConfig(NamedTuple("RunFields", [(key, float) for key in PARAMS])):
    """One value per PARAMS key, under its name, with builders for the objects a command needs."""

    __slots__ = ()

    def params(self) -> PhysicalParams:
        from .physical import PhysicalParams

        return PhysicalParams(m=self.m, beta=self.beta, hbar=self.hbar)

    def barrier(self) -> SquareBarrier:
        from .potential import SquareBarrier

        return SquareBarrier(v0=self.V0, l=self.L)

    def quadrature(self) -> QuadratureConfig:
        from .quadrature import QuadratureConfig

        return QuadratureConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def model(self, pot=None) -> LowMomentumModel:
        from .lowmomentum import LowMomentumModel

        return LowMomentumModel(self.params(), pot if pot is not None else self.barrier())


def _build_config(args) -> RunConfig:
    merged = {key: default for key, (default, _) in PARAMS.items()}
    if args.config:
        import json

        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(PARAMS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        # bool is an int subclass, and true must not pass for 1
        bad = sorted(k for k, v in loaded.items()
                     if isinstance(v, bool) or not isinstance(v, (int, float)))
        if bad:
            raise UsageError(f"config values must be numbers: {', '.join(bad)}")
        merged.update(loaded)
    for key in PARAMS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    try:
        values = {k: float(v) for k, v in merged.items()}
    except OverflowError as exc:
        raise UsageError(f"bad parameter value: {exc}") from exc
    _reject_non_finite(values)
    return RunConfig(**values)


def _reject_non_finite(values: dict) -> None:
    bad = sorted(k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise UsageError(f"non-finite value for {', '.join(bad)}")


def _add_params(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Add --config and one flag for each PARAMS key the command reads."""
    parser.add_argument("--config", help="JSON file with parameter overrides")
    for key in keys:
        default, text = PARAMS[key]
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                            help=f"{text} (default {default})")


def _emit(args, text: str) -> None:
    """Write a command's finished output to --out (whole or not at all) or stdout."""
    out = getattr(args, "out", None)
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _require_grid_size(flag: str, size: int) -> None:
    if size < 1:
        raise UsageError(f"{flag} must be at least 1, got {size}")


def _metadata(cfg: RunConfig, potential_csv=None, **extra) -> dict:
    """The metadata every CSV command starts with, naming the parameters or
    file its potential was built from."""
    keys = ("m", "beta", "hbar") + (() if potential_csv else ("L", "V0"))
    meta = {key: getattr(cfg, key) for key in keys}
    if potential_csv:
        meta["potential_csv"] = potential_csv
    return {**meta, **extra}


# ------------------------------------------------------------------- commands


def _cmd_veff(args) -> int:
    from .kernel import effective_potential

    _require_grid_size("--nq", args.nq)
    _require_grid_size("--np", args.np_)
    cfg = _build_config(args)
    if cfg.hbar <= 0:
        raise UsageError("veff needs hbar > 0")
    qs = linspace(args.qmin, args.qmax, args.nq)
    ps = linspace(args.pmin, args.pmax, args.np_)
    params, barrier = cfg.params(), cfg.barrier()
    rows = ((q, p, effective_potential(params, barrier, q, p)) for q in qs for p in ps)
    _emit(args, csv_text(_metadata(cfg), ("q", "p", "veff"), rows))
    return 0


def _load_pot(args, cfg: RunConfig):
    if not args.potential_csv:
        return cfg.barrier()
    if args.L is not None or args.V0 is not None:
        raise UsageError("--L and --V0 do not apply to a --potential-csv run")
    from .potential import load_tabulated_csv

    return load_tabulated_csv(args.potential_csv)


def _cmd_model(args) -> int:
    from .lowmomentum import _smoothed

    _require_grid_size("--n", args.n)
    cfg = _build_config(args)
    model = cfg.model(_load_pot(args, cfg))
    m, eps = model.params.m, cfg.eps

    def row(q):
        # one profile evaluation per row; M and VQ are formed as
        # lowmomentum.mass and vq_potential form them
        v, m_inv = _smoothed(model, q)
        return q, v, 1.0 / m_inv, m * m_inv * (v - eps) + eps

    rows = map(row, linspace(args.qmin, args.qmax, args.n))
    _emit(args, csv_text(_metadata(cfg, args.potential_csv, eps=eps), ("q", "V", "M", "VQ"), rows))
    return 0


def _cmd_trajectory(args) -> int:
    from .dynamics import (
        hamiltonian,
        integrate_hamiltonian,
        integrate_newtonian,
        launch_state,
        trajectory_csv,
    )
    from .lowmomentum import inverse_mass

    cfg = _build_config(args)
    if (args.q0 is None) != (args.p0 is None):
        raise UsageError("give both --q0 and --p0, or neither")
    if args.q0 is not None and args.eps is not None:
        raise UsageError("--eps does not apply to a run from --q0 and --p0")
    model = cfg.model(_load_pot(args, cfg))
    q0, p0 = launch_state(model, cfg.eps) if args.q0 is None else (args.q0, args.p0)
    t_end = args.t_end
    t_eval = None
    if args.samples is not None:
        if args.samples < 2:
            raise UsageError("--samples must be at least 2")
        if t_end is None or not t_end > 0:
            raise UsageError("--samples needs an explicit --t-end > 0")
        t_eval = linspace(0.0, t_end, args.samples)
    if args.form == "hamiltonian":
        traj = integrate_hamiltonian(model, q0, p0, t_end=t_end, t_eval=t_eval)
    else:
        v0 = p0 * inverse_mass(model, q0)
        eps = hamiltonian(model, q0, p0)
        traj = integrate_newtonian(model, q0, v0, eps, t_end=t_end, t_eval=t_eval)
    meta = _metadata(cfg, args.potential_csv, form=args.form, q0=q0, p0=p0)
    _emit(args, trajectory_csv(traj, meta))
    return 0


def _cmd_coeff(args) -> int:
    from .physical import dimensionless
    from .transmission import effective_coefficients, quantum_t_mixture

    cfg = _build_config(args)
    model = cfg.model()
    dims = dimensionless(cfg.params(), cfg.barrier())
    eff = effective_coefficients(model)
    results = {"t_effective": eff.t, "r_effective": eff.r}
    if cfg.hbar > 0:
        tq = quantum_t_mixture(dims.Q, cfg.quadrature())
        results.update(t_quantum_mixture=tq, r_quantum_mixture=1.0 - tq)
    lines = "".join(f"{key}={value:.12g}\n" for key, value in results.items())
    _emit(args, csv_text(_metadata(cfg, H=dims.H, Q=dims.Q)) + lines)
    return 0


def _cmd_figures(args) -> int:
    from .figures import emit_all

    paths = emit_all(args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_validate(args) -> int:
    from .checks import run

    return run()


# --------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effpot",
        description="effective-potential transport model: profiles, trajectories, coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "veff", help="sample the momentum-dependent effective potential",
        description="Sample V_eff(q, p) on a (q, p) grid. Values are printed to 12 significant "
        "digits, but near a corner the closed form cancels terms up to e^{beta p^2/2m}, which "
        "costs about beta p^2/(2m ln 10) of double precision's 16 digits: at large beta p^2/2m "
        "fewer than the 12 printed digits are correct.")
    _add_params(p, "m", "beta", "hbar", "L", "V0")
    p.add_argument("--qmin", type=float, default=-2.0)
    p.add_argument("--qmax", type=float, default=2.0)
    p.add_argument("--nq", type=int, default=41)
    p.add_argument("--pmin", type=float, default=0.0)
    p.add_argument("--pmax", type=float, default=2.0)
    p.add_argument("--np", dest="np_", type=int, default=5)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_veff)

    p = sub.add_parser("model", help="emit V, M, and V^Q profiles")
    _add_params(p, "m", "beta", "hbar", "L", "V0", "eps")
    p.add_argument("--qmin", type=float, default=-4.0)
    p.add_argument("--qmax", type=float, default=4.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--potential-csv", help="tabulated potential (two CSV columns: q, V)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("trajectory", help="integrate one trajectory and export samples")
    _add_params(p, "m", "beta", "hbar", "L", "V0", "eps")
    p.add_argument("--q0", type=float, help="initial position (default: asymptotic launch)")
    p.add_argument("--p0", type=float, help="initial momentum")
    p.add_argument("--t-end", dest="t_end", type=float, help="time budget")
    p.add_argument("--samples", type=int, help="resample onto this many uniform times")
    p.add_argument("--form", choices=("hamiltonian", "newtonian"), default="hamiltonian")
    p.add_argument("--potential-csv", help="tabulated potential (two CSV columns: q, V)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("coeff", help="print transmission/reflection coefficients")
    _add_params(p, "m", "beta", "hbar", "L", "V0", "rel_tol", "abs_tol")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("figures", help="regenerate the reference data sets")
    p.add_argument("--out", default="figs", help="output directory (default: ./figs)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("validate", help="run built-in cross-checks")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _reject_non_finite(vars(args))
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError is the domain types' parameter validation: bad input, not a bug
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EffpotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
