"""Physical parameters and the dimensionless quantum-strength numbers.

Everything is carried in arbitrary consistent units; temperature enters only
through the inverse temperature beta. The two dimensionless numbers H and Q
fully parameterize the transport results, so no unit registry exists.

``Record`` is the immutable base of every validated record in the package.
It lives here because this module imports nothing else from the package, so
each module that defines a record can import it without loading more.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Record:
    """Immutable record with explicit slots.

    A subclass lists in ``_fields`` what its equality, hash and repr cover,
    in order; its ``__init__`` validates and stores every slot through
    ``object.__setattr__``. Assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PhysicalParams(Record):
    """Particle mass, inverse temperature and Planck constant.

    hbar = 0 is legal and selects exact classical code paths everywhere;
    no evaluation route divides by hbar.
    """

    __slots__ = ("m", "beta", "hbar", "_hash")
    _fields = ("m", "beta", "hbar")

    def __init__(self, m: float, beta: float, hbar: float):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "hbar", hbar)
        if not all(math.isfinite(x) for x in (m, beta, hbar)):
            raise ValueError(f"parameters must be finite, got {self}")
        if not m > 0:
            raise ValueError(f"mass must be positive, got {m}")
        if not beta > 0:
            raise ValueError(f"inverse temperature must be positive, got {beta}")
        if hbar < 0:
            raise ValueError(f"hbar must be nonnegative, got {hbar}")
        # parameters key kernel's per-(parameters, shape) cache, looked up on
        # every V_eff call, so the hash is taken once
        object.__setattr__(self, "_hash", hash((m, beta, hbar)))

    def __hash__(self) -> int:
        return self._hash


class DimensionlessParams(NamedTuple):
    """Quantum-strength numbers, always computed from the primitive inputs."""

    H: float
    Q: float


def dimensionless(params: PhysicalParams, barrier) -> DimensionlessParams:
    """Quantum-strength numbers for a square barrier of height v0, half-width l.

    H = sqrt(beta/m) hbar / L drives the smoothed-barrier transport model;
    Q = hbar / (sqrt(2 m V0) L) = 1/(k0 L) drives the quantum mixture
    average, whose sub-barrier exponent is 2 kappa L = 2 sqrt(1 - x^2)/Q.
    Both scale linearly in hbar and vanish in the classical limit. DomainError
    when k0 L underflows to 0 or either number leaves floating range.
    """
    k0_l = math.sqrt(2.0 * params.m * barrier.v0) * barrier.l
    H = math.sqrt(params.beta / params.m) * params.hbar / barrier.l
    Q = params.hbar / k0_l if k0_l > 0 else math.inf
    if not (math.isfinite(H) and math.isfinite(Q)):
        from .errors import DomainError  # only here, so records load no other module

        raise DomainError(f"the quantum-strength numbers H and Q at hbar = {params.hbar:g}, "
                          f"L = {barrier.l:g} leave floating range")
    return DimensionlessParams(H=H, Q=Q)
