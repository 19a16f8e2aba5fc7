"""Jacobi theta functions and derived scalar quantities.

All theta functions follow the Whittaker-Watson conventions and are evaluated
by the plain q-series. The coefficients of a series depend only on (kind,
nome) and are cached together with the bound on each next term. The term
count is fixed once per call from those bounds and the largest finite |Im z|;
no truncated sum is ever returned: when no count up to `_MAX_TERMS` meets the
tolerance (nome too close to 1, or |Im z| too large) `theta` raises
RangeError. The crossing parameter eta = pi/3 is the root-of-unity point
where the lattice supersymmetry lives; everything downstream (vertex weights,
path-basis local vectors, fermion couplings) is built from the quantities
defined here.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError

ETA_SUSY = math.pi / 3

_MAX_TERMS = 64
_TRUNC_TOL = 1e-16  # bound on the first omitted term of every series
_LOG_MAX = math.log(sys.float_info.max)


@functools.lru_cache(maxsize=256)
def _series(kind, nome):
    """Coefficients, frequencies and reaches of the q-series of theta_kind,
    one entry per term n < _MAX_TERMS, and the first n whose reach is
    positive (None when there is none).

    Term n is coef * sin(freq * z) (kind 1) or coef * cos(freq * z); a zero
    frequency marks the constant term of kinds 3 and 4. The magnitude of
    term n + 1 is at most bound * exp((2n + 3) |Im z|), with bound
    2 q^((n+3/2)^2) (kinds 1, 2) or 2 q^((n+1)^2) (kinds 3, 4); reach n is
    the |Im z| below which that is under _TRUNC_TOL and the exp is a finite
    float, so that n + 1 terms suffice.
    """
    coefs, freqs, reaches = [], [], []
    for n in range(_MAX_TERMS):
        if kind == 1:
            coefs.append(2.0 * (-1.0) ** n * nome ** ((n + 0.5) ** 2))
        elif kind == 2:
            coefs.append(2.0 * nome ** ((n + 0.5) ** 2))
        elif kind == 3:
            coefs.append(1.0 if n == 0 else 2.0 * nome ** (n ** 2))
        else:
            coefs.append(1.0 if n == 0 else 2.0 * (-1.0) ** n * nome ** (n ** 2))
        freqs.append(2 * n + 1 if kind in (1, 2) else 2 * n)
        power = (n + 1.5) ** 2 if kind in (1, 2) else (n + 1) ** 2
        # log of the bound, so that it does not underflow to zero; the reach
        # also keeps exp((2n + 3) y), and with it every sin and cos of the
        # sum, below overflow
        log_bound = math.log(2.0) + power * math.log(nome) if nome else -math.inf
        reaches.append(min(math.log(_TRUNC_TOL) - log_bound, _LOG_MAX) / (2 * n + 3))
    first = next((n for n, r in enumerate(reaches) if r > 0.0), None)
    return tuple(coefs), tuple(freqs), tuple(reaches), first


def theta_reach(kind, nome):
    """The |Im z| at and beyond which `theta` raises RangeError for this
    kind and nome: below it some term count up to _MAX_TERMS meets _TRUNC_TOL.
    Zero or negative when even real z needs more terms."""
    if not (0.0 <= nome < 1.0):
        raise DomainError(f"nome must lie in [0, 1), got {nome}")
    return max(_series(kind, float(nome))[2])


def theta(kind, z, nome):
    """Jacobi theta function theta_kind(z, q) via the q-series.

    kind is 1..4; z may be real or complex, a Python/numpy scalar or an
    array. Real input returns real output; scalars come back as numpy
    scalars. The series coefficients are cached per (kind, nome) and the
    number of terms N is fixed up front: the first N for which the
    bound on the next term, 2 q^((N+1/2)^2) (kinds 1, 2) or 2 q^(N^2)
    (kinds 3, 4) times exp((2N+1) y), falls below _TRUNC_TOL, with y the
    largest |Im z| over the finite entries of z (y = 0 for real z).
    Non-finite entries stay non-finite and do not set N. Raises DomainError
    unless 0 <= nome < 1 and RangeError when no N <= _MAX_TERMS meets the
    bound for finite input, that is when y >= theta_reach(kind, nome).
    """
    if kind not in (1, 2, 3, 4):
        raise DomainError(f"theta kind must be 1..4, got {kind}")
    if not (0.0 <= nome < 1.0):
        raise DomainError(f"nome must lie in [0, 1), got {nome}")
    coefs, freqs, reaches, first = _series(kind, float(nome))

    # finite Python and numpy scalars are summed with math/cmath; math.sin
    # and cmath.cos raise on inf where numpy returns nan
    scalar = isinstance(z, (int, float, complex)) and cmath.isfinite(z)
    if not scalar:
        z = np.asarray(z)
    is_complex = isinstance(z, complex) if scalar else np.iscomplexobj(z)
    count = None if first is None else first + 1
    y = 0.0
    if is_complex and first is not None:
        if scalar:
            y = abs(z.imag)
        else:
            finite_imag = np.abs(z.imag[np.isfinite(z)])
            y = float(np.max(finite_imag)) if finite_imag.size else 0.0
        # no term before `first` can meet the bound
        count = next((n + 1 for n in range(first, _MAX_TERMS) if y < reaches[n]), None)
    if count is None:
        if np.any(np.isfinite(z)):
            raise RangeError(
                f"theta_{kind} series at nome={nome} does not reach {_TRUNC_TOL:g} "
                f"within {_MAX_TERMS} terms (largest |Im z| {y:g})"
            )
        count = _MAX_TERMS

    if scalar:
        lib = cmath if is_complex else math
        total = 0j if is_complex else 0.0
    else:
        lib = np
        total = np.zeros(z.shape, dtype=complex if is_complex else float)
    trig = lib.sin if kind == 1 else lib.cos
    for n in range(count):
        freq = freqs[n]
        total = total + (coefs[n] * trig(freq * z) if freq else coefs[n])

    if scalar:
        return np.complex128(total) if is_complex else np.float64(total)
    return total[()] if total.ndim == 0 else total


@dataclass(frozen=True)
class ThetaContext:
    """Elliptic nome and the free path-basis parameters; the crossing
    parameter is the class constant eta = ETA_SUSY.

    The pair (s, t) enters the local vectors of Baxter's path basis; it is
    only constrained by linear independence of those vectors, which is
    checked at runtime (see `local_vector_determinants`).
    """

    eta = ETA_SUSY

    nome: float
    s: float = 0.3
    t: float = -0.7

    def __post_init__(self):
        if not (0.0 <= self.nome < 1.0):
            raise DomainError(f"nome must lie in [0, 1), got {self.nome}")
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise DomainError(f"s and t must be finite, got s={self.s}, t={self.t}")

    def theta(self, kind, z):
        return theta(kind, z, self.nome)

    def theta_sq(self, kind, z):
        """Theta function at nome**2, as used by vertex weights and local vectors."""
        return theta(kind, z, self.nome ** 2)

    def local_vector_determinants(self):
        """2x2 determinants of the up/down local vectors for ell = 0, 1, 2."""
        dets = []
        for ell in range(3):
            arg_up = self.s + (2 * ell + 1) * self.eta
            arg_dn = self.t + (2 * ell + 1) * self.eta
            dets.append(
                self.theta_sq(1, arg_up) * self.theta_sq(4, arg_dn)
                - self.theta_sq(4, arg_up) * self.theta_sq(1, arg_dn)
            )
        return dets

    def require_independent_local_vectors(self):
        """Raise ConfigurationError when a determinant is below 1e-10 scale**2."""
        scale = max(1.0, abs(self.theta_sq(4, self.s)), abs(self.theta_sq(4, self.t)))
        if min(abs(d) for d in self.local_vector_determinants()) < 1e-10 * scale ** 2:
            raise ConfigurationError(
                f"local path-basis vectors are (nearly) linearly dependent for "
                f"s={self.s}, t={self.t}, nome={self.nome}"
            )


def h(u, ctx):
    """h(u) = theta_1(u, q); odd and antiperiodic, h(u + pi) = -h(u)."""
    return ctx.theta(1, u)


def w(ell, ctx):
    """Affine height function w_ell = (s+t)/2 - pi/2 + 2*ell*eta."""
    return (ctx.s + ctx.t) / 2.0 - math.pi / 2.0 + 2.0 * ell * ctx.eta


def zeta_of_nome(nome):
    """Coupling zeta = (theta_1(2pi/3, q^2) / theta_4(2pi/3, q^2))^2."""
    if not (0.0 <= nome < 1.0):
        raise DomainError(f"nome must lie in [0, 1), got {nome}")
    z = 2.0 * math.pi / 3.0
    q2 = nome ** 2
    return (theta(1, z, q2) / theta(4, z, q2)) ** 2
