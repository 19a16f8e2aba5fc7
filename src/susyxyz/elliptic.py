"""Jacobi theta functions and derived scalar quantities.

All theta functions follow the Whittaker-Watson conventions and are evaluated
by the plain q-series; `theta1_from_exp` sums theta_1 and theta_1' from the
same coefficients as powers of E = e^{iz}, for the Newton scan of the Bethe
roots, where a whole system of arguments comes from one exp per root. The
coefficients of a series depend only on (kind, nome) and are
cached together with the bound on each next term. Each element of z is
summed to its own term count, fixed from those bounds and its own |Im z|, so
a value never depends on the other elements of its batch. No truncated sum
is ever returned: when no count up to `_MAX_TERMS` meets the tolerance (nome
too close to 1, or |Im z| too large) the evaluation raises RangeError. The
crossing parameter eta = pi/3 is the root-of-unity point where the lattice
supersymmetry lives; everything downstream (vertex weights, path-basis local
vectors, fermion couplings) is built from the quantities defined here.
"""

from __future__ import annotations

import bisect
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
    """Coefficients and frequencies of the q-series of theta_kind, one entry
    per term n < _MAX_TERMS, and the reach tables of theta and theta'.

    Term n is coef * sin(freq * z) (kind 1) or coef * cos(freq * z); a zero
    frequency marks the constant term of kinds 3 and 4. The magnitude of
    term n + 1 is at most bound * exp((2n + 3) |Im z|), with bound
    2 q^((n+3/2)^2) (kinds 1, 2) or 2 q^((n+1)^2) (kinds 3, 4), and that of
    its derivative at most (2n + 3) times as much. Reach n is the |Im z|
    below which that is under _TRUNC_TOL and the exp is a finite float, so
    that n + 1 terms suffice. A reach table holds the running maximum of the
    reaches: the term count at |Im z| = y is 1 + the number of entries <= y,
    and its last entry is the reach of the whole series.
    """
    coefs, freqs, reaches, dreaches = [], [], [], []
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
        log_room = math.log(_TRUNC_TOL) - log_bound
        reaches.append(min(log_room, _LOG_MAX) / (2 * n + 3))
        dreaches.append(min(log_room - math.log(2 * n + 3), _LOG_MAX) / (2 * n + 3))
    tables = tuple(np.maximum.accumulate(r) for r in (reaches, dreaches))
    for table in tables:
        table.flags.writeable = False
    return tuple(coefs), tuple(freqs), tables


def _require_nome(nome):
    if not (0.0 <= nome < 1.0):
        raise DomainError(f"nome must lie in [0, 1), got {nome}")


def _require_kind_and_nome(kind, nome):
    if kind not in (1, 2, 3, 4):
        raise DomainError(f"theta kind must be 1..4, got {kind}")
    _require_nome(nome)


def _out_of_reach(kind, nome, y, derivative=False):
    name = f"theta_{kind}'" if derivative else f"theta_{kind}"
    return RangeError(
        f"{name} series at nome={nome} does not reach {_TRUNC_TOL:g} "
        f"within {_MAX_TERMS} terms (|Im z| {y:g})"
    )


def theta_reach(kind, nome, derivative=False):
    """The |Im z| at and beyond which `theta` raises RangeError for this
    kind and nome: below it some term count up to _MAX_TERMS meets _TRUNC_TOL.
    With derivative=True, that of the theta' series, which never exceeds the
    theta reach; for kind 1 it is where `theta1_from_exp` starts to raise.
    Zero or negative when even real z needs more terms. Raises DomainError
    where `theta` does: unless kind is 1..4 and 0 <= nome < 1."""
    _require_kind_and_nome(kind, nome)
    return float(_series(kind, float(nome))[2][1 if derivative else 0][-1])


def _term_plan(table, y, finite, kind, nome, derivative=False):
    """(order, ends) of a per-element sum over the terms of a series.

    An element's term count is 1 + the number of entries <= y (its |Im z|)
    of the reach table; a non-finite element takes the count of real z.
    order puts the elements with the most terms first, so that term n applies
    to a leading run of them: ends[n] is the number whose count exceeds n.
    Raises RangeError when a finite element is at or past the reach (the
    last entry)."""
    counts = np.searchsorted(table, np.where(finite, y, 0.0), side="right") + 1
    past = finite & (counts > _MAX_TERMS)
    if past.any():
        raise _out_of_reach(kind, nome, float(y[past].max()), derivative)
    # small integers, which numpy sorts stably by radix
    counts = np.minimum(counts, _MAX_TERMS).astype(np.int8)
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    return order, np.searchsorted(-counts, -np.arange(counts.max(initial=0)), side="left").tolist()


def _in_input_order(values, order, shape):
    """values, summed in the given order (None: input order), back in the
    input order and shape; a 0-d result as a numpy scalar."""
    if order is not None:
        values[order] = values.copy()
    values = values.reshape(shape)
    return values[()] if values.ndim == 0 else values


def _series_sum(kind, z, nome):
    """theta_kind(z) of an array z, each element summed to its own term
    count, that of `_term_plan` for the theta reach table of `_series`.

    Real z has one count, that of y = 0, and is not reordered. Each element
    gets exactly the arithmetic of a per-term loop run to its own count.
    """
    coefs, freqs, tables = _series(kind, nome)
    flat = z.ravel()
    is_complex = np.iscomplexobj(flat)
    if is_complex:
        order, ends = _term_plan(tables[0], np.abs(flat.imag), np.isfinite(flat), kind, nome)
        flat = flat[order]
    else:
        # one count for all, that of y = 0, which matters only if an element is finite
        order = None
        count = bisect.bisect_right(tables[0], 0.0) + 1
        if count > _MAX_TERMS and np.isfinite(flat).any():
            raise _out_of_reach(kind, nome, 0.0)
        ends = [flat.size] * min(count, _MAX_TERMS)
    total = np.zeros(flat.shape, dtype=complex if is_complex else float)
    trig = np.sin if kind == 1 else np.cos
    for n, end in enumerate(ends):
        total[:end] += coefs[n] * trig(freqs[n] * flat[:end]) if freqs[n] else coefs[n]
    return _in_input_order(total, order, z.shape)


def theta(kind, z, nome):
    """Jacobi theta function theta_kind(z, q) via the q-series.

    kind is 1..4; z may be real or complex, a Python/numpy scalar or an
    array. Real input returns real output; scalars come back as numpy
    scalars. The series coefficients are cached per (kind, nome) and each
    element of z gets its own number of terms N: the first N for which the
    bound on the next term, 2 q^((N+1/2)^2) (kinds 1, 2) or 2 q^(N^2)
    (kinds 3, 4) times exp((2N+1) y), falls below _TRUNC_TOL, with y its
    |Im z|. So an element's value does not depend on the rest of the array.
    Non-finite entries stay non-finite. Raises DomainError unless
    0 <= nome < 1 and RangeError when no N <= _MAX_TERMS meets the bound for
    a finite entry, that is when its |Im z| >= theta_reach(kind, nome).
    """
    _require_kind_and_nome(kind, nome)
    nome = float(nome)
    # finite Python and numpy scalars are summed with math/cmath; math.sin
    # and cmath.cos raise on inf where numpy returns nan
    if not (isinstance(z, (int, float, complex)) and cmath.isfinite(z)):
        return _series_sum(kind, np.asarray(z), nome)

    coefs, freqs, tables = _series(kind, nome)
    is_complex = isinstance(z, complex)
    y = abs(z.imag) if is_complex else 0.0
    count = bisect.bisect_right(tables[0], y) + 1
    if count > _MAX_TERMS:
        raise _out_of_reach(kind, nome, y)
    lib = cmath if is_complex else math
    total = 0j if is_complex else 0.0
    trig = lib.sin if kind == 1 else lib.cos
    for n in range(count):
        freq = freqs[n]
        total = total + (coefs[n] * trig(freq * z) if freq else coefs[n])
    return np.complex128(total) if is_complex else np.float64(total)


def theta1_from_exp(E, y, nome):
    """(theta_1(z, q), theta_1'(z, q)) of an array of z given by E = e^{iz}
    and y = |Im z|, without a trigonometric function.

    With c_n the theta_1 coefficients of `_series`,
        theta_1 = -i sum_n c_n (E^(2n+1) - E^-(2n+1)) / 2,
        theta_1' = sum_n c_n (2n+1) (E^(2n+1) + E^-(2n+1)) / 2;
    the terms c_n E^(+-(2n+1)) are carried from one n to the next by a
    multiplication with E^(+-2) c_(n+1) / c_n, so that no intermediate
    overflows inside the reach. Each element is summed to its own term count,
    that of the theta_1' reach table and its own y, so a value does not
    depend on the other elements. A non-finite element (E NaN or y not
    finite) takes the count of y = 0 and never raises; a NaN E gives NaN.
    Raises RangeError for a finite element with
    y >= theta_reach(1, nome, derivative=True), and DomainError unless
    0 <= nome < 1. The values agree with `theta` to rounding, not bit
    for bit.
    """
    _require_kind_and_nome(1, nome)
    nome = float(nome)
    coefs, _, tables = _series(1, nome)
    E = np.asarray(E, dtype=complex)
    flat, y = E.ravel(), np.asarray(y, dtype=float).ravel()
    order, ends = _term_plan(tables[1], y, np.isfinite(y) & ~np.isnan(flat), 1, nome,
                             derivative=True)
    flat = flat[order]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inverse = 1.0 / flat
        steps = np.stack([flat * flat, inverse * inverse])
        terms = coefs[0] * np.stack([flat, inverse])  # rows c_n E^(2n+1), c_n E^-(2n+1)
        sums = np.zeros_like(terms)
        slopes = np.zeros_like(terms)
        for n, end in enumerate(ends):
            if n:
                terms[:, :end] *= steps[:, :end]
                terms[:, :end] *= coefs[n] / coefs[n - 1] if coefs[n - 1] else 0.0
            sums[:, :end] += terms[:, :end]
            slopes[:, :end] += (2 * n + 1) * terms[:, :end]
        value = -0.5j * (sums[0] - sums[1])
        slope = 0.5 * (slopes[0] + slopes[1])
    return _in_input_order(value, order, E.shape), _in_input_order(slope, order, E.shape)


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
        _require_nome(self.nome)
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
    _require_nome(nome)
    z = 2.0 * math.pi / 3.0
    q2 = nome ** 2
    return (theta(1, z, q2) / theta(4, z, q2)) ** 2
