"""Staggered hard-core fermion chains with Ramond / Neveu-Schwarz boundaries.

Spinless fermions on a ring with nearest-neighbour exclusion, built from the
supercharge Q = sum_j lambda_j d_j^dag with d_j = (1-n_{j-1}) c_j (1-n_{j+1}).
A hard-core state is an n_f-bit mask (site y is bit y-1), so one-site
translation is a bit rotation and the exclusion rule is x & rotate_left(x) == 0;
each particle-number basis is the ascending tuple of such masks, and every
operator on it is assembled with vectorised bit operations. With period-3
staggered couplings the Hamiltonian commutes with translation by three sites.
T^3 is a signed permutation of the masks (a particle crossing the seam picks
up the boundary sign), so its eigenspaces are `SectorBasis` objects from the
spin chain's orbit-sum builder: their orbit tables run over the m-particle
masks and t is the T^3 eigenvalue. The Hamiltonian is built on them as the
spin chain's H is, from its terms applied to the orbit representatives alone
and folded onto the columns, with no operator on all the masks, and is
diagonalised by the spin chain's `spectrum`. The spectral-coincidence
harness compares these sectors against the XYZ chain at momentum 0 or pi
under the change of variables zeta^2 = 1 + 8 y^2. A combinatorial map sends
height paths to hard-particle configurations and motivates theta-function
couplings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .elliptic import w
from .errors import ConfigurationError, DomainError, InvariantViolation
from .spinchain import (
    SPECTRAL_TOL,
    CouplingLine,
    SectorOperator,
    _add_images,
    _group_levels,
    _orbit_sector,
    _spin_parity,
    build_sector_basis,
    common_levels,
    rotate_left,
    spectrum,
    xyz_hamiltonian,
)


@dataclass(frozen=True)
class HardcoreState:
    """Occupied positions (1-based, increasing) with cyclic non-adjacency: the
    validated image of `path_to_hardcore` (the bases themselves are masks)."""

    n_f: int
    occupied: tuple

    def __post_init__(self):
        occ = self.occupied
        if any(not (1 <= y <= self.n_f) for y in occ) or list(occ) != sorted(set(occ)):
            raise DomainError(
                f"occupied sites must be strictly increasing in 1..{self.n_f}"
            )
        for a, b in zip(occ, occ[1:]):
            if b - a == 1:
                raise DomainError(f"adjacent occupied sites {a},{b}")
        if len(occ) >= 2 and occ[0] == 1 and occ[-1] == self.n_f:
            raise DomainError(f"adjacent occupied sites {self.n_f},1 across the seam")
        if len(occ) == 1 and self.n_f == 1:
            raise DomainError("a single site cannot host a hard-core particle ring")

    @property
    def m(self):
        return len(self.occupied)


def hardcore_count(n_f, m):
    """Number of hard-core configurations: (n_f/(n_f-m)) C(n_f-m, m)."""
    if m == 0:
        return 1
    return n_f * math.comb(n_f - m, m) // (n_f - m)


@lru_cache(maxsize=None)
def hardcore_basis(n_f, m):
    """All m-particle hard-core states on the ring as ascending n_f-bit masks
    (a cached tuple of ints)."""
    if not (0 <= m <= n_f // 2):
        raise DomainError(f"need 0 <= m <= n_f/2, got m={m}, n_f={n_f}")
    # the placements on the open chain: sites c_i + i for the combinations
    # c of n_f - m + 1 slots, so that neighbours are at least two sites apart
    count = math.comb(n_f - m + 1, m)
    sites = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_f - m + 1), m)),
        dtype=np.int64,
        count=count * m,
    ).reshape(count, m) + np.arange(m)
    masks = np.bitwise_or.reduce(1 << sites, axis=1)
    # on the ring, the end sites 1 and n_f are neighbours too
    ends = 1 | (1 << max(n_f - 1, 0))
    masks = np.sort(masks[(masks & ends) != ends])
    if len(masks) != hardcore_count(n_f, m):
        raise InvariantViolation(
            f"hard-core count mismatch at n_f={n_f}, m={m}: "
            f"{len(masks)} != {hardcore_count(n_f, m)}"
        )
    return tuple(masks.tolist())


@dataclass(frozen=True)
class FermionModel:
    """A staggered hard-core fermion ring in a fixed particle-number sector."""

    n_f: int
    couplings: tuple
    boundary: str = "ramond"
    m: int = 0

    def __post_init__(self):
        if len(self.couplings) != self.n_f:
            raise DomainError("need one coupling per site")
        if any(c == 0 for c in self.couplings):
            raise DomainError("couplings must be nonzero")
        if self.boundary not in ("ramond", "neveu-schwarz"):
            raise DomainError(f"unknown boundary {self.boundary!r}")


def staggered_couplings(n_f, y):
    """Period-3 couplings (y, 1, y, y, 1, y, ...)."""
    if n_f % 3 != 0:
        raise DomainError("staggered couplings need n_f to be a multiple of 3")
    if y == 0:
        raise DomainError("couplings must be nonzero")
    return tuple(y if j % 3 in (0, 2) else 1.0 for j in range(n_f))


def y_of_zeta(zeta):
    """Positive solution of zeta^2 = 1 + 8 y^2."""
    if zeta ** 2 < 1.0:
        raise DomainError(
            f"zeta^2 = {zeta ** 2:.6g} < 1: imaginary staggering parameter y"
        )
    return math.sqrt((zeta ** 2 - 1.0) / 8.0)


def _seam_sign(boundary, m):
    """Sign of the particle crossing the seam N_f -> 1: it passes the other m-1
    fermions and picks up the boundary phase (antiperiodic for Neveu-Schwarz)."""
    return (1.0 if boundary == "ramond" else -1.0) * (-1.0) ** (m - 1)


def _translate(x, n_f, seam):
    """One-site translation of masks, site y -> y+1: (image, sign), the sign
    being `seam` where site n_f is occupied."""
    return rotate_left(x, n_f), np.where((x >> (n_f - 1)) & 1, seam, 1.0)


def creation_matrix(n_f, j, m):
    """Matrix of d_j^dag from the m-particle to the (m+1)-particle basis,
    with the Jordan-Wigner string sign (-1)^(number occupied left of j)."""
    src = np.array(hardcore_basis(n_f, m))
    dst = np.array(hardcore_basis(n_f, m + 1))
    site = 1 << (j - 1)
    near = site | (1 << (j - 2) % n_f) | (1 << j % n_f)  # j and its neighbours
    cols = np.flatnonzero((src & near) == 0)
    D = np.zeros((len(dst), len(src)))
    D[np.searchsorted(dst, src[cols] | site), cols] = _spin_parity(src[cols] & (site - 1))
    return D


def supercharge_matrix(n_f, couplings, m):
    """Q restricted to the m -> m+1 particle sectors."""
    Q = creation_matrix(n_f, 1, m) * couplings[0]
    for j in range(2, n_f + 1):
        Q = Q + couplings[j - 1] * creation_matrix(n_f, j, m)
    return Q


def translation_matrix(n_f, m, boundary="ramond"):
    """One-site translation on the m-particle basis, with the seam sign
    (+-1)(-1)^(m-1) of `_seam_sign`."""
    states = np.array(hardcore_basis(n_f, m))
    image, sign = _translate(states, n_f, _seam_sign(boundary, m))
    T = np.zeros((len(states), len(states)))
    T[np.searchsorted(states, image), np.arange(len(states))] = sign
    return T


def t3_sector_basis(n_f, m, sigma, boundary="ramond"):
    """The T^3 eigenspace with eigenvalue sigma = +-1, as a `SectorBasis`
    with n = n_f whose orbit table runs over the m-particle masks.

    T^3 is a signed permutation of the hard-core masks; each basis vector is
    the phased orbit sum of `spinchain._orbit_sector`, and an orbit
    contributes iff the accumulated sign around it equals sigma^length.
    """
    if n_f % 3 != 0:
        raise DomainError("T^3 sectors need n_f to be a multiple of 3")
    states = np.array(hardcore_basis(n_f, m))
    seam = _seam_sign(boundary, m)

    def step(x):
        x1, s1 = _translate(x, n_f, seam)
        x2, s2 = _translate(x1, n_f, seam)
        x3, s3 = _translate(x2, n_f, seam)
        return x3, s1 * s2 * s3

    return _orbit_sector(states, n_f, step, float(sigma))


def fermion_hamiltonian(model, sigma):
    """The ring's Hamiltonian on its T^3 = sigma sector (`t3_sector_basis`),
    built in sector coordinates; the couplings must have period 3.

    Ramond: H = {Q, Q^dag}; the hop across the seam then carries the string
    sign (-1)^(m-1). Neveu-Schwarz flips the sign of the seam hop, so it
    carries (-1)^m. With period-3 couplings H commutes with T^3, so, as for
    the XYZ H (`spinchain.xyz_hamiltonian`), <s~|H|r~> = sqrt(size_r) <s~|H|r>:
    the diagonal and the hops in both directions act on the orbit
    representatives r alone, and the hop images, found among the masks by
    binary search, are folded onto the columns.
    """
    if model.couplings[3:] != model.couplings[:-3]:
        raise DomainError("the T^3 sectors need couplings of period 3")
    sector = t3_sector_basis(model.n_f, model.m, sigma, model.boundary)
    return SectorOperator(sector, sector, blocks=partial(_fermion_blocks, model, sector), flip=1)


def _fermion_blocks(model, sector):
    """The one parity block of `fermion_hamiltonian` (every mask has m bits)."""
    n_f, lam = model.n_f, model.couplings
    states = np.array(hardcore_basis(n_f, model.m))
    seam = _seam_sign(model.boundary, model.m)
    reps, sizes = sector.reps, sector.periods
    weight = np.sqrt(sizes)
    for p, src in sector.parity_blocks:
        diag = np.zeros(len(reps))
        hops = []  # (source column, image mask, weight) per hop direction and site
        for j in range(n_f):  # site j+1
            left, right, beyond = (j - 1) % n_f, (j + 1) % n_f, (j + 2) % n_f
            # chemical potential / repulsion: sum_j lambda_j^2 (1-n_{j-1})(1-n_{j+1})
            diag += lam[j] ** 2 * (((reps >> left) | (reps >> right)) & 1 == 0)
            # hop j -> j+1 (j occupied, j+1 and j+2 empty) and back (j+1
            # occupied, j and j-1 empty)
            forward = ((reps >> j) & 1 == 1) & (((reps >> right) | (reps >> beyond)) & 1 == 0)
            backward = ((reps >> right) & 1 == 1) & (((reps >> j) | (reps >> left)) & 1 == 0)
            amp = lam[j] * lam[right] * (seam if j == n_f - 1 else 1.0)
            for move in (forward, backward):
                hops.append((src[move], reps[move] ^ (1 << j | 1 << right), amp * weight[move]))
        block = np.zeros((len(src), len(src)))
        cols, images, values = (np.concatenate(part) for part in zip(*hops))
        _add_images(block, src, sector, cols, np.searchsorted(states, images), values)
        block[src, src] += diag
        yield p, block


def fermion_spectrum(n_f, y, m, boundary, sigma):
    """Ascending spectrum of the staggered ring in the T^3 = sigma sector."""
    model = FermionModel(
        n_f=n_f, couplings=staggered_couplings(n_f, y), boundary=boundary, m=m
    )
    return spectrum(fermion_hamiltonian(model, sigma))


def spectral_comparison(m, zeta, variant, tol=SPECTRAL_TOL):
    """Set-coincidence report between XYZ and staggered-fermion spectra.

    ramond_vs_kpi: XYZ at N=2m, momentum pi, against 4 H_f (Ramond) at
    N_f=3m in the sector T^3 = (-1)^(m+1); the fermion zero-energy levels
    are absent on the XYZ side. ns_vs_k0: XYZ at N=2m, momentum 0, against
    4 H_f (Neveu-Schwarz) in the sector T^3 = (-1)^m. Multiplicities are
    ignored by design.
    """
    if m < 2:
        raise DomainError("spectral comparison needs m >= 2")
    y = y_of_zeta(zeta)
    n = 2 * m
    n_f = 3 * m
    if variant == "ramond_vs_kpi":
        boundary, momentum, sigma = "ramond", -1.0, (-1) ** (m + 1)
    elif variant == "ns_vs_k0":
        boundary, momentum, sigma = "neveu-schwarz", 1.0, (-1) ** m
    else:
        raise DomainError(f"unknown variant {variant!r}")
    sector = build_sector_basis(n, momentum)
    xyz = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), sector))
    ferm = 4.0 * fermion_spectrum(n_f, y, m, boundary, sigma)

    pairs, xyz_only, ferm_only = common_levels(
        [float(xyz[g[0]]) for g in _group_levels(xyz, tol)],
        [float(ferm[g[0]]) for g in _group_levels(ferm, tol)],
        tol,
    )
    matched = [a for a, _ in pairs]
    if variant == "ramond_vs_kpi":
        # the conjecture excludes E=0 from the XYZ side
        ferm_only = [v for v in ferm_only if abs(v) > tol]
    return {
        "m": m,
        "zeta": zeta,
        "variant": variant,
        "xyz_levels": [float(v) for v in xyz],
        "fermion_levels": [float(v) for v in ferm],
        "matched": matched,
        "xyz_only": xyz_only,
        "fermion_only": ferm_only,
        "pass": not xyz_only and not ferm_only,
    }


# ---------------------------------------------------------------------------
# path -> hard-particle mapping


def path_to_hardcore(p):
    """Map a height path to a hard-particle configuration and a case tag.

    Each down step at x_j becomes a particle at y_j = x_j + ell + j modulo
    N_f = n + m (origin at y = 0; stored 1-based). The tag classifies how a
    one-site translation of the path acts on the image: (i)/(iii) leave it
    unchanged, (ii)/(iv) translate the particles by three sites.
    """
    n_f = p.n + p.m
    occ = tuple(
        sorted((x + p.ell + j) % n_f + 1 for j, x in enumerate(p.positions, start=1))
    )
    state = HardcoreState(n_f=n_f, occupied=occ)
    last_step_down = p.n in p.positions
    if not last_step_down:
        tag = "ii" if p.ell == 0 else "i"
    else:
        tag = "iii" if p.ell == 2 else "iv"
    return state, tag


def theta_couplings(ctx, n_f):
    """Coupling conjecture: lambda_y = |theta_1(w_y, q)|^(3/2), period 3."""
    lams = []
    for y in range(1, n_f + 1):
        val = abs(ctx.theta(1, w(y, ctx))) ** 1.5
        if val < 1e-12:
            raise ConfigurationError(
                f"coupling at site {y} vanishes: w_y is a multiple of pi"
            )
        lams.append(val)
    return tuple(lams)
