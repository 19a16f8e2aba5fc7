"""Staggered hard-core fermion chains with Ramond / Neveu-Schwarz boundaries.

Spinless fermions on a ring with nearest-neighbour exclusion, built from the
supercharge Q = sum_j lambda_j d_j^dag with d_j = (1-n_{j-1}) c_j (1-n_{j+1}).
The ring of the paper has the couplings (y, 1, y, y, 1, y, ...), so it is
built from (n_f, y, m, boundary) alone. A hard-core state is an n_f-bit mask
(site y is bit y-1), and each particle-number basis is the ascending,
read-only array of such masks; every operator on it is assembled with
vectorised bit operations. The staggered couplings have period 3, so the
Hamiltonian commutes with translation by three sites. T^3 is a rotation of
the masks by three bits, signed by the boundary sign when an odd number of
particles crosses the seam, so its eigenspaces are `SectorBasis` objects
from the spin chain's orbit-sum builder: their orbit tables run over the
m-particle masks and t is the T^3 eigenvalue. The Hamiltonian is built on
them as the spin chain's H is, from its terms applied to the orbit
representatives alone and folded onto the columns, with no operator on all
the masks, and is diagonalised by the spin chain's `spectrum`. The
spectral-coincidence harness compares these sectors against the XYZ chain at
momentum 0 or pi under the change of variables zeta^2 = 1 + 8 y^2.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, InvariantViolation
from .spinchain import (
    SPECTRAL_TOL,
    CouplingLine,
    SectorOperator,
    _add_images,
    _group_levels,
    _orbit_sector,
    _require_tol,
    _suite_report,
    build_sector_basis,
    common_levels,
    spectrum,
    xyz_hamiltonian,
)


def hardcore_count(n_f, m):
    """Number of hard-core configurations: (n_f/(n_f-m)) C(n_f-m, m)."""
    if m == 0:
        return 1
    return n_f * math.comb(n_f - m, m) // (n_f - m)


@lru_cache(maxsize=None)
def hardcore_basis(n_f, m):
    """All m-particle hard-core states on the ring as ascending n_f-bit masks
    (a cached, read-only int64 array)."""
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
    masks.flags.writeable = False
    return masks


def staggered_couplings(n_f, y):
    """Period-3 couplings (y, 1, y, y, 1, y, ...)."""
    if n_f % 3 != 0:
        raise DomainError("staggered couplings need n_f to be a multiple of 3")
    if not (math.isfinite(y) and y != 0):
        raise DomainError(f"the staggering y must be finite and nonzero, got {y}")
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
    if boundary not in ("ramond", "neveu-schwarz"):
        raise DomainError(f"unknown boundary {boundary!r}")
    return (1.0 if boundary == "ramond" else -1.0) * (-1.0) ** (m - 1)


def t3_sector_basis(n_f, m, sigma, boundary):
    """The T^3 eigenspace with eigenvalue sigma = +-1, as a `SectorBasis`
    with n = n_f whose orbit table runs over the m-particle masks.

    T^3 rotates a mask by three bits, site y -> y+3; the particles on the
    top three sites cross the seam, each with the seam sign, so an odd number
    of them gives the mask that sign. Each basis vector is the phased orbit
    sum of `spinchain._orbit_sector`, and an orbit contributes iff the
    accumulated sign around it equals sigma^length.
    """
    if n_f % 3 != 0:
        raise DomainError("T^3 sectors need n_f to be a multiple of 3")
    seam = _seam_sign(boundary, m)
    states = hardcore_basis(n_f, m)
    mask = (1 << n_f) - 1

    def step(x):
        top = x >> (n_f - 3)
        return (x << 3 | top) & mask, np.where(np.bitwise_count(top) & 1, seam, 1.0)

    return _orbit_sector(states, n_f, step, float(sigma))


def fermion_hamiltonian(n_f, y, m, boundary, sigma):
    """The Hamiltonian of the m-particle ring of n_f sites with the
    staggered couplings of y on its T^3 = sigma sector (`t3_sector_basis`),
    built in sector coordinates.

    Ramond: H = {Q, Q^dag}; the hop across the seam then carries the string
    sign (-1)^(m-1). Neveu-Schwarz flips the sign of the seam hop, so it
    carries (-1)^m. The couplings have period 3, so H commutes with T^3 and,
    as for the XYZ H (`spinchain.xyz_hamiltonian`), <s~|H|r~> =
    sqrt(size_r) <s~|H|r>: the diagonal and the hops in both directions act
    on the orbit representatives r alone, and the hop images, found among
    the masks by binary search, are folded onto the columns.
    """
    lam = staggered_couplings(n_f, y)
    sector = t3_sector_basis(n_f, m, sigma, boundary)
    return SectorOperator(sector, sector, partial(_fermion_blocks, lam, m, boundary, sector), 1)


def _fermion_blocks(lam, m, boundary, sector):
    """The one parity block of `fermion_hamiltonian` (every mask has m bits),
    for the couplings lam of its sites."""
    n_f = sector.n
    states = hardcore_basis(n_f, m)
    seam = _seam_sign(boundary, m)
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
    return spectrum(fermion_hamiltonian(n_f, y, m, boundary, sigma))


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


def comparison_suite(ms, zetas, variants, tol=SPECTRAL_TOL):
    """The `spectral_comparison` reports at every m of ms, zeta of zetas and
    variant of variants, in that order."""
    _require_tol(tol)
    reports = [spectral_comparison(m, z, v, tol=tol) for m in ms for z in zetas for v in variants]
    return _suite_report("fermion-compare", tol=tol, reports=reports)
