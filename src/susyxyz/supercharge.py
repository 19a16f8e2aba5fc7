"""Length-changing lattice supercharges and the N=(2,2) structure they generate.

The local operator q_j replaces a down spin at site j by a pair ++ (weight
(-1)^{j-1}) or -- (weight -zeta*(-1)^{j-1}), growing the chain by one site;
q_0 creates the pair across the periodic boundary. The supercharge
Q_N = sqrt(N/(N+1)) * sum_j q_j is a well-defined map between the momentum
sectors t_N = (-1)^{N+1} and t_{N+1} = (-1)^{N+2}, squares to zero, and
builds the XYZ Hamiltonian as an anticommutator. The spin-reversed partner
Qt_N = R_{N+1} Q_N R_N completes the algebra; their interplay organizes all
positive-energy states into quadruplets spanning three chain lengths.

Q_N is not translation covariant on the full space, so it is built in sector
coordinates by applying the n + 1 local terms q_j to every state of each
domain orbit and folding the images onto the codomain's orbit sums, one spin
parity block at a time. Spin reversal maps orbit sums to +- orbit sums, so
Qt_N is Q_N with its rows and columns permuted and signed. The cohomology
ranks read Q_N on the reflection refinements of the sectors instead: four
(spin parity, reflection) blocks, each about a quarter of the sector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, InvariantViolation
from .spinchain import (
    SPECTRAL_TOL,
    CouplingLine,
    SectorOperator,
    _check_record,
    _eigh_checked,
    _fold,
    _group_levels,
    _parity_blocks,
    _parity_columns,
    _rank,
    _signed_orbit_map,
    _spin_parity,
    build_sector_basis,
    common_levels,
    reverse_bits,
    reverse_spins,
    spectrum,
    xyz_hamiltonian,
)

ALGEBRA_TOL = 1e-10  # default bound on the absolute residual of each relation


def susy_sector(n, parity=None):
    """The momentum sector t_N = (-1)^{N+1} on which the supercharges act,
    or its reflection-`parity` refinement."""
    t = float((-1) ** (n + 1))
    return build_sector_basis(n, t) if parity is None else build_sector_basis(n, t, parity=parity)


def _q_term(j, n, zeta, x):
    """q_j on the states x: (on, images, weights), the mask of the states it
    acts on, then the images of those states with the ++ pair (weight sign)
    followed by their images with the -- pair (weight -zeta * sign).

    For 1 <= j <= n the operator acts on a down spin at site j; j = 0 acts on
    a down spin at the last site and creates the pair on sites (n+1, 1).
    """
    if j == 0:
        on = (x >> (n - 1)) & 1 == 1
        base, pair, sign = (x[on] & ((1 << (n - 1)) - 1)) << 1, 1 | (1 << n), -1.0
    else:
        on = (x >> (j - 1)) & 1 == 1
        b = x[on]
        base = (b & ((1 << (j - 1)) - 1)) | ((b >> j) << (j + 1))
        pair, sign = 0b11 << (j - 1), (-1.0) ** (j - 1)
    return on, np.concatenate([base, base | pair]), np.repeat([sign, -zeta * sign], len(base))


def _conjugated(Q, symmetry):
    """S_{N+1} Q S_N for a symmetry S that maps orbit sums to +- orbit sums
    (`_signed_orbit_map`): the whole Q with its rows and columns permuted and signed."""
    perm_in, sign_in = _signed_orbit_map(Q.domain, symmetry)
    perm_out, sign_out = _signed_orbit_map(Q.codomain, symmetry)
    return sign_out[:, None] * Q.matrix[np.ix_(perm_out, perm_in)] * sign_in


@dataclass(frozen=True)
class SuperchargePair:
    """Q_N and its spin-reversed partner Qt_N = R_{N+1} Q_N R_N on the momentum
    sectors. Q_N is held as parity blocks; Qt_N, formed when first read, is
    the whole Q_N with its rows and columns permuted and signed
    (`_conjugated`). R_N maps spin parity P to (-1)^N P, so Qt_N maps P
    to P."""

    n: int
    zeta: float
    q_plain: SectorOperator

    @cached_property
    def q_tilde(self):
        Q = self.q_plain
        return SectorOperator(Q.domain, Q.codomain, _conjugated(Q, reverse_spins))


def build_supercharges(n, zeta):
    """Q_N = sqrt(N/(N+1)) sum_{j=0}^{N} q_j on the momentum sectors, as parity
    blocks built when read; its partner Qt_N is formed on demand."""
    CouplingLine(zeta)  # raises DomainError for a non-finite zeta
    q = SectorOperator(susy_sector(n), susy_sector(n + 1), blocks=partial(_q_blocks, n, zeta),
                       flip=-1)
    return SuperchargePair(n=n, zeta=zeta, q_plain=q)


def _refined_supercharge(n, zeta):
    """{r: Q_N on the reflection-r refinement of its domain} for r = +-1. The
    reflection (`reverse_bits`) maps Q_N to (-1)^{N+1} Q_N
    (`parity_covariance_check`), so the codomain is the (-1)^{N+1} r
    refinement, and the spin parity blocks of the two halves are the four
    (P, r) blocks of Q_N."""
    CouplingLine(zeta)  # raises DomainError for a non-finite zeta
    return {r: SectorOperator(susy_sector(n, r), susy_sector(n + 1, (-1) ** (n + 1) * r),
                              blocks=partial(_q_blocks, n, zeta, r), flip=-1)
            for r in (1, -1)}


def _q_blocks(n, zeta, reflection=None):
    """The blocks of Q_N, one at a time, on the momentum sectors or from
    their reflection refinements (`_refined_supercharge`). Each term is
    applied to every state x of the domain's orbit sums, with the state's
    amplitude, and its images are folded onto the codomain's columns
    (`_fold`); q_j maps spin parity P to -P."""
    image = None if reflection is None else (-1) ** (n + 1) * reflection
    dom, cod = susy_sector(n, reflection), susy_sector(n + 1, image)
    column, amplitude = dom.column, dom.amplitude
    states = np.flatnonzero(column >= 0)  # the states of the admitted orbits
    parity = _spin_parity(states)
    scale = math.sqrt(n / (n + 1))
    for p, cols in dom.parity_blocks:
        x = states[parity == p]
        src, amp = dom.block_position[column[x]], scale * amplitude[x]
        block = np.zeros((len(_parity_columns(cod, -p)), len(cols)))
        for j in range(n + 1):
            on, images, weights = _q_term(j, n, zeta, x)
            _fold(block, cod, -p, np.tile(src[on], 2), images, weights * np.tile(amp[on], 2))
        yield p, block
        del block  # once the reader drops it too, freed before the next block


def verify_algebra(n, zeta, tol=ALGEBRA_TOL, pairs=None):
    """Residuals of the nilpotency, cross and Hamiltonian relations between
    Q and Qt.

    Returns a list of {relation, n, zeta, residual, pass} records; a relation
    passes iff its residual is below max(tol, 1e-16). The adjoint halves of
    each relation are exact transposes and are not repeated. The pairs
    Q_n and Q_{n-1} are looked up in, or built into, the dict `pairs` keyed
    by (n, zeta), so that checks of consecutive n sharing one dict build
    each pair once.
    """
    if n < 2:
        raise DomainError("the algebra check needs n >= 2")
    pairs = {} if pairs is None else pairs
    for key in ((n, zeta), (n - 1, zeta)):
        if key not in pairs:
            pairs[key] = build_supercharges(*key)
    up, dn = pairs[(n, zeta)], pairs[(n - 1, zeta)]
    Q, Qt = up.q_plain.matrix, up.q_tilde.matrix
    q, qt = dn.q_plain.matrix, dn.q_tilde.matrix
    H = xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)).matrix
    checks = [
        ("nilpotency_plain", np.linalg.norm(Q @ q)),
        ("nilpotency_tilde", np.linalg.norm(Qt @ qt)),
        ("cross_charge_left", np.linalg.norm(Qt.conj().T @ Q + q @ qt.conj().T)),
        ("cross_charge_right", np.linalg.norm(Q.conj().T @ Qt + qt @ q.conj().T)),
        ("mixed_nilpotency", np.linalg.norm(Qt @ q + Q @ qt)),
        ("hamiltonian_plain", np.linalg.norm(H - (Q.conj().T @ Q + q @ q.conj().T))),
        ("hamiltonian_tilde", np.linalg.norm(H - (Qt.conj().T @ Qt + qt @ qt.conj().T))),
    ]
    return [_check_record(name, n, zeta, r, r < max(tol, 1e-16)) for name, r in checks]


def conserved_charge_C(n, zeta):
    """C_N = Qt_N^dag Q_N, the square-zero charge mapping between quadruplet middles."""
    if n < 2:
        raise DomainError("the conserved charge needs n >= 2")
    pair = build_supercharges(n, zeta)
    sector = susy_sector(n)
    C = pair.q_tilde.matrix.conj().T @ pair.q_plain.matrix
    return SectorOperator(domain=sector, codomain=sector, matrix=C)


def _block_ranks(ops, context):
    """{(P, r): rank of the block from spin parity P to -P} of a supercharge
    given as its halves {r: operator}, one SVD per block. The cut is the
    whole charge's, _RANK_CUT times the largest singular value over all its
    blocks, and the whole charge's singular values (the blocks', padded with
    zeros) are checked for honesty: warn when they straddle the cut."""
    svals = {}
    for r, op in ops.items():
        for p, block in _parity_blocks(op, -1):
            svals[p, r] = np.linalg.svd(block, compute_uv=False)
            del block  # freed before the next block is built
    s = np.zeros(min(sum(op.codomain.dim for op in ops.values()),
                     sum(op.domain.dim for op in ops.values())))
    found = np.concatenate([np.zeros(0), *svals.values()])
    s[:len(found)] = np.sort(found)[::-1]
    rank = _rank(s)
    if 0 < rank < len(s):
        gap = s[rank - 1] / max(s[rank], np.finfo(float).tiny)
        if gap < 10.0:
            warnings.warn(
                f"ill-conditioned rank for {context}: singular values "
                f"{s[rank - 1]:.3e} / {s[rank]:.3e} straddle the threshold",
                stacklevel=3,
            )
    s_max = s[0] if len(s) else 0.0
    return {key: _rank(v, s_max) for key, v in svals.items()}


def cohomology_dimension(n, zeta):
    """(dim H on spin parity P = +1, dim H on P = -1) of the complex of Q on
    the momentum sector t_N = (-1)^{N+1}: dim ker Q_N - rank Q_{N-1} per
    (P, r) block, r the reflection eigenvalue, summed over r. Q_{N-1} maps
    (P, r) to (-P, (-1)^N r), so the image of Q_{N-1} in the (P, r) block
    comes from its (-P, (-1)^N r) block."""
    if n < 2:
        raise DomainError("cohomology needs n >= 2")
    Qn = _refined_supercharge(n, zeta)
    rank_n = _block_ranks(Qn, f"Q_{n}")
    rank_dn = _block_ranks(_refined_supercharge(n - 1, zeta), f"Q_{n - 1}")
    dims = {1: 0, -1: 0}
    for r, op in Qn.items():
        for p, cols in op.domain.parity_blocks:
            dims[p] += len(cols) - rank_n[p, r] - rank_dn.get((-p, (-1) ** n * r), 0)
    return dims[1], dims[-1]


@dataclass(frozen=True)
class Multiplet:
    """A positive-energy quadruplet (base; two middles; top) across three sizes."""

    energy: float
    base_size: int
    member_ids: tuple  # 1 + 2 + 1 state ids "{n}:{sector}:{index}"


@dataclass(frozen=True)
class MultipletReport:
    n_center: int
    zeta: float
    singlets: tuple  # (n, energy, state id)
    quadruplets: tuple = field(repr=False)

    def coverage(self):
        """Map (size, rounded energy) -> number of quadruplet members there."""
        out = {}
        for m in self.quadruplets:
            for sid in m.member_ids:
                size = int(sid.split(":")[0])
                key = (size, round(m.energy, 8))
                out[key] = out.get(key, 0) + 1
        return out


def _sector_id(n, index):
    tag = "t=+1" if (-1) ** (n + 1) > 0 else "t=-1"
    return f"{n}:{tag}:{index}"


def _eigen_data(n, zeta):
    sector = susy_sector(n)
    H = xyz_hamiltonian(n, CouplingLine(zeta), sector).matrix
    evals, evecs = _eigh_checked(H)
    zero_tol = 1e-9 * max(1.0, np.linalg.norm(H))
    return sector, evals, evecs, zero_tol


def _base_subspace(n, zeta, eigvecs, tol):
    """Columns of eigvecs annihilated by both Q_{n-1}^dag and Qt_{n-1}^dag."""
    if n < 2:
        return eigvecs
    dn = build_supercharges(n - 1, zeta)
    stacked = np.vstack([dn.q_plain.matrix.conj().T, dn.q_tilde.matrix.conj().T])
    img = stacked @ eigvecs
    scale = max(np.linalg.norm(stacked), 1.0)
    if eigvecs.shape[1] == 0:
        return eigvecs
    u, s, vh = np.linalg.svd(img, full_matrices=True)
    null_dim = int(np.sum(s < tol * scale)) + max(0, eigvecs.shape[1] - len(s))
    if null_dim == 0:
        return eigvecs[:, :0]
    return eigvecs @ vh.conj().T[:, eigvecs.shape[1] - null_dim:]


def multiplet_report(n_center, zeta):
    """Organize all positive-energy sector states at sizes n_center-1, n_center,
    n_center+1 into quadruplets built by explicit supercharge action.

    Quadruplets are anchored on base states (annihilated by both adjoints) at
    every size whose members can reach the scanned window. Raises
    InvariantViolation if any positive-energy state in the window is missed.
    """
    if n_center < 3:
        raise DomainError("multiplet scan needs n_center >= 3")
    window = (n_center - 1, n_center, n_center + 1)
    data = {}
    for k in range(max(2, n_center - 3), n_center + 2):
        data[k] = _eigen_data(k, zeta)

    singlets = []
    counters = {k: 0 for k in data}

    def take_id(size):
        i = counters[size]
        counters[size] += 1
        return _sector_id(size, i)

    # zero-energy singlets first (they occupy the lowest indices)
    for k in window:
        sector, evals, evecs, ztol = data[k]
        for e in evals:
            if abs(e) < ztol:
                singlets.append((k, float(e), take_id(k)))
            else:
                break

    quadruplets = []
    member_count = {k: 0 for k in window}
    for k in sorted(data):
        sector, evals, evecs, ztol = data[k]
        pair_k = build_supercharges(k, zeta)
        pair_k1 = build_supercharges(k + 1, zeta)
        for grp in _group_levels(evals, SPECTRAL_TOL):
            E = float(np.mean(evals[grp]))
            if abs(E) < ztol:
                continue
            base = _base_subspace(k, zeta, evecs[:, grp], SPECTRAL_TOL)
            for col in range(base.shape[1]):
                phi = base[:, col]
                up = pair_k.q_plain.matrix @ phi
                up_t = pair_k.q_tilde.matrix @ phi
                top = pair_k1.q_plain.matrix @ (pair_k.q_tilde.matrix @ phi)
                for v, name in ((up, "Q"), (up_t, "Qt"), (top, "QQt")):
                    if np.linalg.norm(v) < SPECTRAL_TOL:
                        raise InvariantViolation(
                            f"quadruplet member {name} vanished at size {k}, E={E}"
                        )
                ids = []
                for size in (k, k + 1, k + 1, k + 2):
                    if size in window:
                        ids.append(take_id(size))
                        member_count[size] += 1
                    else:
                        ids.append(f"{size}:outside:-")
                quadruplets.append(
                    Multiplet(energy=E, base_size=k, member_ids=tuple(ids))
                )

    for k in window:
        _, evals, _, ztol = data[k]
        positive = int(np.sum(np.abs(evals) >= ztol))
        if member_count[k] != positive:
            raise InvariantViolation(
                f"size {k}: {positive} positive-energy states but "
                f"{member_count[k]} quadruplet members"
            )

    return MultipletReport(
        n_center=n_center,
        zeta=zeta,
        singlets=tuple(singlets),
        quadruplets=tuple(quadruplets),
    )


def parity_covariance_check(n, zeta):
    """Check P_{N+1} Q_N P_N = (-1)^{N+1} Q_N on the sectors (P^2 = 1); for odd
    n also check that the odd-parity spectrum is contained in the even-parity
    one (`parity_spectral_inclusion`)."""
    Q = build_supercharges(n, zeta).q_plain
    resid = np.linalg.norm(_conjugated(Q, reverse_bits) - (-1.0) ** (n + 1) * Q.matrix)
    report = _check_record("parity_covariance", n, zeta, resid,
                           resid < 1e-10 * max(1.0, np.linalg.norm(Q.matrix)))
    if n % 2 == 0:
        return [report]
    residual, ok = parity_spectral_inclusion(n, zeta)
    return [report, _check_record("odd_parity_spectrum_containment", n, zeta, residual, ok)]


def parity_spectral_inclusion(n, zeta, tol=SPECTRAL_TOL):
    """Odd-parity spectrum contained in even-parity spectrum at momentum 0.

    Returns (residual, ok): ok iff every odd level has an even partner of its
    own; residual is the largest distance from an unmatched odd level to the
    unmatched even levels (inf if there are none), 0.0 when ok.
    """
    coupling = CouplingLine(zeta)
    odd = spectrum(xyz_hamiltonian(n, coupling, build_sector_basis(n, 1.0, parity=-1)))
    even = spectrum(xyz_hamiltonian(n, coupling, build_sector_basis(n, 1.0, parity=1)))
    _, odd_only, even_only = common_levels(odd, even, tol)
    gaps = [min((abs(f - e) for f in even_only), default=np.inf) for e in odd_only]
    return max(gaps, default=0.0), not odd_only
