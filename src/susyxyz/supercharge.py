"""Length-changing lattice supercharges and the N=(2,2) structure they generate.

The local operator q_j replaces a down spin at site j by a pair ++ (weight
(-1)^{j-1}) or -- (weight -zeta*(-1)^{j-1}), growing the chain by one site;
q_0 creates the pair across the periodic boundary. The supercharge
Q_N = sqrt(N/(N+1)) * sum_j q_j is a well-defined map between the momentum
sectors t_N = (-1)^{N+1} and t_{N+1} = (-1)^{N+2}, squares to zero, and
builds the XYZ Hamiltonian as an anticommutator. The spin-reversed partner
Qt_N = R_{N+1} Q_N R_N completes the algebra; their interplay organizes all
positive-energy states into quadruplets spanning three chain lengths.

The terms are translates of one another, T_{N+1} q_j T_N^{-1} = -q_{j+1} for
j < N, so on the sector t_N the sum collapses to the codomain's projector:
Q_N Pi_N = sqrt(N(N+1)) Pi_{N+1} q_0 Pi_N. Q_N is built in sector coordinates
from q_0 alone, applied to the states of each domain orbit, its images folded
onto the codomain's orbit sums, one spin parity block at a time. Spin
reversal maps orbit sums to +- orbit sums, so each block of Qt_N is a block
of Q_N with its rows and columns permuted and signed. The cohomology ranks
read Q_N on the reflection refinements of the sectors instead, which lie
inside the momentum sectors: four (spin parity, reflection) blocks, each
about a quarter of the sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .eightvertex import _path_codes, path_rank_complement, transfer_apply
from .elliptic import ThetaContext, h, zeta_of_nome
from .errors import ContractError, DomainError
from .spinchain import (
    SPECTRAL_TOL,
    CouplingLine,
    SectorOperator,
    _block_ranks,
    _check_record,
    _fold,
    _parity_blocks,
    _parity_columns,
    _require_tol,
    _signed_orbit_map,
    _spin_parity,
    _suite_report,
    _xyz_terms,
    build_sector_basis,
    common_levels,
    reverse_spins,
    spectrum,
    xyz_apply,
    xyz_hamiltonian,
)

ALGEBRA_TOL = 1e-10  # default bound on the absolute residual of each relation


def susy_sector(n, parity=None):
    """The momentum sector t_N = (-1)^{N+1} on which the supercharges act,
    or its reflection-`parity` refinement."""
    t = float((-1) ** (n + 1))
    return build_sector_basis(n, t, parity)


def _conjugated(Q, symmetry):
    """S_{N+1} Q S_N for a symmetry S that maps orbit sums to +- orbit sums
    (`_signed_orbit_map`), as blocks: each block of Q with its rows and
    columns permuted and signed. S maps spin parity P to s P, s the parity of
    S|0> on its side, so S Q S maps P to s_out * Q.flip * s_in * P."""
    s_in, s_out = (int(_spin_parity(symmetry(0, b.n))) for b in (Q.domain, Q.codomain))
    return SectorOperator(Q.domain, Q.codomain,
                          partial(_conjugated_blocks, Q, symmetry, s_in, s_out),
                          s_out * Q.flip * s_in)


def _conjugated_blocks(Q, symmetry, s_in, s_out):
    """The blocks of `_conjugated`: its block on the domain parity s_in * q
    is the block q of Q, read through the signed orbit maps of S out of Q's
    kept matrix, so a reader of both Q and S Q S builds Q's blocks once."""
    dom, cod = Q.domain, Q.codomain
    perm_in, sign_in = _signed_orbit_map(dom, symmetry)
    perm_out, sign_out = _signed_orbit_map(cod, symmetry)
    M = Q.matrix
    for q, _ in dom.parity_blocks:
        cols = _parity_columns(dom, s_in * q)
        rows = _parity_columns(cod, s_out * Q.flip * q)
        moved = M[np.ix_(perm_out[rows], perm_in[cols])]
        yield s_in * q, sign_out[rows, None] * moved * sign_in[cols]


@dataclass(frozen=True)
class SuperchargePair:
    """Q_N and its spin-reversed partner Qt_N = R_{N+1} Q_N R_N on the momentum
    sectors. Both are held as parity blocks; each block of Qt_N is a block of
    Q_N with its rows and columns permuted and signed (`_conjugated`), read
    out of the matrix of Q_N, which is built and kept when Qt_N is read. R_N
    maps spin parity P to (-1)^N P, so Qt_N maps P to P."""

    n: int
    zeta: float
    q_plain: SectorOperator

    @cached_property
    def q_tilde(self):
        return _conjugated(self.q_plain, reverse_spins)


def build_supercharges(n, zeta):
    """Q_N = sqrt(N/(N+1)) sum_{j=0}^{N} q_j on the momentum sectors, as parity
    blocks built when read; its partner Qt_N is formed on demand."""
    CouplingLine(zeta)  # raises DomainError for a non-finite zeta
    q = SectorOperator(susy_sector(n), susy_sector(n + 1), partial(_q_blocks, n, zeta), -1)
    return SuperchargePair(n=n, zeta=zeta, q_plain=q)


def _refined_supercharge(n, zeta):
    """{r: Q_N on the reflection-r refinement of its domain} for r = +-1. The
    reflection (`spinchain.reverse_bits`) maps Q_N to (-1)^{N+1} Q_N, so the
    codomain is the (-1)^{N+1} r refinement, and the spin parity blocks of
    the two halves are the four (P, r) blocks of Q_N."""
    CouplingLine(zeta)  # raises DomainError for a non-finite zeta
    return {r: SectorOperator(susy_sector(n, r), susy_sector(n + 1, (-1) ** (n + 1) * r),
                              partial(_q_blocks, n, zeta, r), -1)
            for r in (1, -1)}


def _q_blocks(n, zeta, reflection=None):
    """The blocks of Q_N, one at a time, on the momentum sectors or from
    their reflection refinements (`_refined_supercharge`), as
    sqrt(N(N+1)) Pi_{N+1} q_0 (module docstring). q_0 acts on a down spin at
    site N and creates the pair on sites (N+1, 1), ++ with weight -1 and --
    with weight zeta; it is applied to every such state x of the domain's
    orbit sums, with the state's amplitude, and its images are folded onto
    the codomain's columns (`_fold`). q_0 maps spin parity P to -P."""
    image = None if reflection is None else (-1) ** (n + 1) * reflection
    dom, cod = susy_sector(n, reflection), susy_sector(n + 1, image)
    column, amplitude = dom.column, dom.amplitude
    top = 1 << (n - 1)  # a down spin at site N
    states = top + np.flatnonzero(column[top:] >= 0)  # the admitted states q_0 acts on
    parity = _spin_parity(states)
    scale = math.sqrt(n * (n + 1))
    for p, cols in dom.parity_blocks:
        x = states[parity == p]
        src, amp = dom.block_position[column[x]], scale * amplitude[x]
        block = np.zeros((len(_parity_columns(cod, -p)), len(cols)))
        images = np.concatenate([(x << 1) ^ (top << 1), (x << 1) | 1])  # the ++ and -- pairs
        _fold(block, cod, -p, np.tile(src, 2), images, np.concatenate([-amp, zeta * amp]))
        yield p, block
        del block  # once the reader drops it too, freed before the next block


def verify_algebra(up, dn, tol=ALGEBRA_TOL):
    """Residuals of the nilpotency, cross and Hamiltonian relations between
    Q and Qt, for the pairs up = Q_n and dn = Q_{n-1} (`build_supercharges`)
    at one zeta.

    Returns a list of {relation, n, zeta, residual, pass} records; a relation
    passes iff its residual is below max(tol, 1e-16). The adjoint halves of
    each relation are exact transposes and are not repeated.
    """
    n, zeta = up.n, up.zeta
    if (dn.n, dn.zeta) != (n - 1, zeta):
        raise ContractError(f"Q_{dn.n} at zeta={dn.zeta} is not the pair below Q_{n} at {zeta}")
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


def algebra_suite(ns, zetas, tol=ALGEBRA_TOL):
    """The `verify_algebra` records at every n of ns and zeta of zetas, n
    first. verify_algebra(n) reads Q_n and Q_{n-1}, so each pair is built
    once and shared by consecutive n."""
    _require_tol(tol)
    pair, checks = cache(build_supercharges), []
    for n in ns:
        if n < 2:
            raise DomainError("the algebra check needs n >= 2")
        for zeta in zetas:
            checks.extend(verify_algebra(pair(n, zeta), pair(n - 1, zeta), tol))
    return _suite_report("algebra", tol=tol, checks=checks)


def _charge_ranks(halves, context):
    """{(P, r): rank of the block from spin parity P to -P} of a supercharge
    given as its halves {r: operator}, under one cut over all four blocks."""
    return _block_ranks((((p, r), block) for r, op in halves.items()
                         for p, block in _parity_blocks(op, -1)), context)


def cohomology_dimension(n, zeta):
    """(dim H on spin parity P = +1, dim H on P = -1) of the complex of Q on
    the momentum sector t_N = (-1)^{N+1}: dim ker Q_N - rank Q_{N-1} per
    (P, r) block, r the reflection eigenvalue, summed over r. Q_{N-1} maps
    (P, r) to (-P, (-1)^N r), so the image of Q_{N-1} in the (P, r) block
    comes from its (-P, (-1)^N r) block."""
    if n < 2:
        raise DomainError("cohomology needs n >= 2")
    Qn = _refined_supercharge(n, zeta)
    rank_n = _charge_ranks(Qn, f"Q_{n}")
    rank_dn = _charge_ranks(_refined_supercharge(n - 1, zeta), f"Q_{n - 1}")
    dims = {1: 0, -1: 0}
    for r, op in Qn.items():
        for p, cols in op.domain.parity_blocks:
            dims[p] += len(cols) - rank_n[p, r] - rank_dn.get((-p, (-1) ** n * r), 0)
    return dims[1], dims[-1]


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


def cohomology_suite(ns, zetas):
    """dim H per n, in total and per spin parity (P = +1, P = -1); a pass
    needs the same split at every zeta, (1, 1) at odd n and (0, 0) at even n."""
    dims, by_parity, ok = {}, {}, True
    for n in ns:
        vals = [cohomology_dimension(n, z) for z in zetas]
        dims[str(n)] = sum(vals[0])
        by_parity[str(n)] = list(vals[0])
        ok = ok and set(vals) == {(1, 1) if n % 2 else (0, 0)}
    return {"suite": "cohomology", "zetas": list(zetas), "dims": dims,
            "dims_by_parity": by_parity, "pass": ok}


def conjectures_suite(ns, zetas, nomes, s, t, tol=SPECTRAL_TOL):
    """The odd-n conjectures: at odd n the odd-parity levels lie among the
    even ones (`parity_spectral_inclusion`); per nome, the path count and
    rank, and at odd n the complement of the paths' span has zero energy and
    the transfer eigenvalue h(u)^n at three u, both bounded by tol."""
    _require_tol(tol)
    checks = []
    for n in ns:
        if n % 2 == 0:
            continue
        for z in zetas:
            r, ok = parity_spectral_inclusion(n, z, tol)
            checks.append(_check_record("parity_spectral_inclusion", n, z, r, ok))
    for nome in nomes:
        ctx = ThetaContext(nome=nome, s=s, t=t)
        zeta = zeta_of_nome(nome)
        for n in ns:
            count = len(_path_codes(n))
            expected = 2 ** n + 2 * (-1) ** n
            checks.append(_check_record("path_count", n, zeta, abs(count - expected),
                                        count == expected))
            rank, comp = path_rank_complement(n, ctx, complement=n % 2 == 1)
            exp_rank = 2 ** n if n % 2 == 0 else 2 ** n - 2
            checks.append(_check_record("path_rank", n, zeta, abs(rank - exp_rank),
                                        rank == exp_rank))
            if n % 2 == 1:
                # the complement lives in the full space; apply H bond by bond,
                # whose Frobenius norm is that of its (duplicate-free at n >= 3)
                # bond coefficients and diagonal
                coupling = CouplingLine(zeta)
                r_energy = np.linalg.norm(xyz_apply(n, coupling, comp))
                diag, _, coeff = _xyz_terms(n, coupling, np.arange(1 << n))
                scale = np.linalg.norm(np.concatenate([coeff.ravel(), diag]))
                checks.append(_check_record("complement_zero_energy", n, zeta, r_energy,
                                            r_energy < tol * max(1.0, scale)))
                r_transfer = 0.0
                for u in (0.35, 0.8, 1.3):
                    lam = h(u, ctx) ** n
                    r_transfer = max(
                        r_transfer,
                        np.linalg.norm(transfer_apply(n, u, ctx, comp) - lam * comp)
                        / max(1.0, abs(lam)),
                    )
                checks.append(_check_record("complement_transfer_eigenvalue", n, zeta,
                                            r_transfer, r_transfer < tol))
    return _suite_report("conjectures", tol=tol, checks=checks)
