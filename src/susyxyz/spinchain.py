"""Spin-1/2 chain Hilbert space, symmetry-adapted sectors and the XYZ Hamiltonian.

Basis states are bitmasks: bit j-1 set means spin "-" at site j (site 1 is the
least significant bit), so the translation operator is a cyclic bit rotation.
Sector bases carry an explicit orthonormal embedding matrix into the full
2^n-dimensional space; every sector operator is obtained by projecting a
sparse full-space operator through that embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DomainError


@dataclass(frozen=True)
class CouplingLine:
    """The supersymmetric line J_x J_y + J_x J_z + J_y J_z = 0, parametrized by zeta."""

    zeta: float

    @property
    def jx(self):
        return 1.0 + self.zeta

    @property
    def jy(self):
        return 1.0 - self.zeta

    @property
    def jz(self):
        return (self.zeta ** 2 - 1.0) / 2.0


@dataclass(frozen=True)
class SectorBasis:
    """Orthonormal symmetry-adapted basis of a momentum (and optionally
    parity / spin-parity) sector, with its embedding into the full space."""

    n: int
    t_eigenvalue: complex
    parity_eigenvalue: int | None
    spin_parity: int | None
    orbit_reps: tuple
    dim: int
    embedding: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class SectorOperator:
    """A dense complex matrix tagged with its domain and codomain bases."""

    domain: SectorBasis
    codomain: SectorBasis
    matrix: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise DomainError(
                f"matrix shape {self.matrix.shape} does not match bases "
                f"({self.codomain.dim}, {self.domain.dim})"
            )


def rotate_left(bits, n):
    """Translation T: |a_1 ... a_N> -> |a_N a_1 ... a_{N-1}>, a bit rotation."""
    return ((bits << 1) | (bits >> (n - 1))) & ((1 << n) - 1)


def reverse_bits(bits, n):
    out = 0
    for j in range(n):
        if bits >> j & 1:
            out |= 1 << (n - 1 - j)
    return out


def _orbits(n):
    """Yield (representative, period) for every translation orbit."""
    seen = bytearray(1 << n)
    for s in range(1 << n):
        if seen[s]:
            continue
        orbit = [s]
        t = rotate_left(s, n)
        while t != s:
            orbit.append(t)
            t = rotate_left(t, n)
        for x in orbit:
            seen[x] = 1
        yield min(orbit), len(orbit)


def symmetry_operator(kind, n):
    """Full-space operator (sparse) for translation, parity, spin reversal or S_N."""
    dim = 1 << n
    states = np.arange(dim)
    if kind == "translation":
        rows = np.array([rotate_left(s, n) for s in range(dim)])
        return sp.csr_matrix((np.ones(dim), (rows, states)), shape=(dim, dim))
    if kind == "parity":
        rows = np.array([reverse_bits(s, n) for s in range(dim)])
        return sp.csr_matrix((np.ones(dim), (rows, states)), shape=(dim, dim))
    if kind == "spin_reversal":
        rows = states ^ (dim - 1)
        return sp.csr_matrix((np.ones(dim), (rows, states)), shape=(dim, dim))
    if kind == "spin_parity":
        signs = np.array([(-1.0) ** bin(s).count("1") for s in range(dim)])
        return sp.diags(signs).tocsr()
    raise DomainError(f"unknown symmetry operator kind {kind!r}")


@lru_cache(maxsize=None)
def build_sector_basis(n, t_eigenvalue, parity=None, spin_parity=None):
    """Orthonormal basis of the momentum sector with translation eigenvalue t.

    Optional refinements: parity (requires t real) and spin parity (eigenvalue
    of S_N, i.e. parity of the number of down spins).
    """
    t = complex(t_eigenvalue)
    if abs(t ** n - 1.0) > 1e-9:
        raise DomainError(f"t={t} is not an {n}-th root of unity")
    if parity is not None and abs(t.imag) > 1e-12:
        raise DomainError("parity sectors require a real translation eigenvalue")

    reps = []
    for rep, period in _orbits(n):
        if abs(t ** period - 1.0) > 1e-9:
            continue
        if spin_parity is not None and (-1) ** bin(rep).count("1") != spin_parity:
            continue
        reps.append((rep, period))

    dim = 1 << n
    B = np.zeros((dim, len(reps)), dtype=complex)
    tbar = np.conj(t)
    for i, (rep, period) in enumerate(reps):
        # v = sqrt(p)/n * sum_j t^j T^{-j}|rep> = sqrt(p)/n * sum_j conj(t)^j T^j|rep>
        state = rep
        for j in range(n):
            B[state, i] += tbar ** j
            state = rotate_left(state, n)
        B[:, i] *= math.sqrt(period) / n

    basis = SectorBasis(
        n=n,
        t_eigenvalue=t,
        parity_eigenvalue=None,
        spin_parity=spin_parity,
        orbit_reps=tuple(reps),
        dim=len(reps),
        embedding=B,
    )
    if parity is None:
        return basis
    return _refine_parity(basis, int(parity))


def _refine_parity(basis, parity):
    P = symmetry_operator("parity", basis.n)
    B = basis.embedding
    evals, evecs = _eigh_checked(B.conj().T @ (P @ B))
    keep = np.where(np.abs(evals - parity) < 1e-8)[0]
    return replace(basis, parity_eigenvalue=parity, dim=len(keep), embedding=B @ evecs[:, keep])


def project(full_op, domain, codomain=None):
    """Restrict a full-space operator to sector coordinates."""
    codomain = codomain if codomain is not None else domain
    return SectorOperator(
        domain=domain,
        codomain=codomain,
        matrix=np.asarray(codomain.embedding.conj().T @ (full_op @ domain.embedding)),
    )


def xyz_hamiltonian_full(n, coupling):
    """Sparse XYZ Hamiltonian on the full 2^n space, including the constant shift."""
    if n < 2:
        raise DomainError(f"the XYZ chain needs n >= 2 sites, got {n}")
    jx, jy, jz = coupling.jx, coupling.jy, coupling.jz
    dim = 1 << n
    states = np.arange(dim)
    diag = np.full(dim, n * (jx + jy + jz) / 2.0)
    rows, cols, vals = [], [], []
    for j in range(n):
        jn = (j + 1) % n
        bj = (states >> j) & 1
        bk = (states >> jn) & 1
        zz = (1.0 - 2.0 * bj) * (1.0 - 2.0 * bk)
        diag -= 0.5 * jz * zz
        flipped = states ^ ((1 << j) | (1 << jn))
        aligned = bj == bk
        coeff = np.where(aligned, -(jx - jy) / 2.0, -(jx + jy) / 2.0)
        rows.append(flipped)
        cols.append(states)
        vals.append(coeff)
    rows.append(states)
    cols.append(states)
    vals.append(diag)
    H = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return H


def xyz_hamiltonian(n, coupling, sector):
    """Hermitian restriction of H_N to a sector basis."""
    if sector.n != n:
        raise DomainError(f"sector has n={sector.n}, expected {n}")
    return project(xyz_hamiltonian_full(n, coupling), sector)


def _eigh_checked(M, herm_tol=1e-10, check_residual=True, error=ContractError):
    """Ascending eigenpairs of the symmetrised M; raises `error` if M is not
    Hermitian to herm_tol * scale or a residual exceeds 1e-9 * scale."""
    scale = max(1.0, np.linalg.norm(M))
    if np.linalg.norm(M - M.conj().T) > herm_tol * scale:
        raise error("operator is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh((M + M.conj().T) / 2.0)
    if check_residual:
        resid = np.linalg.norm(M @ evecs - evecs * evals, axis=0)
        if np.any(resid > 1e-9 * scale):
            raise error("eigenpair reconstruction residual too large")
    return evals, evecs


def spectrum(op, herm_tol=1e-10, check_residual=True):
    """Ascending eigenvalues of a Hermitian square sector operator."""
    if op.matrix.shape[0] != op.matrix.shape[1]:
        raise ContractError("spectrum requires a square operator (domain = codomain)")
    return _eigh_checked(op.matrix, herm_tol, check_residual)[0]


def rescaled_spectrum(n, zeta, sector):
    """epsilon_j = 4 E_j / (3 + zeta^2) for the sector spectrum."""
    evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), sector))
    return 4.0 * evals / (3.0 + zeta ** 2)


def common_levels(e1, e2, tol=1e-8):
    """Greedy multiset matching of two sorted eigenvalue lists.

    Two values match when |E - E'| < max(tol, tol*|E|), E from e1; ties at
    the bound do not match. Returns (matched_pairs, only_in_first, only_in_second).
    """
    e1 = sorted(e1)
    e2 = sorted(e2)
    matched, only1, only2 = [], [], []
    i = j = 0
    while i < len(e1) and j < len(e2):
        a, b = e1[i], e2[j]
        if abs(a - b) < max(tol, tol * abs(a)):
            matched.append((a, b))
            i += 1
            j += 1
        elif a < b:
            only1.append(a)
            i += 1
        else:
            only2.append(b)
            j += 1
    only1.extend(e1[i:])
    only2.extend(e2[j:])
    return matched, only1, only2


def _group_levels(values, tol):
    """Indices of ascending values grouped into levels: v joins the current
    group iff |v - first| < max(tol, tol*|v|); a tie at the bound starts a new one."""
    groups = []
    for i, v in enumerate(values):
        if groups and abs(v - values[groups[-1][0]]) < max(tol, tol * abs(v)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _rank(s, threshold):
    """Numerical rank: singular values (descending) above threshold times the largest."""
    return int(np.sum(s > threshold * s[0])) if len(s) else 0


def spectrum_csv_rows(zeta, n, sector, energies):
    """Rows for the CSV export with header zeta,n,sector,index,energy."""
    return [
        (f"{zeta:.10g}", str(n), sector, str(i), f"{e:.12g}")
        for i, e in enumerate(energies)
    ]
