"""Spin-1/2 chain Hilbert space, symmetry-adapted sectors and the XYZ Hamiltonian.

Basis states are bitmasks: bit j-1 set means spin "-" at site j (site 1 is the
least significant bit), so the translation operator is a cyclic bit rotation.
A sector is built from the orbits of a step, here translation with eigenvalue
t: each basis vector is the phased orbit sum of a representative state, so its
embedding is a sparse CSC matrix whose rows index the model's basis states,
with one nonzero per state of the orbit (Lin, PRB 42, 6561 (1990); Sandvik,
arXiv:1101.3281). The same orbit-sum builder, for any signed permutation of
bitmask states, gives the hard-core fermion ring its T^3 sectors over the
hard-core masks. Every sector operator is a full operator, sparse or dense,
projected through that embedding, and every sector spectrum comes from one
checked eigensolve; only the small dim x dim result is dense. Translation
keeps the number of down spins, so every orbit sum has a definite spin parity
P = (-1)^{#down}; a sector records which columns have which P, and operators
that conserve P (the XYZ H) or flip it (the supercharge Q) are diagonalised or
ranked one parity block at a time. The dtype follows t: a real t (= +-1, the
sectors of the supercharges and of T^3) gives float64 embeddings and sector
operators, so their eigensolves and SVDs run in real arithmetic; any other t
gives complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DomainError

SPECTRAL_TOL = 1e-8  # default level-matching tolerance of every spectral check


@dataclass(frozen=True)
class CouplingLine:
    """The supersymmetric line J_x J_y + J_x J_z + J_y J_z = 0, parametrized by zeta."""

    zeta: float

    def __post_init__(self):
        if not math.isfinite(self.zeta):
            raise DomainError(f"zeta must be finite, got {self.zeta}")

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
    """Orthonormal symmetry-adapted basis of a sector of a model on n sites:
    a momentum sector of the spin chain (optionally refined by parity) or a
    T^3 sector of the hard-core fermion ring.

    `embedding` is the sparse CSC matrix whose rows index the model's basis
    (the 2^n spin states, or the hard-core masks) and whose dim columns are
    the basis vectors; t_eigenvalue is the eigenvalue of the orbit step
    (translation, or T^3), and `orbit_reps` holds the (representative,
    period) of every admitted orbit. Without a parity refinement column i is
    the orbit sum of orbit_reps[i], so nnz equals the number of states in the
    admitted orbits; a parity refinement mixes these orbit sums. A real t
    (|Im t| <= 1e-12, stored snapped to +-1) gives a float64 embedding,
    otherwise it is complex128.

    `parity_blocks` holds one (P, column indices) pair per spin parity
    P = (-1)^popcount present among the orbit representatives, P = +1 first;
    the hard-core masks of a fermion sector share one popcount, so they form
    one block, and a parity refinement is one block with P = 0 (no definite
    spin parity).
    """

    n: int
    t_eigenvalue: complex
    parity_eigenvalue: int | None
    orbit_reps: tuple
    dim: int
    embedding: sp.csc_matrix = field(repr=False, compare=False)
    parity_blocks: tuple = field(repr=False, compare=False)

    @cached_property
    def adjoint(self):
        """The sparse B^H of the embedding B; for a real B, its transpose,
        which shares B's arrays."""
        return self.embedding.conj().T if np.iscomplexobj(self.embedding) else self.embedding.T


@dataclass(frozen=True)
class SectorOperator:
    """A dense matrix tagged with its domain and codomain bases: float64 when
    both bases have a real t (= +-1) and the full-space operator is real,
    otherwise complex128."""

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
    """Parity: site j -> n+1-j; works on an int or an integer array."""
    out = 0
    for j in range(n):
        out = out | (((bits >> j) & 1) << (n - 1 - j))
    return out


def _spin_parity(bits):
    """(-1)^(number of set bits), elementwise of a nonnegative integer array."""
    return 1 - 2 * (np.bitwise_count(bits) & 1).astype(np.int64)


def _orbit_sector(states, n, step, t):
    """The eigenvalue-t sector of a signed permutation of a model's basis.

    `states` is the model's basis, an ascending integer array of n-bit states
    closed under `step`; step(x) returns (image, sign) elementwise. The
    smallest state of each orbit is its representative, and an orbit of
    period p is admitted iff t^p equals the product of the signs around it.
    Column i of the embedding is the orbit sum
    sum_{k<p} conj(t)^k s_k |step^k(rep_i)> / sqrt(p), where s_k is the sign
    accumulated over the first k steps; its rows index `states`. The orbits
    are ascending by representative, and the columns are split into spin
    parity blocks by the popcount of their representative, which the step
    keeps.
    """
    rep = states.copy()
    period = np.zeros(len(states), dtype=np.int64)
    loop_sign = np.ones(len(states))
    x, acc = states, np.ones(len(states))
    walked = 0
    while not period.all():
        walked += 1
        x, sign = step(x)
        acc = acc * sign
        np.minimum(rep, x, out=rep)
        closed = (period == 0) & (x == states)
        period[closed] = walked
        loop_sign[closed] = acc[closed]
    is_rep = rep == states
    keep = np.abs(t ** period[is_rep] - loop_sign[is_rep]) <= 1e-9
    reps, periods = states[is_rep][keep], period[is_rep][keep]

    rows, cols, vals = [], [], []
    index = np.arange(len(reps))
    x, acc = reps, np.ones(len(reps))
    tbar = np.conj(t)
    for k in range(walked):
        live = k < periods
        rows.append(np.searchsorted(states, x[live]))
        cols.append(index[live])
        vals.append(tbar ** k * acc[live] / np.sqrt(periods[live]))
        x, sign = step(x)
        acc = acc * sign
    B = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(states), len(reps)),
    )
    parity = _spin_parity(reps)
    return SectorBasis(
        n=n,
        t_eigenvalue=t,
        parity_eigenvalue=None,
        orbit_reps=tuple(zip(reps.tolist(), periods.tolist())),
        dim=len(reps),
        embedding=B,
        parity_blocks=tuple((p, np.flatnonzero(parity == p)) for p in (1, -1)
                            if np.any(parity == p)),
    )


def symmetry_operator(kind, n):
    """Full-space operator (sparse) for translation, parity or spin reversal."""
    dim = 1 << n
    states = np.arange(dim)
    if kind == "translation":
        return sp.csr_matrix((np.ones(dim), (rotate_left(states, n), states)), shape=(dim, dim))
    if kind == "parity":
        return sp.csr_matrix((np.ones(dim), (reverse_bits(states, n), states)), shape=(dim, dim))
    if kind == "spin_reversal":
        rows = states ^ (dim - 1)
        return sp.csr_matrix((np.ones(dim), (rows, states)), shape=(dim, dim))
    raise DomainError(f"unknown symmetry operator kind {kind!r}")


@lru_cache(maxsize=None)
def build_sector_basis(n, t_eigenvalue, parity=None):
    """Orthonormal basis of the momentum sector with translation eigenvalue t,
    optionally refined by parity (requires t real)."""
    t = complex(t_eigenvalue)
    if abs(t ** n - 1.0) > 1e-9:
        raise DomainError(f"t={t} is not an {n}-th root of unity")
    if abs(t.imag) <= 1e-12:
        t = 1.0 if t.real > 0 else -1.0  # snap, so the embedding is float64
    elif parity is not None:
        raise DomainError("parity sectors require a real translation eigenvalue")

    basis = _orbit_sector(np.arange(1 << n), n, lambda x: (rotate_left(x, n), 1.0), t)
    return basis if parity is None else _refine_parity(basis, int(parity))


def _refine_parity(basis, parity):
    P = symmetry_operator("parity", basis.n)
    evals, evecs = _eigh_checked(project(P, basis).matrix)
    keep = np.where(np.abs(evals - parity) < 1e-8)[0]
    refined = basis.embedding @ sp.csc_matrix(evecs[:, keep])
    return replace(basis, parity_eigenvalue=parity, dim=len(keep), embedding=refined,
                   parity_blocks=((0, np.arange(len(keep))),))


def project(full_op, domain, codomain=None):
    """Restrict a full-space operator, sparse or dense, to sector coordinates,
    B_cod^H (A B_dom); a sparse product is densified only at dim x dim."""
    codomain = codomain if codomain is not None else domain
    matrix = codomain.adjoint @ (full_op @ domain.embedding)
    return SectorOperator(
        domain=domain,
        codomain=codomain,
        matrix=matrix.toarray() if sp.issparse(matrix) else matrix,
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


def _eigh_checked(M):
    """Ascending eigenpairs of the symmetrised M, the one eigensolve of the
    package; raises ContractError if M is not Hermitian to 1e-12 * scale or a
    residual exceeds 1e-9 * scale."""
    scale = max(1.0, np.linalg.norm(M))
    adjoint = M.conj().T if np.iscomplexobj(M) else M.T
    if np.linalg.norm(M - adjoint) > 1e-12 * scale:
        raise ContractError("operator is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh((M + adjoint) / 2.0)
    resid = np.linalg.norm(M @ evecs - evecs * evals, axis=0)
    if resid.max(initial=0.0) > 1e-9 * scale:
        raise ContractError("eigenpair reconstruction residual too large")
    return evals, evecs


def _parity_blocks(op, flip):
    """The dense blocks of a sector operator that maps spin parity P to
    flip * P: one (P, block) pair per parity block of the domain, the block's
    rows being the codomain columns of parity flip * P (possibly none).

    Raises ContractError if the entries outside these blocks have a norm
    above 1e-12 * scale, scale = max(1, ||M||).
    """
    M = op.matrix
    blocks, mixed = [], 0.0
    for p, cols in op.domain.parity_blocks:
        rows = np.zeros(0, dtype=np.intp)
        for q, q_cols in op.codomain.parity_blocks:
            if q == flip * p:
                rows = q_cols
            else:
                mixed += np.linalg.norm(M.take(q_cols, 0).take(cols, 1)) ** 2
        blocks.append((p, M.take(rows, 0).take(cols, 1)))
    if mixed and math.sqrt(mixed) > 1e-12 * max(1.0, np.linalg.norm(M)):
        raise ContractError("operator mixes the spin parity blocks of its sectors")
    return blocks


def spectrum(op):
    """Ascending eigenvalues of a Hermitian square sector operator that
    conserves the spin parity: the sorted union of its block spectra."""
    if op.matrix.shape[0] != op.matrix.shape[1]:
        raise ContractError("spectrum requires a square operator (domain = codomain)")
    levels = [_eigh_checked(block)[0] for _, block in _parity_blocks(op, 1)]
    return np.sort(np.concatenate([np.zeros(0), *levels]))


def rescaled_spectrum(n, zeta, sector):
    """epsilon_j = 4 E_j / (3 + zeta^2) for the sector spectrum."""
    evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), sector))
    return 4.0 * evals / (3.0 + zeta ** 2)


def common_levels(e1, e2, tol=SPECTRAL_TOL):
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


_RANK_CUT = 1e-10


def _rank(s, s_max=None):
    """Numerical rank: singular values (descending) above _RANK_CUT times the
    largest, or times s_max when s is one block of a larger set of singular
    values whose largest is s_max."""
    if s_max is None:
        s_max = s[0] if len(s) else 0.0
    return int(np.sum(s > _RANK_CUT * s_max))


def _check_record(relation, n, zeta, residual, ok):
    """One check of a JSON report: {relation, n, zeta, residual, pass}."""
    return {
        "relation": relation,
        "n": n,
        "zeta": zeta,
        "residual": float(residual),
        "pass": bool(ok),
    }


def spectrum_csv_rows(zeta, n, sector, energies):
    """Rows for the CSV export with header zeta,n,sector,index,energy."""
    return [
        (f"{zeta:.10g}", str(n), sector, str(i), f"{e:.12g}")
        for i, e in enumerate(energies)
    ]
