"""Spin-1/2 chain Hilbert space, symmetry-adapted sectors and the XYZ Hamiltonian.

Basis states are bitmasks: bit j-1 set means spin "-" at site j (site 1 is the
least significant bit), so the translation operator is a cyclic bit rotation.
A sector is built from the orbits of a step, here translation with eigenvalue
t: each basis vector is the phased orbit sum of a representative state, and
the sector is its orbit table, which gives every state of the model's basis
the orbit sum that holds it and its amplitude there (Lin, PRB 42, 6561 (1990);
Sandvik, arXiv:1101.3281, section 4). The embedding B has one nonzero per
row, so `embed` (B X) and `restrict` (B^H Y) act through the table in
O(rows * columns of X). The same orbit-sum builder, for any signed
permutation of bitmask states, gives the hard-core fermion ring its T^3
sectors over the hard-core masks, and, run on the columns of a real-t
momentum sector, which the reflection maps to +- columns, its parity
refinements. Translation and reflection keep the number of down spins, so
every orbit sum has a definite spin parity P = (-1)^{#down}; a sector records
which columns have which P. The sector operators, the XYZ H (which keeps P),
the supercharges (which flip it) and the fermion H, are built straight in
sector coordinates by applying their local terms to the orbit
representatives and folding the images onto columns through the table; none
is formed on the full space first. On full-space vectors (2^n rows) the XYZ
H is applied bond by bond (`xyz_apply`), as `transfer_apply` applies T.
Every sector spectrum comes from one checked eigensolve per parity block.
The dtype follows t: a real t (= +-1, the sectors of the supercharges and of
T^3) gives float64 amplitudes and sector operators, so their eigensolves and
SVDs run in real arithmetic; any other t gives complex128.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

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


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Orthonormal symmetry-adapted basis of a sector of a model on n sites:
    a momentum sector of the spin chain (optionally refined by parity) or a
    T^3 sector of the hard-core fermion ring.

    The basis is its orbit table over the model's basis (the 2^n spin
    states, or the hard-core masks): `column` holds, per state, the orbit sum
    that holds it, or -1 if its orbit is not admitted, and `amplitude` the
    state's coefficient in that orbit sum (0 for -1). t_eigenvalue is the
    eigenvalue of the orbit step (translation, or T^3); `reps` and `periods`,
    read-only int64 arrays, hold the smallest state and the number of states
    of every admitted orbit, and column i is the orbit sum of orbit i. An
    orbit of a parity refinement is a translation orbit joined to its mirror
    image, or a mirror-symmetric one. A real t (|Im t| <= 1e-12, stored
    snapped to +-1) gives float64 amplitudes, otherwise they are complex128.
    Sectors compare by identity.
    """

    n: int
    t_eigenvalue: complex
    parity_eigenvalue: int | None
    reps: np.ndarray = field(repr=False)
    periods: np.ndarray = field(repr=False)
    column: np.ndarray = field(repr=False)
    amplitude: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.reps.flags.writeable = self.periods.flags.writeable = False

    @property
    def dim(self):
        return len(self.reps)

    @cached_property
    def parity_blocks(self):
        """(P, column indices) per spin parity P = (-1)^popcount of the orbit
        representatives, P = +1 first; a fermion sector's masks form one block."""
        parity = _spin_parity(self.reps)
        return tuple((p, np.flatnonzero(parity == p)) for p in (1, -1) if np.any(parity == p))

    @cached_property
    def orbit_members(self):
        """(states, weights), two dim x (largest period) arrays: row c holds
        the states of orbit sum c, ascending, and their conj(amplitude),
        padded with state 0 and weight 0 past the orbit's period."""
        periods = self.periods
        rows = np.argsort(self.column, kind="stable")[len(self.column) - int(periods.sum()):]
        cols = self.column[rows]
        place = (cols, np.arange(len(rows)) - (np.cumsum(periods) - periods)[cols])
        states = np.zeros((self.dim, periods.max(initial=0)), dtype=np.intp)
        weights = np.zeros(states.shape, dtype=self.amplitude.dtype)
        states[place], weights[place] = rows, np.conj(self.amplitude[rows])
        return states, weights

    @cached_property
    def block_position(self):
        """The position of every column within its spin parity block."""
        position = np.empty(self.dim, dtype=np.intp)
        for _, cols in self.parity_blocks:
            position[cols] = np.arange(len(cols))
        return position


def embed(basis, X):
    """B X: the columns of X (dim rows of sector coordinates) as vectors on
    the model's basis, amplitude * X[column] per state (0 outside the
    admitted orbits)."""
    rows = np.flatnonzero(basis.column >= 0)
    out = np.zeros((len(basis.column), X.shape[1]), dtype=np.result_type(basis.amplitude, X))
    out[rows] = basis.amplitude[rows, None] * X[basis.column[rows]]
    return out


def restrict(basis, Y):
    """B^H Y: the sector coordinates of the columns of Y (one row per state
    of the model's basis), conj(amplitude) * Y summed over each orbit, one
    position in the orbits at a time."""
    states, weights = basis.orbit_members
    out = np.zeros((basis.dim, Y.shape[1]), dtype=np.result_type(weights, Y))
    for j in range(states.shape[1]):
        out += weights[:, j, None] * Y[states[:, j]]
    return out


def _parity_columns(basis, parity):
    """The columns of a sector with spin parity `parity` (possibly none)."""
    return dict(basis.parity_blocks).get(parity, np.zeros(0, dtype=np.intp))


class SectorOperator:
    """A matrix from one sector basis to another, codomain.dim x domain.dim,
    that maps spin parity P to flip * P: float64 when both bases have a real
    t (= +-1) and the operator is real, otherwise complex128.

    It is held as `blocks`, a function that builds its blocks one at a time:
    one (P, block) pair per spin parity block of the domain, the block's rows
    being the codomain columns of parity flip * P (possibly none); the
    entries outside these blocks are zero by construction. The blocks are
    built again on every read and not kept, so a reader that takes them in
    turn (`spectrum`, the cohomology ranks) holds one at a time; `matrix`,
    the whole dense matrix, is assembled from them when first read, and kept.
    """

    def __init__(self, domain, codomain, blocks, flip):
        self.domain, self.codomain, self.blocks, self.flip = domain, codomain, blocks, flip

    @cached_property
    def matrix(self):
        M = np.zeros((self.codomain.dim, self.domain.dim),
                     dtype=np.result_type(self.domain.amplitude, self.codomain.amplitude))
        for p, block in self.blocks():
            rows = _parity_columns(self.codomain, self.flip * p)
            M[np.ix_(rows, _parity_columns(self.domain, p))] = block
        return M


def rotate_left(bits, n):
    """Translation T: |a_1 ... a_N> -> |a_N a_1 ... a_{N-1}>, a bit rotation."""
    return ((bits << 1) | (bits >> (n - 1))) & ((1 << n) - 1)


def reverse_bits(bits, n):
    """Parity: site j -> n+1-j; works on an int or an integer array."""
    out = 0
    for j in range(n):
        out = out | (((bits >> j) & 1) << (n - 1 - j))
    return out


def reverse_spins(bits, n):
    """Spin reversal: every spin of n sites flipped; works on an int or an integer array."""
    return bits ^ ((1 << n) - 1)


def _spin_parity(bits):
    """(-1)^(number of set bits), elementwise of a nonnegative integer array."""
    return 1 - 2 * (np.bitwise_count(bits) & 1).astype(np.int64)


def _orbit_sector(states, n, step, t):
    """The eigenvalue-t sector of a signed permutation of a model's basis.

    `states` is the model's basis, an ascending integer array of n-bit states
    closed under `step`; step(x) returns (image, sign) elementwise. The
    smallest state of each orbit is its representative, and an orbit of
    period p is admitted iff t^p equals the product of the signs around it.
    Column i is the orbit sum sum_{k<p} conj(t)^k s_k |step^k(rep_i)> / sqrt(p),
    where s_k is the sign accumulated over the first k steps, and the orbit
    table over `states` gives every state its column and amplitude. The orbits
    are ascending by representative. A state's row in the table is found by
    binary search, or is the state itself when `states` is 0 ... len - 1.
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

    column = np.full(len(states), -1, dtype=np.intp)
    amplitude = np.zeros(len(states), dtype=np.result_type(np.conj(t), np.float64))
    index = np.arange(len(reps))
    x, acc = reps, np.ones(len(reps))
    tbar = np.conj(t)
    contiguous = states[0] == 0 and states[-1] == len(states) - 1
    for k in range(walked):
        live = k < periods
        rows = x[live] if contiguous else np.searchsorted(states, x[live])
        column[rows] = index[live]
        amplitude[rows] = tbar ** k * acc[live] / np.sqrt(periods[live])
        x, sign = step(x)
        acc = acc * sign
    return SectorBasis(
        n=n,
        t_eigenvalue=t,
        parity_eigenvalue=None,
        reps=reps,
        periods=periods,
        column=column,
        amplitude=amplitude,
    )


def build_sector_basis(n, t_eigenvalue, parity=None):
    """Orthonormal basis of the momentum sector with translation eigenvalue t,
    optionally refined by parity +-1 (requires t real). t is snapped and the
    parity normalised before the cache lookup, so all the keys that name one
    sector read one entry; `cache_info` and `cache_clear` are the cache's."""
    if parity not in (None, 1, -1):
        raise DomainError(f"parity must be None, 1 or -1, got {parity!r}")
    t = complex(t_eigenvalue)
    if abs(t ** n - 1.0) > 1e-9:
        raise DomainError(f"t={t} is not an {n}-th root of unity")
    if abs(t.imag) <= 1e-12:
        t = 1.0 if t.real > 0 else -1.0  # snap, so the amplitudes are float64
    elif parity is not None:
        raise DomainError("parity sectors require a real translation eigenvalue")
    return _sector_basis(n, t, None if parity is None else int(parity))


@lru_cache(maxsize=None)
def _sector_basis(n, t, parity):
    """The cached sectors of `build_sector_basis`. A refinement is built from
    the cached momentum sector, so it walks no 2^n states again."""
    if parity is not None:
        return _refine_parity(_sector_basis(n, t, None), parity)
    return _orbit_sector(np.arange(1 << n), n, lambda x: (rotate_left(x, n), 1.0), t)


build_sector_basis.cache_info = _sector_basis.cache_info
build_sector_basis.cache_clear = _sector_basis.cache_clear


def _signed_orbit_map(basis, symmetry):
    """(perm, sign) with S|c~> = sign[c] |perm[c]~> for the orbit sums c~ of
    a real-t sector and a symmetry S = symmetry(bits, n) that maps each to
    +- another: c~ goes to the orbit sum of S r, r its representative."""
    reps = basis.reps
    images = symmetry(reps, basis.n)
    perm = basis.column[images]
    return perm, basis.amplitude[images] / basis.amplitude[reps[perm]]


def _refine_parity(basis, parity):
    """The reflection eigenvalue `parity` part of a real-t momentum sector:
    the reflection maps each column to +- another, and its eigenvalue-`parity`
    orbit sums over the columns (`_orbit_sector`) are the refined columns, whose
    table composed with the momentum table is the refined orbit table."""
    perm, sign = _signed_orbit_map(basis, reverse_bits)
    pairs = _orbit_sector(np.arange(basis.dim), basis.n, lambda c: (perm[c], sign[c]), parity)
    cols = pairs.reps
    # the appended -1 and 0 are read by the states whose orbit is not admitted (column -1)
    column = np.append(pairs.column, -1)[basis.column]
    amplitude = basis.amplitude * np.append(pairs.amplitude, 0.0)[basis.column]
    return replace(basis, parity_eigenvalue=parity, reps=basis.reps[cols],
                   periods=basis.periods[cols] * pairs.periods, column=column, amplitude=amplitude)


def _fold(block, codomain, parity, src, images, values):
    """Add the images of a local term to a parity block of a sector operator.

    Source i, at block column src[i], has the term image images[i] (a spin
    state) with weight values[i]; the image's orbit sum, if admitted, gets
    values[i] * conj(amplitude) in the block row of its column. Images whose
    orbit is not admitted have no component in the sector and are dropped.
    Raises ContractError if an image has spin parity other than `parity`,
    that of the block's rows.
    """
    if np.any(_spin_parity(images) != parity):
        raise ContractError(f"a term maps a state out of the spin parity block P = {parity}")
    _add_images(block, codomain.block_position, codomain, src, images, values)


def _add_images(matrix, position, codomain, src, images, values):
    """matrix[position[c], src[i]] += values[i] * conj(amplitude[images[i]])
    for every image whose orbit sum c in the codomain is admitted."""
    cols = codomain.column[images]
    keep = cols >= 0
    weights = values[keep] * np.conj(codomain.amplitude[images[keep]])
    # matrix is C-contiguous, so the flat view adds into it
    flat = position[cols[keep]] * matrix.shape[1] + src[keep]
    np.add.at(matrix.reshape(-1), flat, weights)


def _xyz_terms(n, coupling, states):
    """The XYZ H (with its constant shift) on an array of n-bit states:
    (diag, flips, coeff), diag the diagonal entry of each state, and per bond
    j the flip mask flips[j] and coefficients coeff[j] (one row per bond) of
    the term taking state x to x ^ flips[j]. Bond j joins sites j + 1 and
    j + 2 (mod n), bits j and (j + 1) mod n; the diagonal takes the bonds' zz
    terms one at a time."""
    jx, jy, jz = coupling.jx, coupling.jy, coupling.jz
    j = np.arange(n)[:, None]
    jn = (j + 1) % n
    bj, bk = (states >> j) & 1, (states >> jn) & 1  # one row per bond
    zz = (1.0 - 2.0 * bj) * (1.0 - 2.0 * bk)
    diag = np.full(len(states), n * (jx + jy + jz) / 2.0)
    for bond in zz:
        diag -= 0.5 * jz * bond
    coeff = np.where(bj == bk, -(jx - jy) / 2.0, -(jx + jy) / 2.0)
    return diag, (1 << j | 1 << jn).ravel(), coeff


def xyz_apply(n, coupling, V):
    """H_N @ V (with its constant shift) for V with 2^n rows, without forming
    H: diag * V plus, bond by bond, coeff * V at the rows x ^ flip
    (`_xyz_terms`); the counterpart of `eightvertex.transfer_apply`."""
    if n < 2:
        raise DomainError(f"the XYZ chain needs n >= 2 sites, got {n}")
    V = np.asarray(V)
    if V.shape[:1] != (1 << n,):
        raise DomainError(f"H acts on arrays with 2^{n} rows, got shape {V.shape}")
    V = V.astype(np.result_type(V, 1.0), copy=False)  # float, so a term scales in place
    states = np.arange(1 << n)
    diag, flips, coeff = _xyz_terms(n, coupling, states)
    rows = (-1,) + (1,) * (V.ndim - 1)  # a row's factor broadcast over its columns
    out = diag.reshape(rows) * V
    for flip, c in zip(flips, coeff):
        term = V[states ^ flip]
        term *= c.reshape(rows)  # in place: one temporary per bond
        out += term
    return out


def xyz_hamiltonian(n, coupling, sector):
    """Hermitian restriction of H_N (with its constant shift) to a sector
    basis, built in sector coordinates one spin parity block at a time.

    The orbit sum of a representative r is Pi|r> / amp(r), Pi the sector's
    projector, which commutes with H, so <s~|H|r~> = sqrt(size_r) <s~|H|r>
    (size_r the number of states of r's orbit): the n bond terms are applied
    to the representatives r alone and their images folded onto the columns
    (`_fold`).
    """
    if sector.n != n:
        raise DomainError(f"sector has n={sector.n}, expected {n}")
    if n < 2:
        raise DomainError(f"the XYZ chain needs n >= 2 sites, got {n}")
    return SectorOperator(sector, sector, blocks=partial(_xyz_blocks, n, coupling, sector), flip=1)


def _xyz_blocks(n, coupling, sector):
    """The parity blocks of `xyz_hamiltonian`, built one at a time."""
    all_reps, all_sizes = sector.reps, sector.periods
    for p, cols in sector.parity_blocks:
        reps, src = all_reps[cols], np.arange(len(cols))
        block = np.zeros((len(cols), len(cols)), dtype=sector.amplitude.dtype)
        diag, flips, coeff = _xyz_terms(n, coupling, reps)
        _fold(block, sector, p, np.tile(src, n), (reps ^ flips[:, None]).ravel(),
              (np.sqrt(all_sizes[cols]) * coeff).ravel())
        block[src, src] += diag
        yield p, block


def _eigh_checked(M, vectors=True):
    """Ascending eigenpairs of the symmetrised M, or with vectors=False the
    ascending eigenvalues of M alone: the one eigensolve of the package.

    Raises ContractError if M is not Hermitian to 1e-12 * scale, scale =
    max(1, ||M||_F). The eigenpairs are checked by their residuals, each within
    1e-9 * scale. The eigenvalues alone are checked by two moments: sum(lambda)
    = tr M within 1e-9 * scale and sum(lambda^2) = ||M||_F^2 within
    1e-9 * scale^2. They come from one triangle of M, which by Weyl's
    inequality moves them by at most the asymmetry, so M is not symmetrised.
    """
    norm = np.linalg.norm(M)
    scale = max(1.0, norm)
    adjoint = M.conj().T if np.iscomplexobj(M) else M.T
    if np.linalg.norm(M - adjoint) > 1e-12 * scale:
        raise ContractError("operator is not Hermitian within tolerance")
    if not vectors:
        evals = np.linalg.eigvalsh(M)
        if not (abs(evals.sum() - np.trace(M).real) <= 1e-9 * scale
                and abs(evals @ evals - norm ** 2) <= 1e-9 * scale ** 2):
            raise ContractError("eigenvalues miss the trace or the Frobenius norm of the operator")
        return evals
    evals, evecs = np.linalg.eigh((M + adjoint) / 2.0)
    resid = np.linalg.norm(M @ evecs - evecs * evals, axis=0)
    if resid.max(initial=0.0) > 1e-9 * scale:
        raise ContractError("eigenpair reconstruction residual too large")
    return evals, evecs


def _parity_blocks(op, flip):
    """The blocks of a sector operator (`SectorOperator`), one at a time;
    raises ContractError if it maps spin parity P to another than flip * P."""
    if op.flip != flip:
        raise ContractError(f"operator maps spin parity P to {op.flip} * P, not {flip} * P")
    return op.blocks()


def spectrum(op):
    """Ascending eigenvalues of a Hermitian square sector operator that
    conserves the spin parity: the sorted union of its block spectra."""
    if op.domain.dim != op.codomain.dim:
        raise ContractError("spectrum requires a square operator (domain = codomain)")
    levels = [_eigh_checked(block, vectors=False) for _, block in _parity_blocks(op, 1)]
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


def _block_ranks(blocks, context):
    """{key: rank of the block} for the blocks of one block-diagonal matrix,
    given as (key, block) pairs: one SVD per block, each block dropped after
    its SVD. The cut is the whole matrix's, _RANK_CUT times the largest
    singular value over all its blocks, and the whole matrix's singular
    values are checked for honesty: warn when they straddle the cut."""
    svals = {}
    for key, block in blocks:
        svals[key] = np.linalg.svd(block, compute_uv=False)
        del block  # freed before the next block is built
    s = np.sort(np.concatenate([np.zeros(0), *svals.values()]))[::-1]
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
