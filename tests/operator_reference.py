"""Full-space operators, and the operator claims of the paper, for the tests.

The package has no full-space operator type: every sector operator is
built from the orbit representatives, and the XYZ H acts on arrays with 2^n
rows bond by bond (`spinchain.xyz_apply`). The references here are the
full-space operators as COO triplets (`FullOperator`): the XYZ H, written
out over all 2^n states, and the translation, parity and spin-reversal
permutations. `project` restricts a full-space operator to sector
coordinates, the dense matrix B_cod^H A B_dom, through the orbit tables; the
tests check the sector operators of the package against these projections.
`restrict` takes arrays with 2^n rows to sector coordinates (B^H Y), one
position in the orbits at a time, and gives the momentum blocks of the path
matrix one sector walk per momentum (`path_blocks_reference`), against
which the half-spectrum blocks of the package are checked.
The inhomogeneous transfer matrix, the Hamiltonian from the dense transfer
matrix, the intertwining of the transfer matrix with the supercharges and
the quadruplet count are computed here from the public operators of the
package.
"""

from dataclasses import dataclass

import numpy as np

from susyxyz.eightvertex import (
    _path_blocks,
    _path_codes,
    _translate_path_codes,
    path_vectors,
    transfer_matrix,
    vertex_weights,
    weight_tensor,
)
from susyxyz.elliptic import h, zeta_of_nome
from susyxyz.errors import DomainError
from susyxyz.spinchain import (
    CouplingLine,
    _add_images,
    _orbit_sector,
    _rank,
    build_sector_basis,
    embed,
    reverse_bits,
    reverse_spins,
    rotate_left,
    spectrum,
    xyz_apply,
    xyz_hamiltonian,
)
from susyxyz.supercharge import build_supercharges, susy_sector

from path_reference import hatQ_spin


@dataclass(frozen=True)
class FullOperator:
    """A sparse operator on a model's basis as COO triplets: entry
    (rows[i], cols[i]) of a matrix of the given shape holds vals[i], and
    repeated positions add up."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def toarray(self):
        A = np.zeros(self.shape, dtype=self.vals.dtype)
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A

    def __matmul__(self, X):
        """A X for a dense matrix X with shape[1] rows."""
        out = np.zeros((self.shape[0], X.shape[1]), dtype=np.result_type(self.vals, X))
        np.add.at(out, self.rows, self.vals[:, None] * X[self.cols])
        return out


def project(full_op, domain, codomain=None):
    """Restrict a `FullOperator` to sector coordinates, the dense matrix
    B_cod^H A B_dom, folded onto the columns through the orbit tables: entry (r, s) with
    value v adds v * amp(s) * conj(amp(r)) at (column(r), column(s)) when
    both orbits are admitted."""
    codomain = codomain if codomain is not None else domain
    src = domain.column[full_op.cols]
    keep = src >= 0
    matrix = np.zeros((codomain.dim, domain.dim),
                      dtype=np.result_type(domain.amplitude, codomain.amplitude, full_op.vals))
    _add_images(matrix, np.arange(codomain.dim), codomain, src[keep], full_op.rows[keep],
                full_op.vals[keep] * domain.amplitude[full_op.cols[keep]])
    return matrix


def orbit_members(basis):
    """(states, weights), two dim x (largest period) arrays: row c holds
    the states of orbit sum c, ascending, and their conj(amplitude),
    padded with state 0 and weight 0 past the orbit's period."""
    periods = basis.periods
    rows = np.argsort(basis.column, kind="stable")[len(basis.column) - int(periods.sum()):]
    cols = basis.column[rows]
    place = (cols, np.arange(len(rows)) - (np.cumsum(periods) - periods)[cols])
    states = np.zeros((basis.dim, periods.max(initial=0)), dtype=np.intp)
    weights = np.zeros(states.shape, dtype=basis.amplitude.dtype)
    states[place], weights[place] = rows, np.conj(basis.amplitude[rows])
    return states, weights


def restrict(basis, Y):
    """B^H Y: the sector coordinates of the columns of Y (one row per state
    of the model's basis), conj(amplitude) * Y summed over each orbit, one
    position in the orbits at a time."""
    states, weights = orbit_members(basis)
    out = np.zeros((basis.dim, Y.shape[1]), dtype=np.result_type(weights, Y))
    for j in range(states.shape[1]):
        out += weights[:, j, None] * Y[states[:, j]]
    return out


def path_blocks_reference(n, ctx):
    """[(sector, M_k)] for every momentum k = 0 .. n - 1 of the path matrix:
    M_k = B_k^H [sqrt(p_r) |r>] over the representatives r of the path
    orbits with k p_r = 0 mod n, one sector walk and `restrict` per k."""
    step = lambda codes: (_translate_path_codes(codes, n), 1.0)
    orbits = _orbit_sector(_path_codes(n), n, step, 1.0)
    Y = path_vectors(orbits.reps, n, ctx) * np.sqrt(orbits.periods)
    blocks = []
    for k in range(n):
        sector = build_sector_basis(n, np.exp(2j * np.pi * k / n))
        blocks.append((sector, restrict(sector, Y[:, k * orbits.periods % n == 0])))
    return blocks


def all_path_blocks(n, ctx):
    """The n momentum blocks of the path matrix from the half spectrum of
    `_path_blocks`, with M_{n-k} = conj(M_k)."""
    half = _path_blocks(n, ctx)
    return half + [half[n - k].conj() for k in range(len(half), n)]


def xyz_hamiltonian_full(n, coupling):
    """XYZ Hamiltonian on the full 2^n space as COO triplets, including the
    constant shift."""
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
    return FullOperator(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                        (dim, dim))


def symmetry_operator(kind, n):
    """Full-space operator (COO triplets) for translation, parity or spin
    reversal, the permutation |x> -> |S x>."""
    flips = {"translation": rotate_left, "parity": reverse_bits, "spin_reversal": reverse_spins}
    if kind not in flips:
        raise DomainError(f"unknown symmetry operator kind {kind!r}")
    dim = 1 << n
    states = np.arange(dim)
    return FullOperator(flips[kind](states, n), states, np.ones(dim), (dim, dim))


def transfer_matrix_reference(n, u, ctx, inhomogeneities=None):
    """Reference T(u), with site j at u - u_j for the given inhomogeneities:
    every site contracted into a tensor 4x the size of T, whose open pair of
    horizontal bonds is then traced out."""
    shifts = tuple(inhomogeneities) if inhomogeneities is not None else (0.0,) * n
    G = np.eye(2).reshape(2, 2, 1, 1)
    for shift in shifts:
        G = np.einsum("xmpq,manb->xnbpaq", G, weight_tensor(u - shift, ctx))
        dim = G.shape[3] * 2
        G = G.reshape(2, 2, dim, dim)
    return np.einsum("xxpq->pq", G)


def hamiltonian_from_transfer(n, ctx):
    """XYZ Hamiltonian from the logarithmic derivative of the dense transfer
    matrix, the reference of `susy-xyz transfer`'s third record.

    With the weight normalization a(u) + b(u) = h(u) and b(eta) = 0 used here,
    H_N = [ n h'(eta) - h(eta) T(eta)^{-1} T'(eta) ] / b'(eta),
    including the constant shift N (J_x + J_y + J_z)/2. Central differences
    with step 1e-5.
    """
    eta = ctx.eta
    step = 1e-5
    T0 = transfer_matrix(n, eta, ctx)
    Tp = (transfer_matrix(n, eta + step, ctx) - transfer_matrix(n, eta - step, ctx)) / (
        2 * step
    )
    vp, vm = vertex_weights(eta + step, ctx), vertex_weights(eta - step, ctx)
    bprime = (vp.b - vm.b) / (2 * step)
    hprime = (vp.a + vp.b - vm.a - vm.b) / (2 * step)
    a0 = vertex_weights(eta, ctx).a
    return (n * hprime * np.eye(1 << n) - a0 * np.linalg.solve(T0, Tp)) / bprime


def transfer_residuals(n, u, ctx):
    """The residuals of the three records of `susy-xyz transfer` at size n,
    from dense 2^n x 2^n matrices: T(eta) against h(2 eta)^n S, the
    commutator of T(u) and T(u + 0.4), and H against
    `hamiltonian_from_transfer`, each over the scale the command uses."""
    norm = np.linalg.norm
    T_eta = transfer_matrix(n, ctx.eta, ctx)
    shift = symmetry_operator("translation", n).toarray()
    translation = norm(T_eta - h(2 * ctx.eta, ctx) ** n * shift) / max(1.0, norm(T_eta))
    Tu, Tv = transfer_matrix(n, u, ctx), transfer_matrix(n, u + 0.4, ctx)
    commutator = norm(Tu @ Tv - Tv @ Tu) / max(1.0, norm(Tu) * norm(Tv))
    Hd = xyz_apply(n, CouplingLine(zeta_of_nome(ctx.nome)), np.eye(1 << n))
    hamiltonian = norm(Hd - hamiltonian_from_transfer(n, ctx)) / max(1.0, norm(Hd))
    return translation, commutator, hamiltonian


def intertwining_residual(n, u, ctx, charge):
    """|| T_N(u) X + h(u) X T_{N-1}(u) || on the momentum sectors, for X the
    supercharge Q_{N-1} or Qt_{N-1} at zeta(q) ("Q", "Qtilde"), or the path
    charge lifted to spin space ("hatQ"); the dense T and hatQ are restricted
    to the sectors through `embed` and `restrict`."""
    dom, cod = susy_sector(n - 1), susy_sector(n)

    def restricted(A, domain, codomain):  # B_cod^H A B_dom
        return restrict(codomain, A @ embed(domain, np.eye(domain.dim)))

    if charge == "hatQ":
        X = restricted(hatQ_spin(n, ctx), dom, cod)
    else:
        pair = build_supercharges(n - 1, zeta_of_nome(ctx.nome))
        X = {"Q": pair.q_plain, "Qtilde": pair.q_tilde}[charge].matrix
    Tn = restricted(transfer_matrix(n, u, ctx), cod, cod)
    Tdn = restricted(transfer_matrix(n - 1, u, ctx), dom, dom)
    return float(np.linalg.norm(Tn @ X + h(u, ctx) * X @ Tdn))


def quadruplet_counts(n, zeta):
    """(positive-energy states, quadruplet members) of the susy sector at size n.

    A quadruplet's base at size k is a positive-energy state phi that
    Q_{k-1}^dag and Qt_{k-1}^dag annihilate. Its members phi, Q phi, Qt phi
    and Q Qt phi, at sizes k, k+1, k+1 and k+2, are nonzero: the algebra gives
    ||Q phi||^2 = ||Qt phi||^2 = E and ||Q Qt phi||^2 = E^2. So size n holds
    b_n + 2 b_{n-1} + b_{n-2} members, b_k the number of bases at size k.
    """
    def levels(k):
        return spectrum(xyz_hamiltonian(k, CouplingLine(zeta), susy_sector(k)))

    def bases(k):
        if k < 2:
            return 0
        dn = build_supercharges(k - 1, zeta)
        adjoints = np.vstack([dn.q_plain.matrix.T, dn.q_tilde.matrix.T])
        kernel = susy_sector(k).dim - _rank(np.linalg.svd(adjoints, compute_uv=False))
        return kernel - int(np.sum(levels(k) <= 1e-9))  # the zero modes lie in it too

    return int(np.sum(levels(n) > 1e-9)), bases(n) + 2 * bases(n - 1) + bases(n - 2)
