"""Full-space operators for the tests.

The package has no full-space operator type: every sector operator is
built from the orbit representatives, and the XYZ H acts on arrays with 2^n
rows bond by bond (`spinchain.xyz_apply`). The references here are the
full-space operators as COO triplets (`FullOperator`): the XYZ H, written
out over all 2^n states, and the translation, parity and spin-reversal
permutations. `project` restricts a full-space operator to sector
coordinates, B_cod^H A B_dom, through the orbit tables; the tests check the
sector operators of the package against these projections.
"""

from dataclasses import dataclass

import numpy as np

from susyxyz.errors import DomainError
from susyxyz.spinchain import SectorOperator, _add_images, reverse_bits, reverse_spins, rotate_left


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
    """Restrict a `FullOperator` to sector coordinates, B_cod^H A B_dom,
    folded onto the columns through the orbit tables: entry (r, s) with
    value v adds v * amp(s) * conj(amp(r)) at (column(r), column(s)) when
    both orbits are admitted."""
    codomain = codomain if codomain is not None else domain
    src = domain.column[full_op.cols]
    keep = src >= 0
    matrix = np.zeros((codomain.dim, domain.dim),
                      dtype=np.result_type(domain.amplitude, codomain.amplitude, full_op.vals))
    _add_images(matrix, np.arange(codomain.dim), codomain, src[keep], full_op.rows[keep],
                full_op.vals[keep] * domain.amplitude[full_op.cols[keep]])
    return SectorOperator(domain, codomain, matrix)


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
