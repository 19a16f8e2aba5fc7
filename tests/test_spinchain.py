import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from susyxyz import spinchain
from susyxyz.eightvertex import _path_codes, _translate_path_codes, path_vectors
from susyxyz.elliptic import ThetaContext
from susyxyz.errors import ContractError, DomainError
from susyxyz.fermion import fermion_hamiltonian
from susyxyz.spinchain import (
    CouplingLine,
    SectorBasis,
    SectorOperator,
    _eigh_checked,
    _fold,
    _group_levels,
    _orbit_sector,
    _parity_blocks,
    build_sector_basis,
    common_levels,
    embed,
    rescaled_spectrum,
    reverse_bits,
    rotate_left,
    spectrum,
    xyz_apply,
    xyz_hamiltonian,
)
from susyxyz.supercharge import build_supercharges, susy_sector

from operator_reference import (
    all_path_blocks,
    project,
    restrict,
    symmetry_operator,
    xyz_hamiltonian_full,
)


def test_coupling_line_identity():
    for zeta in (0.0, 0.3, 1.0, 2.5, -0.7):
        c = CouplingLine(zeta)
        assert c.jx * c.jy + c.jx * c.jz + c.jy * c.jz == pytest.approx(0.0, abs=1e-12)


def test_rotate_and_reverse_bits():
    # |-++-+> on 5 sites, site 1 = least significant bit
    bits = 0b10010
    assert rotate_left(bits, 5) == 0b00101
    assert reverse_bits(bits, 5) == 0b01001


def test_translation_symmetry_operator_order():
    n = 5
    T = symmetry_operator("translation", n).toarray()
    acc = np.eye(2 ** n)
    for _ in range(n):
        acc = T @ acc
    assert np.array_equal(acc, np.eye(2 ** n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hamiltonian_commutes_with_symmetries(n):
    H = xyz_apply(n, CouplingLine(0.8), np.eye(2 ** n))
    for kind in ("translation", "parity", "spin_reversal"):
        S = symmetry_operator(kind, n).toarray()
        assert np.linalg.norm(H @ S - S @ H) < 1e-12 * max(1.0, np.linalg.norm(H))


@pytest.mark.parametrize("n", range(2, 9))
def test_xyz_apply_on_the_identity_is_the_dense_reference(n):
    # bit for bit: each entry adds the same bond terms in the same order
    for zeta in (0.0, 0.3, 0.7, 2.5):
        coupling = CouplingLine(zeta)
        H = xyz_apply(n, coupling, np.eye(2 ** n))
        assert H.dtype == np.float64
        assert np.array_equal(H, xyz_hamiltonian_full(n, coupling).toarray())
        assert np.array_equal(xyz_apply(n, coupling, np.eye(2 ** n, dtype=int)), H)


@pytest.mark.parametrize("n", range(9, 14))
def test_xyz_apply_matches_the_reference_on_random_vectors(n):
    rng = np.random.default_rng(n)
    V = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
    for zeta in (0.0, 0.7, 2.5):
        coupling = CouplingLine(zeta)
        ref = xyz_hamiltonian_full(n, coupling) @ V
        got = xyz_apply(n, coupling, V)
        assert got.shape == V.shape and got.dtype == np.complex128
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
        # a one-dimensional V is one column
        assert np.array_equal(xyz_apply(n, coupling, V[:, 1]), got[:, 1])


def test_xyz_apply_rejects_bad_input():
    with pytest.raises(DomainError, match="needs n >= 2 sites, got 1"):
        xyz_apply(1, CouplingLine(0.3), np.eye(2))
    with pytest.raises(DomainError, match="2\\^3 rows"):
        xyz_apply(3, CouplingLine(0.3), np.eye(4))


def test_sector_dimensions_sum_to_full_space():
    n = 6
    total = 0
    for k in range(n):
        t = np.exp(2j * np.pi * k / n)
        total += build_sector_basis(n, t).dim
    assert total == 2 ** n


def test_n2_susy_sector_energy():
    sector = build_sector_basis(2, -1.0)
    for zeta in (0.0, 1.0, 2.2):
        evals = spectrum(xyz_hamiltonian(2, CouplingLine(zeta), sector))
        assert len(evals) == 1
        assert evals[0] == pytest.approx(3 + zeta ** 2, abs=1e-12)


def _poly_roots_sorted(coeffs):
    return np.sort(np.real(np.roots(coeffs)))


@pytest.mark.parametrize("zeta", [0.6, 1.3, 2.4])
def test_n4_momentum_pi_characteristic_polynomial(zeta):
    # factored spectrum of H_4 at momentum pi:
    # (E - (z^2+3)) (E - (z^2+2z+5)) (E - (z^2-2z+5)) (E - 2(z^2+1))
    sector = build_sector_basis(4, -1.0)
    evals = spectrum(xyz_hamiltonian(4, CouplingLine(zeta), sector))
    expected = np.sort(
        [zeta ** 2 + 3, zeta ** 2 + 2 * zeta + 5, zeta ** 2 - 2 * zeta + 5, 2 * (zeta ** 2 + 1)]
    )
    assert np.allclose(np.sort(evals), expected, atol=1e-10)


@pytest.mark.parametrize("zeta", [0.6, 1.3, 2.4])
def test_n4_momentum_zero_characteristic_polynomial(zeta):
    # (E-4)(E-(z-1)^2)(E-(z+1)^2)(E^3 - 3E^2(z^2+3) + 2E(z^2+3)^2 + 8(z^2-1)^2);
    # the cubic is the rescaling E = 4 eps, 2y^2+1 = (z^2+3)/4 of the
    # Neveu-Schwarz factor eps^3 - 3eps^2(2y^2+1) + 2eps(2y^2+1)^2 + 8y^4
    sector = build_sector_basis(4, 1.0)
    evals = spectrum(xyz_hamiltonian(4, CouplingLine(zeta), sector))
    cubic = [1.0, -3 * (zeta ** 2 + 3), 2 * (zeta ** 2 + 3) ** 2, 8 * (zeta ** 2 - 1) ** 2]
    expected = np.sort(
        np.concatenate(
            [[4.0, (zeta - 1) ** 2, (zeta + 1) ** 2], _poly_roots_sorted(cubic)]
        )
    )
    assert np.allclose(np.sort(evals), expected, atol=1e-8)


def test_spectrum_requires_square_hermitian():
    dom = build_sector_basis(3, 1.0)
    cod = build_sector_basis(4, 1.0)
    assert dom.dim != cod.dim
    # T + i U on each parity block, U the upper triangle of ones: not Hermitian
    T = project(symmetry_operator("translation", 3), dom)
    blocks = [(p, T[np.ix_(cols, cols)] + 1j * np.triu(np.ones((len(cols), len(cols)))))
              for p, cols in dom.parity_blocks]
    assert all(len(block) > 1 for _, block in blocks)
    with pytest.raises(ContractError, match="not Hermitian"):
        spectrum(SectorOperator(dom, dom, lambda: iter(blocks), 1))
    with pytest.raises(ContractError, match="square"):
        spectrum(SectorOperator(dom, cod, lambda: iter(blocks), 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectrum_rejects_a_non_finite_operator(bad):
    # rejected before the eigensolve, which fails on NaN with numpy's LinAlgError
    sector = build_sector_basis(6, 1.0)
    blocks = list(xyz_hamiltonian(6, CouplingLine(0.7), sector).blocks())
    blocks[0][1][0, -1] = bad
    with pytest.raises(ContractError, match="not Hermitian"):
        spectrum(SectorOperator(sector, sector, lambda: iter(blocks), 1))


def test_rescaled_spectrum_scaling():
    sector = build_sector_basis(4, -1.0)
    zeta = 0.9
    eps = rescaled_spectrum(4, zeta, sector)
    raw = spectrum(xyz_hamiltonian(4, CouplingLine(zeta), sector))
    assert np.allclose(eps, 4 * raw / (3 + zeta ** 2))
    # the supersymmetric level 3 + zeta^2 rescales to 4 exactly
    assert np.any(np.abs(eps - 4.0) < 1e-10)


def _first_fit_missing(odd, even, tol):
    """O(n^2) reference: each ascending odd level takes the first leftover even
    level within tol; returns how many odd levels found none."""
    leftovers = sorted(even)
    missing = 0
    for e in sorted(odd):
        hit = None
        for i, f in enumerate(leftovers):
            if abs(e - f) < max(tol, tol * abs(e)):
                hit = i
                break
        if hit is None:
            missing += 1
        else:
            leftovers.pop(hit)
    return missing


@given(
    st.lists(st.floats(-5, 5), min_size=0, max_size=8),
    st.lists(st.floats(-5, 5), min_size=0, max_size=8),
    st.sampled_from((1e-9, 0.3)),
)
@settings(max_examples=50, deadline=None)
def test_common_levels_partition(e1, e2, tol):
    matched, only1, only2 = common_levels(e1, e2, tol=tol)
    assert len(matched) + len(only1) == len(e1)
    assert len(matched) + len(only2) == len(e2)
    assert sorted(only1 + [a for a, _ in matched]) == pytest.approx(sorted(e1))
    # the two-pointer walk misses exactly as many levels as first-fit matching
    assert len(only1) == _first_fit_missing(e1, e2, tol)
    # the level grouper partitions the indices; members lie within tol of the
    # group's first value
    values = sorted(e1)
    groups = _group_levels(values, tol)
    assert [i for g in groups for i in g] == list(range(len(values)))
    for g in groups:
        first = values[g[0]]
        assert all(abs(values[i] - first) < max(tol, tol * abs(values[i])) for i in g)


def test_common_levels_matching():
    matched, only1, only2 = common_levels([1.0, 2.0, 2.0], [2.0, 3.0], tol=1e-8)
    assert matched == [(2.0, 2.0)]
    assert only1 == [1.0, 2.0]
    assert only2 == [3.0]


def test_bad_sector_size():
    sector = build_sector_basis(3, 1.0)
    with pytest.raises(DomainError):
        xyz_hamiltonian(4, CouplingLine(0.2), sector)


@pytest.mark.parametrize("parity", [2, 0, 1.5])
def test_parity_other_than_plus_or_minus_one_is_rejected(parity):
    with pytest.raises(DomainError, match="parity"):
        build_sector_basis(6, 1.0, parity=parity)


def _orbits_loop(n):
    """Reference: (representative, period) of every translation orbit."""
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


def _dense_embedding(n, t):
    """Reference: the dense 2^n x dim momentum-sector embedding, built by
    summing conj(t)^j T^j |rep> over all n translations."""
    reps = [(r, p) for r, p in _orbits_loop(n) if abs(t ** p - 1.0) <= 1e-9]
    B = np.zeros((1 << n, len(reps)), dtype=complex)
    tbar = np.conj(t)
    for i, (rep, period) in enumerate(reps):
        state = rep
        for j in range(n):
            B[state, i] += tbar ** j
            state = rotate_left(state, n)
        B[:, i] *= math.sqrt(period) / n
    return reps, B


def _roots_of_unity(n):
    return [complex(np.exp(2j * np.pi * k / n)) for k in range(n)]


def _all_sectors(n):
    for t in _roots_of_unity(n):
        for parity in (None, 1, -1) if abs(t.imag) < 1e-12 else (None,):
            yield build_sector_basis(n, t, parity=parity)


def _max_abs(M):
    return np.abs(M).max(initial=0.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_sector_embeddings_sparse_orthonormal_and_translation_covariant(n):
    T = symmetry_operator("translation", n)
    P = symmetry_operator("parity", n)
    for basis in _all_sectors(n):
        B = embed(basis, np.eye(basis.dim))
        assert B.shape == (1 << n, basis.dim)
        assert _max_abs(restrict(basis, B) - np.eye(basis.dim)) <= 1e-12
        assert _max_abs(T @ B - basis.t_eigenvalue * B) <= 1e-12
        if basis.parity_eigenvalue is not None:
            assert _max_abs(P @ B - basis.parity_eigenvalue * B) <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_unrefined_embedding_nnz_counts_orbit_states(n):
    # the parity refinements too: one nonzero per state of an admitted orbit
    for basis in _all_sectors(n):
        states = int(basis.periods.sum())
        assert np.count_nonzero(basis.column >= 0) == np.count_nonzero(basis.amplitude) == states
        assert states <= 2 ** n


def test_sector_orbits_are_held_once_as_read_only_arrays():
    # reps and periods are the one record of the orbits, dim is read from
    # them, and sectors compare by identity
    sectors = [*_all_sectors(6), build_sector_basis(7, 1.0, parity=-1)]
    for basis in sectors:
        for orbits in (basis.reps, basis.periods):
            assert orbits.dtype == np.int64 and not orbits.flags.writeable
        assert basis.dim == len(basis.reps) == len(basis.periods)
        assert basis == basis and basis != dataclasses.replace(basis)
    assert "dim" not in {f.name for f in dataclasses.fields(SectorBasis)}


@pytest.mark.parametrize("n", range(1, 11))
def test_sparse_embedding_matches_dense_reference(n):
    for t in _roots_of_unity(n):
        reps, dense = _dense_embedding(n, t)
        basis = build_sector_basis(n, t)
        assert [*zip(basis.reps.tolist(), basis.periods.tolist())] == reps
        assert _max_abs(embed(basis, np.eye(basis.dim)) - dense) <= 1e-14


def _scipy_embedding(basis):
    """Reference: the sparse embedding B of an unrefined sector as a scipy
    CSC matrix built from its orbit table, the former representation."""
    rows = np.flatnonzero(basis.column >= 0)
    return sp.csc_matrix((basis.amplitude[rows], (rows, basis.column[rows])),
                         shape=(len(basis.column), basis.dim))


def test_table_products_match_scipy_references():
    # the path blocks, M_{n-k} = conj(M_k) expanded, against B^H R
    ctx = ThetaContext(nome=0.3)
    for n in range(2, 10):
        codes = _path_codes(n)
        orbits = _orbit_sector(codes, n, lambda c: (_translate_path_codes(c, n), 1.0), 1.0)
        reps, periods = orbits.reps, orbits.periods
        R = path_vectors(reps, n, ctx) * np.sqrt(periods)
        for k, M in enumerate(all_path_blocks(n, ctx)):
            t = np.exp(2j * np.pi * k / n)
            sector = build_sector_basis(n, t)
            ref = _scipy_embedding(sector).conj().T @ R[:, np.abs(t ** periods - 1) < 1e-9]
            assert M.shape == ref.shape
            assert _max_abs(M - ref) <= 1e-12 * max(1.0, _max_abs(ref))


def _dense_projection(full_op, dom, cod):
    """Reference B_cod^H A B_dom through dense embeddings; dom, cod = (n, t)."""
    _, Bd = _dense_embedding(*dom)
    _, Bc = _dense_embedding(*cod)
    return Bc.conj().T @ (full_op @ Bd)


def _assert_close(op, ref):
    assert isinstance(op, SectorOperator) and isinstance(op.matrix, np.ndarray)
    assert _max_abs(op.matrix - ref) <= 1e-12 * max(1.0, _max_abs(ref))


@pytest.mark.parametrize("n", range(2, 13))
def test_sector_operators_match_dense_projection(n):
    zeta = 0.7
    t = float((-1) ** (n + 1))
    ref = _dense_projection(xyz_hamiltonian_full(n, CouplingLine(zeta)), (n, t), (n, t))
    _assert_close(xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)), ref)


@pytest.mark.parametrize("n", range(2, 14))
def test_hamiltonian_matches_projected_reference(n):
    # H from the representatives against the projection of the full-space H,
    # on every momentum sector and on both parity refinements of t = +-1
    for zeta in (0.0, 0.7, 2.5):
        coupling = CouplingLine(zeta)
        H = xyz_hamiltonian_full(n, coupling)
        for basis in _all_sectors(n):
            ref = project(H, basis)
            got = xyz_hamiltonian(n, coupling, basis).matrix
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * max(1.0, np.linalg.norm(ref))


def test_block_builder_rejects_a_term_that_leaves_the_parity_block():
    # a term that flips one spin maps P to -P
    sector = build_sector_basis(6, 1.0)
    for p, cols in sector.parity_blocks:
        reps = sector.reps[cols]
        block = np.zeros((len(cols), len(cols)))
        with pytest.raises(ContractError, match="spin parity"):
            _fold(block, sector, p, np.arange(len(cols)), reps ^ 1, np.ones(len(cols)))
        assert not block.any()


def _real_sectors(n):
    """Every real-t sector at size n: t = 1.0 and -1.0 (even n), parity-refined
    or not, and the same t as exp(2i pi k/n) from `_roots_of_unity`."""
    ts = [1.0, -1.0] if n % 2 == 0 else [1.0]
    ts += [t for t in _roots_of_unity(n) if abs(t.imag) <= 1e-12]
    for t in ts:
        for parity in (None, 1, -1):
            yield t, build_sector_basis(n, t, parity=parity)


@pytest.mark.parametrize("n", range(2, 11))
def test_real_t_sectors_are_float64(n):
    coupling = CouplingLine(0.7)
    for t, basis in _real_sectors(n):
        assert basis.t_eigenvalue in (1.0, -1.0) and abs(basis.t_eigenvalue - t) < 1e-12
        assert embed(basis, np.eye(basis.dim)).dtype == np.float64
        assert xyz_hamiltonian(n, coupling, basis).matrix.dtype == np.float64
    for t in _roots_of_unity(n):
        if abs(t.imag) > 1e-12:
            basis = build_sector_basis(n, t)
            assert embed(basis, np.eye(basis.dim)).dtype == np.complex128
            assert xyz_hamiltonian(n, coupling, basis).matrix.dtype == np.complex128


@pytest.mark.parametrize("n", range(2, 11))
def test_real_sector_spectra_match_complex_dense_reference(n):
    coupling = CouplingLine(0.7)
    H = xyz_hamiltonian_full(n, coupling)
    for t in [t for t in _roots_of_unity(n) if abs(t.imag) <= 1e-12]:
        ref = np.linalg.eigvalsh(_dense_projection(H, (n, t), (n, t)))
        got = spectrum(xyz_hamiltonian(n, coupling, build_sector_basis(n, t)))
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        refined = [spectrum(xyz_hamiltonian(n, coupling, build_sector_basis(n, t, parity=p)))
                   for p in (1, -1)]
        assert np.abs(np.sort(np.concatenate(refined)) - ref).max() <= 1e-12 * max(
            1.0, np.abs(ref).max()
        )


def test_eigh_checked_rejects_real_nonsymmetric():
    M = np.diag([1.0, 2.0, 3.0])
    M[0, 2] = 1e-3
    with pytest.raises(ContractError):
        _eigh_checked(M)
    assert _eigh_checked(M + M.T).dtype == np.float64


def test_eigh_checked_bound_is_1e12_relative():
    # one bound for every sector, the fermion T^3 sectors included: a relative
    # asymmetry of 1e-11 is rejected, one of 1e-13 is not
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    S = A + A.T
    K = A - A.T
    for rel, rejected in ((1e-11, True), (1e-13, False)):
        M = S + rel * np.linalg.norm(S) / np.linalg.norm(K - K.T) * K
        assert np.linalg.norm(M - M.T) / np.linalg.norm(M) == pytest.approx(rel, rel=1e-3)
        if rejected:
            with pytest.raises(ContractError, match="Hermitian"):
                _eigh_checked(M)
        else:
            _eigh_checked(M)


def _shift_lowest(ev, scale):
    ev = ev.copy()
    ev[0] += 1e-6 * scale
    return ev


def _average_extremes(ev, scale):
    # the same sum, but the sum of squares falls by (max - min)^2 / 2
    ev = ev.copy()
    ev[0] = ev[-1] = (ev[0] + ev[-1]) / 2.0
    return ev


def _one_nan(ev, scale):
    ev = ev.copy()
    ev[len(ev) // 2] = np.nan
    return ev


@pytest.mark.parametrize("corrupt", [_shift_lowest, _average_extremes, _one_nan])
def test_eigenvalue_moments_reject_wrong_eigenvalues(monkeypatch, corrupt):
    # the eigenvalues-only branch checks sum(lambda) = tr M and
    # sum(lambda^2) = ||M||_F^2; each corruption breaks one of them
    op = xyz_hamiltonian(8, CouplingLine(0.7), build_sector_basis(8, 1.0))
    eigvalsh = np.linalg.eigvalsh
    for _, block in _parity_blocks(op, 1):
        ev = eigvalsh(block)
        assert (ev[-1] - ev[0]) ** 2 / 2.0 > 1e-6 * max(1.0, np.linalg.norm(block)) ** 2
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: corrupt(eigvalsh(M), max(1.0, np.linalg.norm(M))))
    with pytest.raises(ContractError, match="trace or the Frobenius norm"):
        spectrum(op)


def test_spectrum_computes_no_eigenvectors(monkeypatch):
    # a spin sector, a parity refinement and a fermion T^3 sector: spectrum
    # reads eigenvalues alone
    coupling = CouplingLine(0.7)
    ops = [xyz_hamiltonian(9, coupling, build_sector_basis(9, 1.0)),
           xyz_hamiltonian(9, coupling, build_sector_basis(9, 1.0, parity=-1))]
    ops.append(fermion_hamiltonian(12, 0.61, 4, "ramond", -1))

    def no_eigh(M):
        raise AssertionError("spectrum computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for op in ops:
        assert op.domain.dim > 0
        assert len(spectrum(op)) == op.domain.dim


def test_parity_refinement_needs_no_eigensolve_or_projection(monkeypatch):
    # a refined sector is built from the orbit tables alone, and its H in
    # sector coordinates, with no dense embedding or restriction
    def forbidden(*args, **kwargs):
        raise AssertionError("the parity refinement called an eigensolver or a projection")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(spinchain, "embed", forbidden)
    build_sector_basis.cache_clear()
    coupling = CouplingLine(0.7)
    dims = [len(spectrum(xyz_hamiltonian(9, coupling, build_sector_basis(9, 1.0, parity=p))))
            for p in (1, -1)]
    assert sum(dims) == build_sector_basis(9, 1.0).dim and min(dims) > 0


def test_parity_refinements_refine_the_cached_momentum_sector(monkeypatch):
    # once the momentum sector is built (here under the key of `susy_sector`),
    # its refinements walk the orbits of its columns, not the 2^n states
    walked = []

    def recording(states, *args):
        walked.append(len(states))
        return _orbit_sector(states, *args)

    monkeypatch.setattr(spinchain, "_orbit_sector", recording)
    build_sector_basis.cache_clear()
    momentum = susy_sector(13)
    assert walked == [1 << 13]
    refined = [build_sector_basis(13, 1, parity=p) for p in (1, -1)]
    assert walked.count(1 << 13) == 1
    assert [b.dim for b in refined] == [susy_sector(13, p).dim for p in (1, -1)]
    assert sum(b.dim for b in refined) == momentum.dim


@pytest.mark.parametrize("n", range(1, 13))
def test_contiguous_states_are_their_own_rows(n):
    # the spin basis 0 ... 2^n - 1 skips the binary search of the orbit table;
    # the same states carrying a marker bit n take it, with the same tables
    marker, mask = 1 << n, (1 << n) - 1
    marked = np.arange(1 << n) | marker
    ts = [t for t in (1.0, -1.0) if t ** n == 1] + ([cmath.exp(2j * math.pi / n)] if n > 2 else [])
    for t in ts:
        direct = build_sector_basis(n, t)
        searched = _orbit_sector(marked, n, lambda x: (rotate_left(x & mask, n) | marker, 1.0),
                                 direct.t_eigenvalue)
        assert np.array_equal(searched.column, direct.column)
        assert np.array_equal(searched.amplitude, direct.amplitude)
        assert searched.amplitude.dtype == direct.amplitude.dtype
        assert np.array_equal(searched.reps - marker, direct.reps)
        assert np.array_equal(searched.periods, direct.periods)


def test_keys_of_one_sector_share_one_cache_entry():
    build_sector_basis.cache_clear()
    bases = [build_sector_basis(10, -1.0), build_sector_basis(10, cmath.exp(1j * math.pi)),
             build_sector_basis(10, -1.0, None), build_sector_basis(10, -1.0, parity=None)]
    assert all(b is bases[0] for b in bases)
    assert build_sector_basis.cache_info().misses == 1


@pytest.mark.parametrize("n", range(2, 14))
def test_spectrum_matches_the_eigenpair_path(n):
    # every momentum sector and both parity refinements: the checked
    # eigenvalues against those of the eigenpairs of the symmetrised blocks
    for zeta in (0.0, 0.7, 2.5):
        for basis in _all_sectors(n):
            op = xyz_hamiltonian(n, CouplingLine(zeta), basis)
            ref = np.sort(np.concatenate(
                [np.zeros(0), *(np.linalg.eigh((b + b.conj().T) / 2)[0]
                                for _, b in _parity_blocks(op, 1))]))
            got = spectrum(op)
            assert len(got) == basis.dim
            assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(
                1.0, np.linalg.norm(op.matrix))


# ---------------------------------------------------------------------------
# spin-parity blocks; the dense whole-sector eigensolve is the reference


def _real_momentum_sectors(n):
    """The momentum 0 sector, and at even n the momentum pi sector."""
    return [build_sector_basis(n, t) for t in ((1.0, -1.0) if n % 2 == 0 else (1.0,))]


@pytest.mark.parametrize("n", range(2, 12))
def test_parity_blocks_follow_the_popcount_of_every_orbit_state(n):
    # the momentum sectors and their parity refinements (at n = 2 one of each
    # pair of refinements is empty)
    for basis in _all_sectors(n):
        labels = np.zeros(basis.dim, dtype=int)
        for p, cols in basis.parity_blocks:
            labels[cols] = p
        assert [p for p, _ in basis.parity_blocks] in ([1, -1], [1], [-1], [])
        cols = np.concatenate([np.zeros(0, dtype=int), *(c for _, c in basis.parity_blocks)])
        assert np.array_equal(np.sort(cols), np.arange(basis.dim))
        rows = np.flatnonzero(basis.column >= 0)
        downs = np.array([bin(int(s)).count("1") for s in rows])
        assert np.array_equal((-1) ** downs, labels[basis.column[rows]])


@pytest.mark.parametrize("n", range(2, 13))
def test_block_spectrum_matches_whole_sector_eigensolve(n):
    for zeta in (0.7, 2.3):
        for basis in _real_momentum_sectors(n):
            op = xyz_hamiltonian(n, CouplingLine(zeta), basis)
            ref = np.linalg.eigvalsh(op.matrix)
            got = spectrum(op)
            assert len(got) == basis.dim
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(op.matrix))


def test_spectrum_rejects_an_operator_that_flips_the_spin_parity():
    # C = Qt^dag Q is square on the susy sector but maps P to -P, so its
    # sector matrix lies wholly outside the diagonal blocks: its block on P
    # is Qt's block on -P, adjoint, times Q's block on P (at n = 2 the sector
    # has one parity block, Qt has none on -P, and C is zero)
    for n in (2, 3, 7, 8):
        pair = build_supercharges(n, 0.7)
        sector = pair.q_plain.domain

        def blocks(pair=pair):
            partners = dict(pair.q_tilde.blocks())
            for p, block in pair.q_plain.blocks():
                yield p, partners.get(-p, np.zeros((len(block), 0))).conj().T @ block

        op = SectorOperator(sector, sector, blocks, -1)
        assert n == 2 or np.linalg.norm(op.matrix) > 1.0
        with pytest.raises(ContractError, match="spin parity"):
            spectrum(op)
