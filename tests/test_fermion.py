import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyxyz import fermion
from susyxyz.elliptic import ThetaContext, w
from susyxyz.errors import DomainError
from susyxyz.fermion import (
    _seam_sign,
    fermion_hamiltonian,
    fermion_spectrum,
    hardcore_basis,
    hardcore_count,
    spectral_comparison,
    staggered_couplings,
    t3_sector_basis,
    y_of_zeta,
)
from susyxyz.spinchain import (
    SectorBasis,
    _eigh_checked,
    embed,
    rotate_left,
    spectrum,
)

from path_reference import path_states, path_to_hardcore, path_translate


def test_hardcore_basis_is_cached_read_only_array():
    first = hardcore_basis(12, 4)
    assert isinstance(first, np.ndarray) and first.dtype == np.int64
    assert not first.flags.writeable
    assert hardcore_basis(12, 4) is first
    for n_f, m in ((12, 4), (18, 6), (7, 3)):
        assert len(hardcore_basis(n_f, m)) == hardcore_count(n_f, m)


def _hardcore_basis_filter(n_f, m):
    """Reference: every m-subset of the n_f ring sites, kept when no two
    occupied sites are neighbours on the ring."""
    masks = [sum(1 << y for y in sites) for sites in itertools.combinations(range(n_f), m)]
    return sorted(x for x in masks if x & rotate_left(x, n_f) == 0)


def test_hardcore_basis_matches_the_filter_over_all_subsets():
    # the masks are generated from the placements on the open chain
    for n_f in range(2, 19):
        for m in range(n_f // 2 + 1):
            assert hardcore_basis(n_f, m).tolist() == _hardcore_basis_filter(n_f, m), (n_f, m)


@pytest.mark.parametrize(
    "n_f,m,count", [(6, 2, 9), (3, 1, 3), (6, 3, 2), (9, 3, 30), (12, 4, 105)]
)
def test_hardcore_counts(n_f, m, count):
    assert hardcore_count(n_f, m) == count
    assert len(hardcore_basis(n_f, m)) == count


@given(st.integers(4, 12), st.data())
@settings(max_examples=30, deadline=None)
def test_hardcore_count_formula(n_f, data):
    m = data.draw(st.integers(0, n_f // 2))
    assert len(hardcore_basis(n_f, m)) == hardcore_count(n_f, m)


def test_supercharge_square_zero():
    lam = staggered_couplings(6, 0.7)
    Q1 = _supercharge_masks(6, lam, 1)
    Q2 = _supercharge_masks(6, lam, 2)
    assert np.linalg.norm(Q2 @ Q1) < 1e-14


def _assert_sector_restriction(H, op):
    """H B = B H_sigma for the embedding B of the sector operator's basis:
    the full-space H maps the T^3 sector into itself (it commutes with T^3
    there), and H_sigma = B^T H B is its restriction."""
    B = embed(op.domain, np.eye(op.domain.dim))
    assert np.abs(H @ B - B @ op.matrix).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(H).max())


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_ramond_hamiltonian_is_anticommutator(m):
    # H = {Q, Q^dag} on the full m-particle space, restricted to each T^3 sector
    for n_f in (6, 9):
        lam = staggered_couplings(n_f, 0.58)
        rhs = np.zeros((len(hardcore_basis(n_f, m)),) * 2)
        if m < n_f // 2:
            Q = _supercharge_masks(n_f, lam, m)
            rhs = rhs + Q.T @ Q
        if m > 0:
            Q = _supercharge_masks(n_f, lam, m - 1)
            rhs = rhs + Q @ Q.T
        for sigma in (1, -1):
            _assert_sector_restriction(
                rhs, fermion_hamiltonian(n_f, 0.58, m, "ramond", sigma))


@pytest.mark.parametrize("boundary", ["ramond", "neveu-schwarz"])
def test_translation_symmetry(boundary):
    # T is orthogonal, the loop reference H commutes with T^3, and the
    # sector H is its restriction to each T^3 sector
    n_f, m = 6, 2
    lam = staggered_couplings(n_f, 0.9)
    T = _translation_masks(n_f, m, boundary)
    T3 = T @ T @ T
    assert np.linalg.norm(T @ T.T - np.eye(len(T))) < 1e-14
    H = _hamiltonian_masks(n_f, m, lam, boundary)
    assert np.linalg.norm(H @ T3 - T3 @ H) < 1e-12 * max(1.0, np.linalg.norm(H))
    for sigma in (1, -1):
        _assert_sector_restriction(H, fermion_hamiltonian(n_f, 0.9, m, boundary, sigma))


def test_t3_sector_bases_are_orthonormal_eigenbases():
    n_f, m = 6, 2
    for boundary in ("ramond", "neveu-schwarz"):
        T = _translation_masks(n_f, m, boundary)
        T3 = T @ T @ T
        for sigma in (1, -1):
            basis = t3_sector_basis(n_f, m, sigma, boundary)
            B = embed(basis, np.eye(basis.dim))
            if B.shape[1] == 0:
                continue
            assert np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])) < 1e-12
            assert np.linalg.norm(T3 @ B - sigma * B) < 1e-12


@pytest.mark.parametrize("n_f", [6, 9, 12])
def test_t3_sector_basis_is_a_sector_basis(n_f):
    # the spin chain's sector type: rows index the m-particle masks, n = n_f,
    # t = sigma; B^H B = I and T^3 B = sigma B
    for m in range(n_f // 2 + 1):
        masks = hardcore_basis(n_f, m)
        for boundary in ("ramond", "neveu-schwarz"):
            T = _translation_masks(n_f, m, boundary)
            T3 = T @ T @ T
            for sigma in (1, -1):
                basis = t3_sector_basis(n_f, m, sigma, boundary)
                assert isinstance(basis, SectorBasis)
                assert (basis.n, basis.t_eigenvalue, basis.parity_eigenvalue) == (n_f, sigma, None)
                B = embed(basis, np.eye(basis.dim))
                assert B.shape == (len(masks), basis.dim)
                assert B.dtype == np.float64
                assert set(basis.reps.tolist()) <= set(masks)
                assert basis.periods.sum() == np.count_nonzero(basis.column >= 0)
                assert np.abs(B.T @ B - np.eye(basis.dim)).max(initial=0.0) <= 1e-12
                assert np.abs(T3 @ B - sigma * B).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("boundary, sigma", [("ramond", -1), ("ramond", 1),
                                             ("neveu-schwarz", 1), ("neveu-schwarz", -1)])
def test_fermion_spectrum_is_spectrum_of_projection(boundary, sigma):
    # the sector H from the representatives against the projection of the
    # loop reference onto the loop reference basis, entry by entry, and its
    # levels against the reference's within the eigensolver's own error
    for n_f, m in ((6, 2), (9, 3), (12, 4)):
        lam = staggered_couplings(n_f, 0.61)
        op = fermion_hamiltonian(n_f, 0.61, m, boundary, sigma)
        ref = _assert_matches_projected_loop(op, n_f, m, lam, boundary, sigma)
        levels = fermion_spectrum(n_f, 0.61, m, boundary, sigma)
        assert np.array_equal(levels, spectrum(op))
        ev_ref = np.linalg.eigvalsh(ref)
        assert np.abs(levels - ev_ref).max(initial=0.0) <= 1e-13 * max(
            1.0, np.abs(ev_ref).max(initial=0.0))


@pytest.mark.parametrize("n_f", [6, 9, 12])
def test_t3_sectors_are_one_parity_block(n_f):
    # every hard-core mask of a sector has m set bits, so the spin-parity
    # split leaves one block, and the spectrum is the whole matrix's
    for m in range(1, n_f // 2 + 1):
        for boundary in ("ramond", "neveu-schwarz"):
            for sigma in (1, -1):
                basis = t3_sector_basis(n_f, m, sigma, boundary)
                assert [p for p, _ in basis.parity_blocks] == ([(-1) ** m] if basis.dim else [])
                if basis.dim:
                    assert np.array_equal(basis.parity_blocks[0][1], np.arange(basis.dim))
                op = fermion_hamiltonian(n_f, 0.61, m, boundary, sigma)
                assert np.array_equal(spectrum(op), _eigh_checked(op.matrix))


@pytest.mark.parametrize("m", range(1, 7))
def test_t3_spectrum_matches_the_eigenpair_path(m):
    # the sectors of the spectral comparison, N_f = 3m: the checked
    # eigenvalues against those of the eigenpairs of the symmetrised matrix
    n_f = 3 * m
    for boundary in ("ramond", "neveu-schwarz"):
        for sigma in (1, -1):
            op = fermion_hamiltonian(n_f, 0.61, m, boundary, sigma)
            ref = np.linalg.eigh((op.matrix + op.matrix.T) / 2)[0]
            assert np.abs(spectrum(op) - ref).max(initial=0.0) <= 1e-12 * max(
                1.0, np.linalg.norm(op.matrix))


# ---------------------------------------------------------------------------
# references: the per-state loops over occupied-site tuples that the bitmask
# code replaced; an operator on them is compared after reordering to masks


@lru_cache(maxsize=None)
def _basis_loop(n_f, m):
    """Reference: occupied-site tuples, lexicographic, with no two occupied
    sites adjacent on the ring."""
    return tuple(occ for occ in itertools.combinations(range(1, n_f + 1), m)
                 if not any(b - a == 1 for a, b in zip(occ, occ[1:]))
                 and not (m >= 2 and occ[0] == 1 and occ[-1] == n_f))


def _creation_loop(n_f, j, m):
    src, dst = _basis_loop(n_f, m), _basis_loop(n_f, m + 1)
    idx = {occ: i for i, occ in enumerate(dst)}
    D = np.zeros((len(dst), len(src)))
    left, right = (j - 2) % n_f + 1, j % n_f + 1
    for col, occ in enumerate(src):
        if j in occ or left in occ or right in occ:
            continue
        D[idx[tuple(sorted(occ + (j,)))], col] = (-1.0) ** sum(1 for y in occ if y < j)
    return D


def _hamiltonian_loop(n_f, m, lam, boundary):
    states = _basis_loop(n_f, m)
    idx = {occ: i for i, occ in enumerate(states)}
    H = np.zeros((len(states), len(states)))
    bc = 1.0 if boundary == "ramond" else -1.0
    for col, occ in enumerate(states):
        occ = set(occ)
        for j in range(1, n_f + 1):
            left, right = (j - 2) % n_f + 1, j % n_f + 1
            if left not in occ and right not in occ:
                H[col, col] += lam[j - 1] ** 2
        for j in range(1, n_f + 1):
            nxt = j % n_f + 1
            beyond = nxt % n_f + 1
            if j not in occ or nxt in occ or beyond in occ:
                continue
            new = idx[tuple(sorted((occ - {j}) | {nxt}))]
            sign = bc * (-1.0) ** (m - 1) if j == n_f else 1.0
            H[new, col] += lam[j - 1] * lam[nxt - 1] * sign
            H[col, new] += lam[j - 1] * lam[nxt - 1] * sign
    return H


def _translation_loop(n_f, m, boundary):
    states = _basis_loop(n_f, m)
    idx = {occ: i for i, occ in enumerate(states)}
    T = np.zeros((len(states), len(states)))
    bc = 1.0 if boundary == "ramond" else -1.0
    for col, occ in enumerate(states):
        new = tuple(sorted(y % n_f + 1 for y in occ))
        T[idx[new], col] = bc * (-1.0) ** (m - 1) if n_f in occ else 1.0
    return T


def _t3_basis_loop(n_f, m, sigma, boundary):
    """Reference: the T^3 eigenbasis from a Python walk over the orbits of
    the dense T^3 = T T T."""
    T = _translation_loop(n_f, m, boundary)
    T3 = T @ T @ T
    dim = len(T3)
    target = np.argmax(np.abs(T3), axis=0)
    sign = T3[target, np.arange(dim)]
    cols, seen = [], np.zeros(dim, dtype=bool)
    for start in range(dim):
        if seen[start]:
            continue
        orbit, signs, cur = [start], [1.0], start
        while True:
            nxt = int(target[cur])
            s = signs[-1] * sign[cur]
            if nxt == start:
                break
            orbit.append(nxt)
            signs.append(s)
            cur = nxt
        seen[orbit] = True
        if abs(sigma ** len(orbit) - s) > 1e-12:
            continue
        v = np.zeros(dim)
        for k, (i, sk) in enumerate(zip(orbit, signs)):
            v[i] = sk * sigma ** (-k)
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols) if cols else np.zeros((dim, 0))


def _to_masks(n_f, m):
    """Position in hardcore_basis(n_f, m) of each reference tuple state."""
    masks = [sum(1 << (y - 1) for y in occ) for occ in _basis_loop(n_f, m)]
    return np.searchsorted(hardcore_basis(n_f, m), masks)


def _reorder(A, rows, cols):
    """A reference operator moved into the mask ordering."""
    out = np.zeros_like(A)
    out[np.ix_(rows, cols)] = A
    return out


def _translate(x, n_f, seam):
    """One-site translation of masks, site y -> y+1: (image, sign), the sign
    being `seam` where site n_f is occupied."""
    return rotate_left(x, n_f), np.where((x >> (n_f - 1)) & 1, seam, 1.0)


def _translation_masks(n_f, m, boundary):
    """One-site translation on the m-particle masks, from `_translate` with
    the package's seam sign (+-1)(-1)^(m-1)."""
    states = hardcore_basis(n_f, m)
    image, sign = _translate(states, n_f, _seam_sign(boundary, m))
    T = np.zeros((len(states), len(states)))
    T[np.searchsorted(states, image), np.arange(len(states))] = sign
    return T


def _supercharge_masks(n_f, lam, m):
    """The loop reference Q = sum_j lambda_j d_j^dag from m to m + 1
    particles, in the mask ordering."""
    ref = sum(lam[j - 1] * _creation_loop(n_f, j, m) for j in range(1, n_f + 1))
    return _reorder(ref, _to_masks(n_f, m + 1), _to_masks(n_f, m))


def _hamiltonian_masks(n_f, m, lam, boundary):
    """The loop reference H in the mask ordering."""
    perm = _to_masks(n_f, m)
    return _reorder(_hamiltonian_loop(n_f, m, lam, boundary), perm, perm)


def _assert_matches_projected_loop(op, n_f, m, lam, boundary, sigma):
    """Assert that the sector operator equals B_ref^T H_ref B_ref, the loop
    reference H on the loop reference basis, within 1e-14 * max(1, max|H|),
    once the reference columns are put in the sector's order and signs (a
    signed permutation, as both are orbit sums); return the reference."""
    B_ref = _t3_basis_loop(n_f, m, sigma, boundary)
    ref = B_ref.T @ _hamiltonian_loop(n_f, m, lam, boundary) @ B_ref
    rows = np.zeros_like(B_ref)
    rows[_to_masks(n_f, m)] = B_ref
    S = embed(op.domain, np.eye(op.domain.dim)).T @ rows
    signed = np.rint(S)
    assert np.abs(S - signed).max(initial=0.0) <= 1e-12
    assert np.array_equal(np.abs(signed).sum(axis=0), np.ones(len(S)))
    ref = signed @ ref @ signed.T
    assert op.matrix.shape == ref.shape
    assert np.abs(op.matrix - ref).max(initial=0.0) <= 1e-14 * max(
        1.0, np.abs(ref).max(initial=0.0))
    return ref


REFERENCE_SIZES = (6, 9, 12, 15)


@pytest.mark.parametrize("n_f", REFERENCE_SIZES)
def test_masks_and_operators_match_loop_references(n_f):
    # the masks are the loop's tuples, and the translation of the masks is
    # the loop's translation
    for m in range(n_f // 2 + 1):
        perm = _to_masks(n_f, m)
        assert sorted(perm.tolist()) == list(range(len(hardcore_basis(n_f, m))))
        for boundary in ("ramond", "neveu-schwarz"):
            T = _reorder(_translation_loop(n_f, m, boundary), perm, perm)
            assert np.array_equal(_translation_masks(n_f, m, boundary), T)


@pytest.mark.parametrize("n_f", REFERENCE_SIZES)
def test_t3_sectors_match_loop_reference(n_f):
    lam = staggered_couplings(n_f, 0.73)
    for m in range(n_f // 2 + 1):
        perm = _to_masks(n_f, m)
        for boundary in ("ramond", "neveu-schwarz"):
            T = _translation_loop(n_f, m, boundary)
            T3 = _reorder(T @ T @ T, perm, perm)
            for sigma in (1, -1):
                basis = t3_sector_basis(n_f, m, sigma, boundary)
                dense = embed(basis, np.eye(basis.dim))
                assert np.abs(dense.T @ dense - np.eye(basis.dim)).max(initial=0.0) <= 1e-12
                assert np.abs(T3 @ dense - sigma * dense).max(initial=0.0) <= 1e-12
                op = fermion_hamiltonian(n_f, 0.73, m, boundary, sigma)
                ref = _assert_matches_projected_loop(op, n_f, m, lam, boundary, sigma)
                ev_ref = np.linalg.eigvalsh(ref)
                assert np.abs(spectrum(op) - ev_ref).max(initial=0.0) <= 1e-13 * max(
                    1.0, np.abs(ev_ref).max(initial=0.0))


@pytest.mark.parametrize("y", [0.37, 0.8, 1.3])
def test_ramond_m2_characteristic_polynomial(y):
    # eps^2 (eps-(1+4y^2)) (eps-(1+2y^2)) (eps^2-(3+4y^2)eps+2(1+2y^2+2y^4))
    ev = fermion_spectrum(6, y, 2, "ramond", -1)
    quad = np.roots([1.0, -(3 + 4 * y * y), 2 * (1 + 2 * y * y + 2 * y ** 4)])
    expected = np.sort(np.real(np.concatenate([[0, 0, 1 + 4 * y * y, 1 + 2 * y * y], quad])))
    assert np.allclose(np.sort(ev), expected, atol=1e-10)


@pytest.mark.parametrize("y", [0.37, 0.8, 1.3])
def test_ns_m2_characteristic_polynomial(y):
    # (eps-1)(eps^3-3eps^2(2y^2+1)+2eps(2y^2+1)^2+8y^4)(eps^2-eps(4y^2+1)+4y^4)
    ev = fermion_spectrum(6, y, 2, "neveu-schwarz", 1)
    cubic = np.roots([1.0, -3 * (2 * y * y + 1), 2 * (2 * y * y + 1) ** 2, 8 * y ** 4])
    quad = np.roots([1.0, -(4 * y * y + 1), 4 * y ** 4])
    expected = np.sort(np.real(np.concatenate([[1.0], cubic, quad])))
    assert np.allclose(np.sort(ev), expected, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_zero_modes_in_susy_sector(m):
    ev = fermion_spectrum(3 * m, 0.63, m, "ramond", (-1) ** (m + 1))
    assert int(np.sum(np.abs(ev) < 1e-10)) == 2
    assert np.all(ev > -1e-10)  # unbroken supersymmetry: spectrum nonnegative


def test_ns_ground_state_negative():
    # antiperiodic boundaries break the supersymmetry; the ground state dips
    # below 0 (at m = 2, in the T^3 = 1 sector)
    total = [e for m in range(0, 4) for sigma in (1, -1)
             for e in fermion_spectrum(6, 0.8, m, "neveu-schwarz", sigma)]
    assert min(total) < -1e-6


def test_y_of_zeta():
    assert y_of_zeta(3.0) == pytest.approx(1.0)
    assert y_of_zeta(1.0) == 0.0
    with pytest.raises(DomainError):
        y_of_zeta(0.5)


@pytest.mark.parametrize("variant", ["ramond_vs_kpi", "ns_vs_k0"])
@pytest.mark.parametrize("m", [2, 3])
def test_spectral_comparison(variant, m):
    report = spectral_comparison(m, 1.7, variant)
    assert report["pass"], report
    assert report["xyz_only"] == []
    assert report["fermion_only"] == []
    assert set(report) >= {
        "m", "zeta", "variant", "xyz_levels", "fermion_levels",
        "matched", "xyz_only", "fermion_only",
    }


def test_spectral_comparison_ramond_excludes_zero():
    report = spectral_comparison(2, 2.2, "ramond_vs_kpi")
    assert all(abs(v) > 1e-8 for v in report["matched"])
    assert any(abs(v) < 1e-10 for v in report["fermion_levels"])
    assert not any(abs(v) < 1e-8 for v in report["xyz_levels"])


# ---------------------------------------------------------------------------
# paths to hard-particle configurations


def test_path_image_is_hardcore():
    # an m-particle hard-core state of the ring of N_f = n + m sites
    for n in (4, 5, 7):
        for p in path_states(n):
            occupied, tag = path_to_hardcore(p)
            assert sum(1 << (y - 1) for y in occupied) in hardcore_basis(p.n + p.m, p.m)
            assert tag in ("i", "ii", "iii", "iv")


@pytest.mark.parametrize("n,m", [(4, 2), (5, 1), (7, 2), (8, 4), (9, 3), (10, 5)])
def test_path_image_counts(n, m):
    paths = [p for p in path_states(n) if p.m == m]
    images = {path_to_hardcore(p)[0] for p in paths}
    assert len(images) == math.comb(n - 1, m) + 2 * math.comb(n - 1, m - 1)
    # and the image count equals the number of hard-core states
    assert len(images) == hardcore_count(n + m, m)


def test_translation_cases():
    # (i)/(iii): image unchanged; (ii)/(iv): image translated by three sites
    for n in (5, 7):
        for p in path_states(n):
            if p.m == 0:
                continue
            occupied, tag = path_to_hardcore(p)
            shifted, _ = path_to_hardcore(path_translate(p))
            n_f = p.n + p.m
            if tag in ("i", "iii"):
                assert shifted == occupied, (p, tag)
            else:
                assert shifted == tuple(sorted((y - 1 + 3) % n_f + 1 for y in occupied)), (p, tag)


def test_theta_couplings_period_and_dependence():
    # the coupling conjecture lambda_y = |theta_1(w_y, q)|^(3/2) has period 3
    # and depends on s and t through s + t alone
    def theta_couplings(ctx):
        return [abs(ctx.theta(1, w(y, ctx))) ** 1.5 for y in range(1, 10)]

    lam_a = theta_couplings(ThetaContext(nome=0.3, s=0.4, t=-0.1))
    lam_b = theta_couplings(ThetaContext(nome=0.3, s=0.9, t=-0.6))  # same s + t
    assert lam_a == pytest.approx(lam_b)
    for j in range(6):
        assert lam_a[j] == pytest.approx(lam_a[j + 3])
    assert all(v > 0 for v in lam_a)


def test_model_validation():
    with pytest.raises(DomainError, match="unknown boundary"):
        fermion_hamiltonian(6, 0.5, 1, "twisted", 1)
    with pytest.raises(DomainError):
        staggered_couplings(7, 0.5)


def test_t3_sector_rejects_an_unknown_boundary():
    # the seam sign reads the boundary name
    with pytest.raises(DomainError, match="unknown boundary"):
        t3_sector_basis(6, 2, 1, "twisted")


@pytest.mark.parametrize("y", [math.nan, math.inf, 0.0])
def test_staggering_must_be_finite_and_nonzero(y):
    # rejected before the eigensolve, which fails on a NaN H with numpy's LinAlgError
    with pytest.raises(DomainError, match="finite and nonzero"):
        fermion_spectrum(6, y, 2, "ramond", -1)


@pytest.mark.parametrize("boundary", ["ramond", "neveu-schwarz"])
def test_t3_step_is_three_translations(boundary, monkeypatch):
    # the one rotation by three bits, signed by the parity of the particles
    # crossing the seam, equals three one-site translations bit for bit
    steps = []
    monkeypatch.setattr(fermion, "_orbit_sector", lambda states, n, step, t: steps.append(step))
    cases = [(n_f, m) for n_f in range(3, 22, 3) for m in range(n_f // 2 + 1)]
    assert len(cases) == 47
    for n_f, m in cases:
        t3_sector_basis(n_f, m, 1, boundary)
        x = states = hardcore_basis(n_f, m)
        sign = 1.0
        for _ in range(3):
            x, s = _translate(x, n_f, _seam_sign(boundary, m))
            sign = sign * s
        image, step_sign = steps.pop()(states)
        assert image.dtype == x.dtype and np.array_equal(image, x), (n_f, m)
        assert step_sign.dtype == np.float64 and np.array_equal(step_sign, sign), (n_f, m)
