import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from susyxyz import supercharge
from susyxyz.errors import ContractError, DomainError
from susyxyz.spinchain import (
    CouplingLine,
    SectorOperator,
    _parity_blocks,
    _rank,
    _signed_orbit_map,
    _spin_parity,
    build_sector_basis,
    embed,
    reverse_bits,
    reverse_spins,
    spectrum,
    xyz_hamiltonian,
)
from susyxyz.supercharge import (
    _charge_ranks,
    _conjugated,
    _refined_supercharge,
    algebra_suite,
    build_supercharges,
    cohomology_dimension,
    parity_spectral_inclusion,
    susy_sector,
    verify_algebra,
)

from operator_reference import FullOperator, project, quadruplet_counts, symmetry_operator


def local_q(j, n, zeta):
    """Reference: sparse 2^{n+1} x 2^n matrix of the pair-creation operator q_j.

    For 1 <= j <= n the operator acts on a down spin at site j; j = 0 acts on
    a down spin at the last site and creates the pair on sites (n+1, 1).
    """
    if not (0 <= j <= n):
        raise DomainError(f"local charge index must satisfy 0 <= j <= n, got {j}")
    states = np.arange(1 << n)
    if j == 0:
        b = states[(states >> (n - 1)) & 1 == 1]
        base = (b & ((1 << (n - 1)) - 1)) << 1
        pair = 1 | (1 << n)  # pair on sites (n+1, 1)
        sign = -1.0
    else:
        b = states[(states >> (j - 1)) & 1 == 1]
        base = (b & ((1 << (j - 1)) - 1)) | ((b >> j) << (j + 1))
        pair = 0b11 << (j - 1)  # pair on sites (j, j+1)
        sign = (-1.0) ** (j - 1)
    # per state b: the ++ pair (weight sign), then the -- pair (weight -zeta*sign)
    rows = np.column_stack([base, base | pair]).ravel()
    cols = np.repeat(b, 2)
    vals = np.tile([sign, -zeta * sign], len(b))
    return sp.csr_matrix((vals, (rows, cols)), shape=(1 << (n + 1), 1 << n))


def supercharge_full(n, zeta):
    """Reference: the full-space Q_N = sqrt(N/(N+1)) sum_{j=0}^{N} q_j."""
    total = sum(local_q(j, n, zeta) for j in range(n + 1))
    return math.sqrt(n / (n + 1)) * total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("zeta", [0.0, 0.7, 1.0])
def test_algebra_relations(n, zeta):
    for check in algebra_suite((n,), (zeta,))["checks"]:
        assert check["pass"], check


def test_supercharge_changes_sector():
    pair = build_supercharges(4, 0.5)
    Q = pair.q_plain
    assert Q.domain.n == 4 and Q.codomain.n == 5
    # t_4 = -1 and t_5 = +1 sectors
    assert Q.domain.t_eigenvalue == pytest.approx(-1.0)
    assert Q.codomain.t_eigenvalue == pytest.approx(1.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_supercharges_on_real_sectors_are_float64(n):
    pair = build_supercharges(n, 0.7)
    assert pair.q_plain.matrix.dtype == np.float64
    assert pair.q_tilde.matrix.dtype == np.float64


def test_anticommutator_reproduces_hamiltonian():
    checks = verify_algebra(build_supercharges(5, 1.3), build_supercharges(4, 1.3))
    residuals = {c["relation"]: c["residual"] for c in checks}
    assert residuals["hamiltonian_plain"] < 1e-11
    assert residuals["hamiltonian_tilde"] < 1e-11


def test_algebra_needs_the_pair_below_at_the_same_zeta():
    for dn in (build_supercharges(3, 1.3), build_supercharges(4, 0.7)):
        with pytest.raises(ContractError):
            verify_algebra(build_supercharges(5, 1.3), dn)


def test_conserved_charge_square_zero_and_commutes():
    # C is exactly 0 at n = 2, 4 and 6; n = 7 and 8 check a nonzero C
    zeta = 0.9
    for n in (4, 7, 8):
        pair = build_supercharges(n, zeta)
        C = pair.q_tilde.matrix.conj().T @ pair.q_plain.matrix
        H = xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)).matrix
        assert n == 4 or np.linalg.norm(C) > 1.0
        scale = max(1.0, np.linalg.norm(C))
        assert np.linalg.norm(C @ C) < 1e-10 * scale ** 2
        assert np.linalg.norm(C @ H - H @ C) < 1e-10 * scale * max(1.0, np.linalg.norm(H))


def test_cohomology_builds_no_tilde_charge(monkeypatch):
    # the cohomology reads the reflection halves of Q only: neither the whole
    # pair nor Qt = R Q R is built
    built = []

    def recording_build(*args):
        built.append(args)
        return refined(*args)

    def forbidden(*args):
        raise AssertionError("the cohomology built a whole supercharge or Qt")

    refined = supercharge._refined_supercharge
    monkeypatch.setattr(supercharge, "_refined_supercharge", recording_build)
    monkeypatch.setattr(supercharge, "build_supercharges", forbidden)
    monkeypatch.setattr(supercharge, "_conjugated", forbidden)
    assert cohomology_dimension(5, 0.7) == (1, 1)
    assert built == [(5, 0.7), (4, 0.7)]
    monkeypatch.undo()
    # read on demand, Qt is R Q R on the same sectors: R is a signed
    # permutation of the orbit sums, so each block of Qt is a block of Q with
    # its rows and columns permuted and signed, exactly, read out of the
    # matrix of Q, which is kept for the reader of both
    for n in (4, 5):
        pair = build_supercharges(n, 0.7)
        assert "q_tilde" not in vars(pair)
        Qt = pair.q_tilde.matrix
        assert pair.q_tilde.flip == 1 and "matrix" in vars(pair.q_plain)
        S_out, S_in = (np.rint(project(symmetry_operator("spin_reversal", b.n), b))
                       for b in (pair.q_plain.codomain, pair.q_plain.domain))
        for S in (S_out, S_in):
            assert np.array_equal(np.abs(S).sum(axis=0), np.ones(len(S)))
        assert np.array_equal(Qt, S_out @ pair.q_plain.matrix @ S_in)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("kind, symmetry",
                         [("spin_reversal", reverse_spins), ("parity", reverse_bits)])
def test_signed_orbit_maps_match_projected_symmetries(n, kind, symmetry):
    # S|c~> = sign[c] |perm[c]~> against the rounded projection of the
    # full-space S, on every real-t sector, parity-refined or not
    for t in (1.0, -1.0) if n % 2 == 0 else (1.0,):
        for parity in (None, 1, -1):
            basis = build_sector_basis(n, t, parity=parity)
            ref = project(symmetry_operator(kind, n), basis)
            perm, sign = _signed_orbit_map(basis, symmetry)
            S = np.zeros((basis.dim, basis.dim))
            S[perm, np.arange(basis.dim)] = sign
            assert np.array_equal(np.rint(ref), S)
            assert np.abs(ref - S).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_local_terms_are_translates_of_the_boundary_term(n):
    # T_{N+1} q_j T_N^{-1} = -q_{j+1} for every j < N
    T_out, T_in = (symmetry_operator("translation", k) for k in (n + 1, n))
    T_out, T_in = (sp.csr_matrix((T.vals, (T.rows, T.cols)), shape=T.shape) for T in (T_out, T_in))
    for j in range(n):
        moved = T_out @ local_q(j, n, 0.7) @ T_in.T
        assert (moved + local_q(j + 1, n, 0.7)).count_nonzero() == 0


@pytest.mark.parametrize("n", range(1, 10))
def test_supercharge_is_the_projected_boundary_term(n):
    # Q_N B = sqrt(N(N+1)) B' B'^H q_0 B on the susy sectors and their
    # reflection refinements, B and B' the domain and codomain embeddings
    for r in (None, 1, -1):
        dom = susy_sector(n, r)
        cod = susy_sector(n + 1, None if r is None else (-1) ** (n + 1) * r)
        B, B_out = embed(dom, np.eye(dom.dim)), embed(cod, np.eye(cod.dim))
        for zeta in (0.0, 0.7, 2.3):
            lhs = supercharge_full(n, zeta) @ B
            rhs = math.sqrt(n * (n + 1)) * B_out @ (B_out.conj().T @ (local_q(0, n, zeta) @ B))
            scale = max(1.0, np.abs(lhs).max(initial=0.0))
            assert np.abs(lhs - rhs).max(initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 14))
def test_supercharges_match_projected_references(n):
    # Q and Qt = R Q R from the orbit tables against the projections of the
    # full-space references
    dom, cod = susy_sector(n), susy_sector(n + 1)
    R_out, R_in = (symmetry_operator("spin_reversal", k) for k in (n + 1, n))
    R_out, R_in = (sp.csr_matrix((R.vals, (R.rows, R.cols)), shape=R.shape) for R in (R_out, R_in))
    for zeta in (0.0, 0.3, 0.7, 1.0, 2.5, 3.0):
        pair = build_supercharges(n, zeta)
        Q = supercharge_full(n, zeta)
        for op, full in ((pair.q_plain, Q), (pair.q_tilde, R_out @ Q @ R_in)):
            full = full.tocoo()
            ref = project(FullOperator(full.row, full.col, full.data, full.shape), dom, cod)
            assert op.matrix.shape == ref.shape
            assert np.abs(op.matrix - ref).max() <= 1e-13 * max(1.0, np.linalg.norm(ref))


def _traced_peak(build):
    """Peak bytes that tracemalloc sees while build() runs, after a first
    call has filled the caches of the sector bases."""
    build()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_supercharge_peak_memory():
    # no full-space Q and no projection: the two parity blocks are about half
    # of the whole dense matrix, and the images of one term are small
    n = 13
    whole = 8 * susy_sector(n + 1).dim * susy_sector(n).dim
    peak = _traced_peak(lambda: list(_parity_blocks(build_supercharges(n, 0.7).q_plain, -1)))
    assert peak <= 0.75 * whole


def test_hamiltonian_peak_memory():
    n = 13
    sector = susy_sector(n)
    peak = _traced_peak(lambda: list(_parity_blocks(xyz_hamiltonian(n, CouplingLine(0.7), sector), 1)))
    assert peak <= 1.0 * 8 * sector.dim ** 2


@pytest.mark.parametrize("n,expected", [(3, 2), (4, 0), (5, 2), (6, 0), (7, 2)])
def test_cohomology_dimension_small_sizes(n, expected):
    for zeta in (0.2, 1.0):
        assert sum(cohomology_dimension(n, zeta)) == expected


def test_cohomology_counts_zero_modes():
    # dim of the cohomology equals the number of E=0 states in the sector
    for n in (3, 5):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(0.8), susy_sector(n)))
        assert sum(1 for e in evals if abs(e) < 1e-9) == sum(cohomology_dimension(n, 0.8))


def test_quadruplet_pattern_121_at_3_plus_zeta_squared():
    zeta = 0.7
    target = 3 + zeta ** 2
    counts = []
    for n in (2, 3, 4):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)))
        counts.append(int(np.sum(np.abs(evals - target) < 1e-9)))
    assert counts == [1, 2, 1]


@pytest.mark.parametrize("n_center", [4, 5])
def test_multiplet_report_covers_window(n_center):
    # every positive-energy state of the window is a member of a quadruplet
    for n in (n_center - 1, n_center, n_center + 1):
        positive, members = quadruplet_counts(n, 0.9)
        assert positive > 0 and members == positive


def test_singlets_only_at_odd_sizes():
    # the states outside the quadruplets have zero energy, at odd sizes only
    def zero_modes(n):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(1.1), susy_sector(n)))
        return int(np.sum(np.abs(evals) < 1e-9))

    assert [n for n in (3, 4, 5) if zero_modes(n)] == [3, 5]


def _parity_residual(Q, n):
    """|| P_{N+1} Q P_N - (-1)^{N+1} Q ||, and its bound 1e-10 * max(1, ||Q||)."""
    resid = np.linalg.norm(_conjugated(Q, reverse_bits).matrix - (-1.0) ** (n + 1) * Q.matrix)
    return resid, 1e-10 * max(1.0, np.linalg.norm(Q.matrix))


def test_parity_covariance():
    # P Q P = (-1)^{N+1} Q, and at odd n the odd-parity spectrum lies inside
    # the even-parity one
    for n in (3, 4, 5):
        resid, bound = _parity_residual(build_supercharges(n, 0.6).q_plain, n)
        assert resid < bound
        assert n % 2 == 0 or parity_spectral_inclusion(n, 0.6) == (0.0, True)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_parity_covariance_rejects_a_perturbed_supercharge(n):
    # one entry of Q moved by 1e-6, in column 0 (the orbit sum of state 0,
    # spin parity +1, at position 0 of its block) and a row of spin parity
    # -1 whose orbit sum the reflection sends to another one (there is none
    # at n + 1 <= 5), so that P Q P moves it elsewhere
    Q = build_supercharges(n, 0.6).q_plain
    cod = Q.codomain
    P = np.rint(project(symmetry_operator("parity", n + 1), cod))
    row = np.flatnonzero((np.diag(P) == 0) & (_spin_parity(cod.reps) == -1))[0]

    def blocks():
        for p, block in Q.blocks():
            if p == 1:
                block[cod.block_position[row], 0] += 1e-6
            yield p, block

    resid, bound = _parity_residual(SectorOperator(Q.domain, cod, blocks, Q.flip), n)
    assert resid >= bound
    assert resid == pytest.approx(math.sqrt(2) * 1e-6, rel=1e-6)


def test_domain_errors():
    with pytest.raises(DomainError):
        cohomology_dimension(1, 0.5)


def _local_q_loop(j, n, zeta):
    """Reference: q_j built state by state."""
    rows, cols, vals = [], [], []
    if j == 0:
        sign = -1.0
        for b in range(1 << n):
            if not (b >> (n - 1)) & 1:
                continue
            body = (b & ((1 << (n - 1)) - 1)) << 1
            rows.append(body)
            vals.append(sign)
            cols.append(b)
            rows.append(body | 1 | (1 << n))
            vals.append(-zeta * sign)
            cols.append(b)
    else:
        string = (-1.0) ** (j - 1)
        low_mask = (1 << (j - 1)) - 1
        for b in range(1 << n):
            if not (b >> (j - 1)) & 1:
                continue
            low = b & low_mask
            rest = b >> j
            base = low | (rest << (j + 1))
            rows.append(base)  # pair ++ at sites (j, j+1)
            vals.append(string)
            cols.append(b)
            rows.append(base | (0b11 << (j - 1)))  # pair -- at sites (j, j+1)
            vals.append(-zeta * string)
            cols.append(b)
    return sp.csr_matrix((vals, (rows, cols)), shape=(1 << (n + 1), 1 << n))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("zeta", [0.0, 1.3])
def test_local_q_equals_loop_reference(n, zeta):
    for j in range(n + 1):
        got, ref = local_q(j, n, zeta), _local_q_loop(j, n, zeta)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def _parity_labels(basis):
    labels = np.zeros(basis.dim, dtype=int)
    for p, cols in basis.parity_blocks:
        labels[cols] = p
    return labels


@pytest.mark.parametrize("n", range(2, 12))
def test_forbidden_parity_blocks_are_exactly_zero(n):
    # H keeps P = (-1)^{#down}, Q maps (n, P) to (n+1, -P), Qt to (n+1, P)
    for zeta in (0.7, 2.3):
        pair = build_supercharges(n, zeta)
        H = xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n))
        for op, flip in ((H, 1), (pair.q_plain, -1), (pair.q_tilde, 1)):
            dom, cod = _parity_labels(op.domain), _parity_labels(op.codomain)
            allowed = cod[:, None] == flip * dom[None, :]
            assert np.all(op.matrix[~allowed] == 0.0)
            assert np.any(op.matrix[allowed] != 0.0)


def _whole_sector_dims(n, zeta):
    """Reference: the cohomology dims from one SVD per spin-parity block of
    the whole Q_n and Q_{n-1}, each cut at 1e-10 times its charge's largest
    singular value."""
    ranks = []
    for k in (n, n - 1):
        Q = build_supercharges(k, zeta).q_plain
        svals = {p: np.linalg.svd(block, compute_uv=False) for p, block in _parity_blocks(Q, -1)}
        s_max = max((v.max(initial=0.0) for v in svals.values()), default=0.0)
        ranks.append({p: _rank(v, s_max) for p, v in svals.items()})
    dims = {p: len(cols) - ranks[0][p] - ranks[1].get(-p, 0)
            for p, cols in susy_sector(n).parity_blocks}
    return dims.get(1, 0), dims.get(-1, 0)


@pytest.mark.parametrize("n", range(2, 14))
def test_refined_cohomology_equals_the_whole_sector_count(n):
    # n = 2 has no r = +1 columns, n = 3 and 5 no r = -1 columns
    for zeta in (0.05, 0.7, 1.0, 2.3, 3.0):
        assert cohomology_dimension(n, zeta) == _whole_sector_dims(n, zeta)


def test_algebra_builds_the_blocks_of_each_charge_once(monkeypatch):
    # Q and Qt of a pair come from one build of the blocks of Q
    built = []
    real_blocks = supercharge._q_blocks

    def counting_blocks(*args):
        built.append(args)
        return real_blocks(*args)

    monkeypatch.setattr(supercharge, "_q_blocks", counting_blocks)
    assert all(record["pass"] for record in algebra_suite((13,), (0.7,))["checks"])
    assert built == [(13, 0.7), (12, 0.7)]


@pytest.mark.parametrize("n", range(1, 12))
def test_refined_blocks_hold_the_singular_values_of_q(n):
    # the four (P, r) blocks of Q_n hold its singular values, and Q maps the
    # reflection eigenvalue r to (-1)^{n+1} r
    halves = _refined_supercharge(n, 0.7)
    for r, op in halves.items():
        assert op.domain.parity_eigenvalue == r
        assert op.codomain.parity_eigenvalue == (-1) ** (n + 1) * r
    whole = np.linalg.svd(build_supercharges(n, 0.7).q_plain.matrix, compute_uv=False)
    union = np.concatenate([np.linalg.svd(block, compute_uv=False)
                            for op in halves.values() for _, block in _parity_blocks(op, -1)])
    assert len(union) <= len(whole)
    union = np.sort(np.append(union, np.zeros(len(whole) - len(union))))[::-1]
    assert np.abs(union - whole).max() <= 1e-12 * whole[0]


@pytest.mark.parametrize("n", range(3, 12))
def test_block_ranks_equal_the_whole_svd_rank(n):
    # one cut per charge, over all four of its (P, r) blocks
    for zeta in (0.7, 2.3):
        for k in (n, n - 1):
            whole = _rank(np.linalg.svd(build_supercharges(k, zeta).q_plain.matrix,
                                        compute_uv=False))
            assert sum(_charge_ranks(_refined_supercharge(k, zeta), "Q").values()) == whole


def test_block_ranks_cut_and_warn_on_the_whole_matrix():
    # the cut is 1e-10 times the largest singular value of the whole charge,
    # here in the other reflection half, and a gap below 10 across it warns,
    # once for the charge
    halves = {}
    for r, values in ((1, {1: 1.0}), (-1, {-1: 2e-10, 1: 5e-11})):
        dom, cod = susy_sector(7, r), susy_sector(8, r)
        blocks = []
        for p, cols in dom.parity_blocks:
            block = np.zeros((len(dict(cod.parity_blocks)[-p]), len(cols)))
            block[0, 0] = values.get(p, 0.0)
            blocks.append((p, block))
        halves[r] = SectorOperator(dom, cod, lambda blocks=blocks: iter(blocks), -1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ranks = _charge_ranks(halves, "Q_7")
    assert ranks == {(1, 1): 1, (-1, 1): 0, (1, -1): 0, (-1, -1): 1}
    assert [str(w.message) for w in caught] == [
        "ill-conditioned rank for Q_7: singular values 2.000e-10 / 5.000e-11 "
        "straddle the threshold"]
