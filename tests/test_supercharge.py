import numpy as np
import pytest
import scipy.sparse as sp

from susyxyz.errors import DomainError
from susyxyz.spinchain import CouplingLine, SectorOperator, _rank, spectrum, xyz_hamiltonian
from susyxyz.supercharge import (
    _block_ranks,
    build_supercharges,
    cohomology_dimension,
    conserved_charge_C,
    local_q,
    multiplet_report,
    parity_covariance_check,
    susy_sector,
    verify_algebra,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("zeta", [0.0, 0.7, 1.0])
def test_algebra_relations(n, zeta):
    for check in verify_algebra(n, zeta):
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
    residuals = {c["relation"]: c["residual"] for c in verify_algebra(5, 1.3)}
    assert residuals["hamiltonian_plain"] < 1e-11
    assert residuals["hamiltonian_tilde"] < 1e-11


def test_conserved_charge_square_zero_and_commutes():
    n, zeta = 4, 0.9
    C = conserved_charge_C(n, zeta).matrix
    H = xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)).matrix
    scale = max(1.0, np.linalg.norm(C))
    assert np.linalg.norm(C @ C) < 1e-10 * scale ** 2
    assert np.linalg.norm(C @ H - H @ C) < 1e-10 * scale * max(1.0, np.linalg.norm(H))


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
    report = multiplet_report(n_center, 0.9)
    # every positive-energy state in the window belongs to a quadruplet
    coverage = report.coverage()
    for n in (n_center - 1, n_center, n_center + 1):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(0.9), susy_sector(n)))
        positive = [e for e in evals if e > 1e-9]
        assert sum(c for (size, _), c in coverage.items() if size == n) == len(positive)
    for quad in report.quadruplets:
        sizes = sorted(int(sid.split(":")[0]) for sid in quad.member_ids)
        assert sizes == [quad.base_size, quad.base_size + 1,
                         quad.base_size + 1, quad.base_size + 2]


def test_singlets_only_at_odd_sizes():
    report = multiplet_report(4, 1.1)
    sizes = sorted({n for n, _, _ in report.singlets})
    assert sizes == [3, 5]
    assert all(abs(e) < 1e-9 for _, e, _ in report.singlets)


def test_parity_covariance():
    for n in (3, 4, 5):
        for check in parity_covariance_check(n, 0.6):
            assert check["pass"], check


def test_member_id_format():
    report = multiplet_report(4, 0.4)
    for quad in report.quadruplets:
        for sid in quad.member_ids:
            n, sector, index = sid.split(":")
            # members falling outside the scanned window carry a placeholder
            assert sector in ("t=+1", "t=-1", "outside")
            assert int(n) >= 2
            if sector != "outside":
                assert int(index) >= 0


def test_domain_errors():
    with pytest.raises(DomainError):
        cohomology_dimension(1, 0.5)
    with pytest.raises(DomainError):
        multiplet_report(2, 0.5)


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


@pytest.mark.parametrize("n", range(3, 12))
def test_block_ranks_equal_the_whole_svd_rank(n):
    for zeta in (0.7, 2.3):
        for q in (build_supercharges(n, zeta).q_plain, build_supercharges(n - 1, zeta).q_plain):
            whole = _rank(np.linalg.svd(q.matrix, compute_uv=False))
            assert sum(_block_ranks(q, "Q").values()) == whole


def test_block_ranks_cut_and_warn_on_the_whole_matrix():
    # the cut is 1e-10 times the largest singular value of the whole matrix,
    # here in the other block, and a gap below 10 across it warns
    dom, cod = susy_sector(3), susy_sector(4)
    (plus, cols_plus), (minus, cols_minus) = dom.parity_blocks
    rows = dict(cod.parity_blocks)
    M = np.zeros((cod.dim, dom.dim))
    M[rows[minus][0], cols_plus[0]] = 1.0
    M[rows[plus][0], cols_minus[0]] = 2e-10
    M[rows[plus][1], cols_minus[1]] = 5e-11
    op = SectorOperator(domain=dom, codomain=cod, matrix=M)
    with pytest.warns(UserWarning, match="ill-conditioned rank for Q_3"):
        assert _block_ranks(op, "Q_3") == {1: 1, -1: 1}
