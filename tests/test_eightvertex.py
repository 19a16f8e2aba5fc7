import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyxyz import eightvertex, elliptic, spinchain
from susyxyz.eightvertex import (
    BetheRoots,
    _bethe_entire,
    _newton_polish,
    _newton_starts,
    _on_discard_line,
    _path_codes,
    _root_sets,
    _scan_on_orbits,
    _start_orbits,
    _translate_path_codes,
    appendixB_decomposition,
    bethe_amplitudes,
    bethe_residual,
    bethe_vector,
    extend_by_pi,
    find_bethe_roots,
    hatQ_dagger,
    path_rank,
    path_rank_complement,
    path_vectors,
    theta_triple_product,
    tq_eigenvalue,
    transfer_apply,
    transfer_matrix,
    translation_eigenvalue,
    vertex_weights,
    weight_tensor,
)
from susyxyz.elliptic import ThetaContext, h, zeta_of_nome
from susyxyz.errors import DomainError, InvariantViolation, PoleError
from susyxyz.spinchain import CouplingLine, xyz_apply

from operator_reference import (
    all_path_blocks,
    hamiltonian_from_transfer,
    intertwining_residual,
    path_blocks_reference,
    symmetry_operator,
    transfer_matrix_reference,
)
from path_reference import (
    PathState,
    hatQ_spin,
    path_matrix_reference,
    path_of_code,
    path_states,
    path_translate,
    path_vector_per_site,
)

CTX = ThetaContext(nome=0.2)


# ---------------------------------------------------------------------------
# vertex weights and transfer matrix


def test_weights_at_crossing_point():
    wts = vertex_weights(CTX.eta, CTX)
    assert abs(wts.b) < 1e-14
    assert wts.a == pytest.approx(h(CTX.eta, CTX), abs=1e-13)


@given(u=st.floats(-1.5, 1.5))
@settings(max_examples=30, deadline=None)
def test_weight_sum_rule(u):
    wts = vertex_weights(u, CTX)
    assert wts.a + wts.b == pytest.approx(h(u, CTX), abs=1e-12)


def test_weight_normalization_is_computed_once_per_context(monkeypatch):
    # rho, theta_1(2 eta, q^2) and theta_4(2 eta, q^2) do not depend on u: a
    # context computes them once, and the weights keep the bits of the
    # formula that computes them on every call
    calls = []
    theta = elliptic.theta

    def counting_theta(*args):
        calls.append(args)
        return theta(*args)

    monkeypatch.setattr(elliptic, "theta", counting_theta)
    eightvertex._weight_normalization.cache_clear()
    for nome in (0.05, 0.2, 0.45, 0.9):
        ctx = ThetaContext(nome=nome)
        eta = ctx.eta
        rho = 2.0 / (ctx.theta(2, 0.0) * ctx.theta_sq(4, 0.0))
        t1, t4 = ctx.theta_sq(1, 2 * eta), ctx.theta_sq(4, 2 * eta)
        for i, u in enumerate((0.1, 0.45, 1.3, -2.2, 0.3 + 0.2j)):
            del calls[:]
            vw = vertex_weights(u, ctx)
            assert len(calls) == (12 if i == 0 else 8)
            um, up = u - eta, u + eta
            assert (vw.a, vw.b, vw.c, vw.d) == (
                rho * t4 * ctx.theta_sq(4, um) * ctx.theta_sq(1, up),
                rho * t4 * ctx.theta_sq(1, um) * ctx.theta_sq(4, up),
                rho * t1 * ctx.theta_sq(4, um) * ctx.theta_sq(4, up),
                rho * t1 * ctx.theta_sq(1, um) * ctx.theta_sq(1, up),
            )


def test_weight_tensor_conserves_arrow_parity():
    W = weight_tensor(0.4, CTX)
    for mu in range(2):
        for al in range(2):
            for mu2 in range(2):
                for al2 in range(2):
                    if (mu + al + mu2 + al2) % 2 == 1:
                        assert W[mu, al, mu2, al2] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transfer_at_eta_is_translation(n):
    T = transfer_matrix(n, CTX.eta, CTX)
    shift = symmetry_operator("translation", n).toarray()
    expected = h(2 * CTX.eta, CTX) ** n * shift
    assert np.linalg.norm(T - expected) < 1e-10 * max(1.0, np.linalg.norm(T))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transfer_matrices_commute(n):
    Tu = transfer_matrix(n, 0.37, CTX)
    Tv = transfer_matrix(n, 0.91, CTX)
    scale = np.linalg.norm(Tu) * np.linalg.norm(Tv)
    assert np.linalg.norm(Tu @ Tv - Tv @ Tu) < 1e-11 * scale


def test_transfer_commutes_with_hamiltonian_and_symmetries():
    n = 4
    zeta = zeta_of_nome(CTX.nome)
    T = transfer_matrix(n, 0.53, CTX)
    H = xyz_apply(n, CouplingLine(zeta), np.eye(2 ** n))
    S = symmetry_operator("spin_reversal", n).toarray()
    scale = max(1.0, np.linalg.norm(T))
    assert np.linalg.norm(T @ H - H @ T) < 1e-10 * scale * max(1.0, np.linalg.norm(H))
    assert np.linalg.norm(T @ S - S @ T) < 1e-11 * scale


def test_transfer_transpose_via_parity():
    n = 4
    T = transfer_matrix(n, 0.62, CTX)
    P = symmetry_operator("parity", n).toarray()
    assert np.linalg.norm(T.T - P @ T @ P) < 1e-11 * max(1.0, np.linalg.norm(T))


@pytest.mark.parametrize("n,nome", [(2, 0.1), (3, 0.2), (4, 0.3)])
def test_hamiltonian_from_transfer(n, nome):
    ctx = ThetaContext(nome=nome)
    H_direct = xyz_apply(n, CouplingLine(zeta_of_nome(nome)), np.eye(2 ** n))
    H_log = hamiltonian_from_transfer(n, ctx)
    resid = np.linalg.norm(H_direct - H_log) / max(1.0, np.linalg.norm(H_direct))
    assert resid < 1e-5


def test_transfer_rejects_bad_input():
    with pytest.raises(DomainError):
        transfer_matrix(1, 0.3, CTX)


@pytest.mark.parametrize("nome", [0.05, 0.2, 0.45])
@pytest.mark.parametrize("n", range(2, 10))
def test_transfer_matrix_matches_reference_bit_for_bit(n, nome):
    ctx = ThetaContext(nome=nome)
    for u in (0.35, math.pi / 3, 1.3):
        assert np.array_equal(transfer_matrix(n, u, ctx), transfer_matrix_reference(n, u, ctx))


def test_transfer_matrix_peak_memory():
    # the trace closes inside the last contraction: no 4x-sized tensor
    transfer_matrix(10, 0.4, CTX)  # warm the theta caches
    tracemalloc.start()
    try:
        T = transfer_matrix(10, 0.4, CTX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * T.nbytes


def test_complex_spectral_parameter_keeps_imaginary_parts():
    # brute force: T[a', a] = sum over the horizontal spins m_1..m_n of
    # prod_j W[m_j, a_j, m_{j+1}, a'_j] with m_{n+1} = m_1
    n, u, ctx = 3, 0.9 + 0.2j, ThetaContext(nome=0.3)
    W = weight_tensor(u, ctx)
    assert W.dtype == np.complex128
    ref = np.zeros((1 << n, 1 << n), dtype=complex)
    for top in range(1 << n):
        for bottom in range(1 << n):
            for m in itertools.product((0, 1), repeat=n):
                ref[top, bottom] += np.prod([
                    W[m[j], bottom >> j & 1, m[(j + 1) % n], top >> j & 1] for j in range(n)
                ])
    assert np.abs(ref.imag).max() > 1e-3
    T = transfer_matrix(n, u, ctx)
    assert np.allclose(T, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
    V = np.random.default_rng(3).standard_normal((1 << n, 2))
    assert np.allclose(transfer_apply(n, u, ctx, V), ref @ V, rtol=0,
                       atol=1e-14 * np.linalg.norm(ref @ V))


@pytest.mark.parametrize("n", range(2, 11))
def test_transfer_apply_matches_dense(n):
    rng = np.random.default_rng(n)
    T = transfer_matrix(n, 0.73, CTX)
    for k in (1, 2, 5):
        for V in (rng.standard_normal((1 << n, k)),
                  rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))):
            got, ref = transfer_apply(n, 0.73, CTX, V), T @ V
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_transfer_apply_rejects_bad_input():
    with pytest.raises(DomainError):
        transfer_apply(1, 0.3, CTX, np.ones((2, 1)))
    with pytest.raises(DomainError):
        transfer_apply(3, float("nan"), CTX, np.ones((8, 1)))
    with pytest.raises(DomainError):
        transfer_apply(3, 0.3, CTX, np.ones((4, 2)))
    with pytest.raises(DomainError):
        transfer_apply(3, 0.3, CTX, np.float64(1.0))


def _count_theta_calls(monkeypatch):
    """The list that every later elliptic.theta call appends its kind to."""
    calls = []
    real_theta = elliptic.theta

    def counting_theta(*args, **kwargs):
        calls.append(args[0])
        return real_theta(*args, **kwargs)

    monkeypatch.setattr(elliptic, "theta", counting_theta)
    return calls


def test_transfer_matrix_builds_one_vertex_tensor(monkeypatch):
    # a homogeneous chain builds its vertex tensor once, whatever its length
    calls = _count_theta_calls(monkeypatch)
    transfer_matrix(3, 0.37, CTX)
    short = len(calls)
    transfer_matrix(9, 0.37, CTX)
    assert len(calls) - short == short


# ---------------------------------------------------------------------------
# path basis


def test_path_state_validation():
    PathState(ell=1, positions=(1, 3), n=4)
    with pytest.raises(DomainError):
        PathState(ell=3, positions=(), n=3)
    with pytest.raises(DomainError):
        PathState(ell=0, positions=(3, 1), n=4)  # not increasing
    with pytest.raises(DomainError):
        PathState(ell=0, positions=(1,), n=4)  # (n - 2m) % 3 != 0


def test_path_state_heights_and_json():
    p = PathState(ell=1, positions=(2,), n=5)
    assert list(p.heights()) == [1, 2, 1, 2, 3, 4]
    assert p.to_json_dict() == {"ell": 1, "positions": [2], "n": 5}


@pytest.mark.parametrize("n", range(2, 13))
def test_path_count(n):
    assert len(path_states(n)) == 2 ** n + 2 * (-1) ** n


@pytest.mark.parametrize("n", range(2, 13))
def test_path_rank(n):
    expected = 2 ** n if n % 2 == 0 else 2 ** n - 2
    assert path_rank(n, CTX) == expected


def test_even_chain_path_matrix_spans_everything():
    M = path_vectors(_path_codes(4), 4, CTX)
    assert np.linalg.matrix_rank(M, tol=1e-10) == 16


@pytest.mark.parametrize("n", [3, 5])
def test_complement_is_susy_ground_space(n):
    comp = path_rank_complement(n, CTX)[1]
    assert comp.shape == (2 ** n, 2)
    H = xyz_apply(n, CouplingLine(zeta_of_nome(CTX.nome)), np.eye(2 ** n))
    assert np.linalg.norm(H @ comp) < 1e-8 * max(1.0, np.linalg.norm(H))
    for u in (0.3, 0.8):
        T = transfer_matrix(n, u, CTX)
        lam = h(u, CTX) ** n
        assert np.linalg.norm(T @ comp - lam * comp) < 1e-8 * max(1.0, abs(lam))


def test_complement_inhomogeneous_variant():
    # the complement of the path span past the rank of the path matrix, both
    # on the inhomogeneous chain
    n = 3
    rng = np.random.default_rng(7)
    shifts = tuple(rng.uniform(-0.2, 0.2, size=n))
    u_svd, singular, _ = np.linalg.svd(path_matrix_reference(n, CTX, shifts))
    comp = u_svd[:, spinchain._rank(singular):]
    assert comp.shape[1] == 2
    for u in (0.45, 1.1):
        T = transfer_matrix_reference(n, u, CTX, shifts)
        lam = np.prod([h(u - s, CTX) for s in shifts])
        assert np.linalg.norm(T @ comp - lam * comp) < 1e-8 * max(1.0, abs(lam))


@pytest.mark.parametrize("n", [2, 3, 6, 7])
def test_cached_local_vectors_match_per_site_build(n):
    # every column of the path matrix, bit for bit, in code order
    ctx = ThetaContext(nome=0.35, s=0.21, t=-0.64)
    assert np.array_equal(path_vectors(_path_codes(n), n, ctx), path_matrix_reference(n, ctx))


def test_path_matrix_theta_call_count(monkeypatch):
    # a context no other test uses, so neither cache is warm
    ctx = ThetaContext(nome=0.27, s=0.3117, t=-0.6931)
    calls = _count_theta_calls(monkeypatch)
    M = path_vectors(_path_codes(10), 10, ctx)
    assert M.shape == (1024, len(_path_codes(10)))
    # 14 for the independence check and 2 for the local-vector table; without
    # either cache the count grows with the 1026 paths
    assert len(calls) <= 32


def test_complement_requires_odd_size():
    with pytest.raises(DomainError):
        path_rank_complement(4, CTX)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_and_complement_from_one_svd(n):
    rank, comp = path_rank_complement(n, CTX, complement=n % 2 == 1)
    assert rank == path_rank(n, CTX)
    if n % 2 == 0:
        assert comp is None
    else:
        # the complement is unique up to a unitary rotation of its 2 columns
        ref = _dense_path_svd(n, CTX)[2]
        assert np.allclose(comp @ comp.conj().T, ref @ ref.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_rank_with_complement_is_path_rank(n):
    assert path_rank_complement(n, CTX)[0] == path_rank(n, CTX)


def test_complement_takes_singular_vectors_of_one_block(monkeypatch):
    # at odd n both complement states lie in one block; only its SVD needs U
    with_u = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            with_u.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert path_rank_complement(9, CTX)[1].shape == (512, 2)
    assert len(with_u) == 1


def test_complement_dimension_is_checked(monkeypatch):
    # a cut above every singular value leaves the whole space as "complement"
    monkeypatch.setattr(spinchain, "_RANK_CUT", 2.0)
    with pytest.raises(InvariantViolation):
        path_rank_complement(3, CTX)


@pytest.mark.parametrize("n", range(2, 11))
def test_path_code_step_is_path_translate(n):
    codes = _path_codes(n)
    paths = [path_of_code(c, n) for c in codes.tolist()]
    assert sorted(codes) == list(codes)
    assert set(paths) == set(path_states(n)) and len(paths) == len(path_states(n))
    stepped = _translate_path_codes(codes, n).tolist()
    assert [path_of_code(c, n) for c in stepped] == [path_translate(p) for p in paths]


@pytest.mark.parametrize("n", range(2, 10))
def test_translation_permutes_path_vectors(n):
    # S|p> = |path_translate(p)>, the symmetry behind the momentum blocks
    states = [path_of_code(c, n) for c in _path_codes(n).tolist()]
    M = path_vectors(_path_codes(n), n, CTX)
    index = {p: i for i, p in enumerate(states)}
    image = M[:, [index[path_translate(p)] for p in states]]
    S = symmetry_operator("translation", n)
    err = np.linalg.norm(S @ M - image, axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(image, axis=0))


def _dense_path_svd(n, ctx):
    """Reference: rank, padded singular values and complement (odd n) from
    one SVD of the whole 2^n x #paths path matrix."""
    u, s, _ = np.linalg.svd(path_vectors(_path_codes(n), n, ctx))
    rank = spinchain._rank(s)
    return rank, np.pad(s, (0, (1 << n) - len(s))), u[:, rank:]


@pytest.mark.parametrize("nome", [0.2, 0.4])
@pytest.mark.parametrize("n", range(2, 11))
def test_path_blocks_match_dense_svd(n, nome):
    ctx = ThetaContext(nome=nome)
    rank, s_dense, comp_dense = _dense_path_svd(n, ctx)
    s_blocks = np.concatenate([np.linalg.svd(Mb, compute_uv=False)
                               for Mb in all_path_blocks(n, ctx)])
    s_blocks = np.pad(np.sort(s_blocks)[::-1], (0, (1 << n) - len(s_blocks)))
    assert np.max(np.abs(s_blocks - s_dense)) <= 1e-13 * s_dense[0]
    got, comp = path_rank_complement(n, ctx, complement=n % 2 == 1)
    assert got == rank == path_rank(n, ctx)
    if n % 2 == 1:
        assert comp.shape == (1 << n, 2)
        assert np.allclose(comp.conj().T @ comp, np.eye(2), atol=1e-12)
        assert np.allclose(comp @ comp.conj().T, comp_dense @ comp_dense.conj().T, atol=1e-12)
        for u in (0.35, 0.8):
            lam = h(u, ctx) ** n
            resid = np.linalg.norm(transfer_matrix(n, u, ctx) @ comp - lam * comp)
            assert resid < 1e-8 * max(1.0, abs(lam))


@pytest.mark.parametrize("n", [6, 7])
def test_path_rank_cut_is_global(monkeypatch, n):
    # every block is cut against the largest singular value of all blocks:
    # with a cut inside the spectrum the rank is the dense rank at that cut
    _, s_dense, _ = _dense_path_svd(n, CTX)
    ratios = s_dense[s_dense > 0] / s_dense[0]
    # cut between two distinct values; momenta k and n - k share theirs
    gaps = [j for j in range(1, len(ratios)) if ratios[j - 1] > (1 + 1e-6) * ratios[j]]
    for j in (gaps[len(gaps) // 4], gaps[len(gaps) // 2], gaps[3 * len(gaps) // 4]):
        cut = math.sqrt(ratios[j - 1] * ratios[j])
        monkeypatch.setattr(spinchain, "_RANK_CUT", cut)
        # the neighbours of such a cut lie within 10 of each other: a close call
        with pytest.warns(UserWarning, match=f"ill-conditioned rank for the path matrix at n={n}"):
            assert path_rank(n, CTX) == np.sum(s_dense > cut * s_dense[0]) == j


@pytest.mark.parametrize("n", range(2, 11))
def test_block_ranks_of_the_path_blocks(n):
    # the one rank rule over blocks, shared with the cohomology ranks: each
    # path block is cut at 1e-10 times the largest singular value of them
    # all, and at that cut no path rank is a close call (full, or at odd n
    # two singular values at rounding level)
    blocks = all_path_blocks(n, CTX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks = spinchain._block_ranks(enumerate(blocks), "paths")
    s_max = max(np.linalg.norm(M, 2) for M in blocks)
    assert list(ranks) == list(range(n))
    assert list(ranks.values()) == [np.linalg.matrix_rank(M, tol=1e-10 * s_max) for M in blocks]
    assert sum(ranks.values()) == path_rank(n, CTX) == (1 << n) - 2 * (n % 2)


@pytest.mark.parametrize("nome", [0.2, 0.4])
@pytest.mark.parametrize("n", range(2, 12))
def test_half_spectrum_path_blocks_match_the_sector_walks(n, nome):
    # M_k for k <= n / 2 from one orbit gather and a real DFT against one
    # sector walk and restrict per momentum, and M_{n-k} = conj(M_k); the
    # blocks of the real momenta 0 and n / 2 are float64
    ctx = ThetaContext(nome=nome)
    ref = [M for _, M in path_blocks_reference(n, ctx)]
    half = eightvertex._path_blocks(n, ctx)
    bound = 1e-14 * max(np.abs(M).max(initial=0.0) for M in ref)
    assert len(half) == n // 2 + 1
    for k, M in enumerate(half):
        assert M.dtype == (np.float64 if 2 * k in (0, n) else np.complex128)
        assert M.shape == ref[k].shape == ref[-k % n].shape
        assert np.abs(M - ref[k]).max(initial=0.0) <= bound
        assert np.abs(M.conj() - ref[-k % n]).max(initial=0.0) <= bound


@pytest.mark.parametrize("n", [2, 7, 10, 11])
def test_path_rank_takes_one_svd_per_conjugate_pair(monkeypatch, n):
    # floor(n / 2) + 1 SVDs, and no momentum sector but t = 1 is built
    svds, sectors = [], []
    real_svd, real_build = np.linalg.svd, eightvertex.build_sector_basis

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return real_svd(a, *args, **kwargs)

    def recording_build(n, t, *args):
        sectors.append(complex(t))
        return real_build(n, t, *args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(eightvertex, "build_sector_basis", recording_build)
    assert path_rank(n, CTX) == (1 << n) - 2 * (n % 2)
    assert len(svds) == n // 2 + 1
    assert sectors == [1.0]


def test_path_blocks_require_real_path_vectors(monkeypatch):
    # M_{n-k} = conj(M_k) holds for real path vectors only
    monkeypatch.setattr(eightvertex, "path_vectors",
                        lambda codes, n, ctx: path_vectors(codes, n, ctx) + 0j)
    with pytest.raises(InvariantViolation, match="not float64"):
        path_rank(5, CTX)


def test_homogeneous_path_rank_builds_no_path_matrix(monkeypatch):
    # only the path vectors of the orbit representatives are built, never
    # those of every path
    built = []

    def recording(codes, n, ctx):
        built.append((len(codes), len(_path_codes(n))))
        return path_vectors(codes, n, ctx)

    monkeypatch.setattr(eightvertex, "path_vectors", recording)
    assert path_rank(10, CTX) == 1024
    assert path_rank_complement(9, CTX)[1].shape == (512, 2)
    # (representatives, paths): one orbit of up to n paths per representative
    assert built == [(108, 1026), (58, 510)]


# ---------------------------------------------------------------------------
# supercharges in path and spin coordinates


@pytest.mark.parametrize("n", [4, 5, 6])
def test_hatQ_nilpotent(n):
    A = hatQ_dagger(n, CTX)
    B = hatQ_dagger(n - 1, CTX)
    assert np.linalg.norm(B @ A) < 1e-12 * max(1.0, np.linalg.norm(A) ** 2)


def _hatQ_dagger_per_path(n, ctx):
    """Reference hatQ^dag, one path at a time: a down step enters at x between
    the down steps x_{r-1} and x_r; rows and columns in code order."""
    src = [path_of_code(c, n) for c in _path_codes(n).tolist()]
    dst = [path_of_code(c, n - 1) for c in _path_codes(n - 1).tolist()]
    index = {p: i for i, p in enumerate(dst)}
    Qd = np.zeros((len(dst), len(src)))
    hw = [h(elliptic.w(ell, ctx), ctx) for ell in range(3)]
    for col, p in enumerate(src):
        bounds = (0,) + p.positions + (n + 1,)
        for r in range(1, p.m + 2):
            for x in range(bounds[r - 1] + 1, bounds[r] - 1):
                new_pos = p.positions[: r - 1] + (x,) + tuple(xi - 1 for xi in p.positions[r - 1:])
                height = (p.ell + x - 2 * (r - 1)) % 3
                Qd[index[PathState(p.ell, new_pos, n - 1)], col] += (-1.0) ** x * hw[height] ** 2
    return Qd


def test_hatQ_lowers_size_and_raises_particle_number():
    for n in range(3, 9):
        A = hatQ_dagger(n, CTX)
        assert np.array_equal(A, _hatQ_dagger_per_path(n, CTX))
        src = [path_of_code(c, n) for c in _path_codes(n).tolist()]
        dst = [path_of_code(c, n - 1) for c in _path_codes(n - 1).tolist()]
        assert A.shape == (len(dst), len(src))
        for i, j in zip(*np.nonzero(A)):
            assert dst[i].m == src[j].m + 1
            assert dst[i].ell == src[j].ell


def test_hatQ_smallest_size():
    with pytest.raises(DomainError):
        hatQ_dagger(2, CTX)


@pytest.mark.parametrize("charge", ["hatQ", "Q", "Qtilde"])
@pytest.mark.parametrize("n", [3, 4])
def test_intertwining(n, charge):
    for u in (0.4, 0.9):
        assert intertwining_residual(n, u, CTX, charge) < 1e-9


def test_hatQ_spin_consistent_with_path_action():
    # the spin lift acts on path vectors as hatQ^dag acts on path coordinates,
    # which holds only if path_vectors and hatQ_dagger share one path order
    for nome in (0.2, 0.35):
        ctx = ThetaContext(nome=nome)
        for n in range(3, 9):
            X = hatQ_spin(n, ctx)
            assert X.shape == (2 ** n, 2 ** (n - 1))
            image = path_vectors(_path_codes(n - 1), n - 1, ctx) @ hatQ_dagger(n, ctx)
            err = np.linalg.norm(X.conj().T @ path_vectors(_path_codes(n), n, ctx) - image)
            assert err <= 1e-12 * np.linalg.norm(image)


# ---------------------------------------------------------------------------
# Bethe ansatz and the T-Q relation


def test_bethe_roots_validate_omega():
    BetheRoots(roots=(0.4,), omega=np.exp(2j * np.pi / 3), n=5)
    with pytest.raises(DomainError):
        BetheRoots(roots=(0.4,), omega=1.2, n=5)


def test_tq_matches_transfer_spectrum_m0():
    # with no roots the T-Q relation gives omega phi(u-eta) + phi(u+eta)/omega;
    # the m = 0 path sector needs n divisible by 3
    n, u = 6, 0.57
    br = BetheRoots(roots=(), omega=1.0, n=n)
    lam = tq_eigenvalue(u, br, CTX)
    T = transfer_matrix(n, u, CTX)
    evals = np.linalg.eigvals(T)
    assert min(abs(evals - lam)) < 1e-9 * max(1.0, abs(lam))


def test_tq_at_eta_reduces_to_translation_value():
    n = 5
    br = BetheRoots(roots=(0.31,), omega=np.exp(2j * np.pi / 3), n=n)
    lam = tq_eigenvalue(CTX.eta, br, CTX)
    t = translation_eigenvalue(br, CTX)
    assert abs(lam - h(2 * CTX.eta, CTX) ** n * t) < 1e-10 * max(1.0, abs(lam))


def test_tq_pole_detection():
    br = BetheRoots(roots=(0.31,), omega=1.0, n=4)
    with pytest.raises(PoleError):
        tq_eigenvalue(0.31, br, CTX)


@pytest.fixture(scope="module")
def m1_solutions():
    omega = np.exp(2j * np.pi / 3)
    return find_bethe_roots(5, 1, omega, CTX)


def test_found_roots_satisfy_bethe_equations(m1_solutions):
    assert m1_solutions
    for br in m1_solutions:
        assert max(abs(r) for r in bethe_residual(br, CTX)) < 1e-9


def test_bethe_vectors_are_eigenvectors(m1_solutions):
    n = 5
    shift = symmetry_operator("translation", n).toarray()
    for br in m1_solutions:
        v = bethe_vector(br, CTX)
        nv = np.linalg.norm(v)
        assert nv > 1e-7
        v = v / nv
        t = translation_eigenvalue(br, CTX)
        assert np.linalg.norm(shift @ v - t * v) < 1e-8
        u = 0.44
        lam = tq_eigenvalue(u, br, CTX)
        T = transfer_matrix(n, u, CTX)
        assert np.linalg.norm(T @ v - lam * v) < 1e-7 * max(1.0, abs(lam))


def _single_particle_g(uj, ell, x, ctx):
    """Reference: Baxter's single-particle function g(ell, x) for rapidity u_j."""
    eta = ctx.eta
    eik = h(uj + eta, ctx) / h(uj - eta, ctx)
    return (
        eik ** x
        * h(elliptic.w(ell + x - 1, ctx) - eta - uj, ctx)
        / (h(elliptic.w(ell + x - 2, ctx), ctx) * h(elliptic.w(ell + x - 1, ctx), ctx))
    )


def _bethe_wavefunction(br, ctx, ell, positions):
    """Reference: psi(ell; x_1 .. x_m) in Bethe-ansatz form, one path at a time."""
    total = 0.0j
    for perm, A in bethe_amplitudes(br.roots, ctx).items():
        term = A
        for slot, x in enumerate(positions):
            term *= _single_particle_g(br.roots[perm[slot]], ell - 2 * slot, x, ctx)
        total += term
    return total


def _bethe_vector_per_path(br, ctx):
    """Reference Bethe vector, accumulated one path at a time over path_states."""
    flipped = BetheRoots(roots=tuple(-r for r in br.roots), omega=1.0 / br.omega, n=br.n)
    vec = np.zeros(1 << br.n, dtype=complex)
    for p in path_states(br.n):
        if p.m == br.m:
            psi = _bethe_wavefunction(flipped, ctx, p.ell, p.positions)
            vec = vec + flipped.omega ** p.ell * psi * path_vector_per_site(p, ctx)
    return vec


@pytest.mark.parametrize("n,m", [(5, 1), (4, 2)])
def test_bethe_vector_matches_per_path_sum(n, m):
    found = 0
    for omega in (1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)):
        for br in find_bethe_roots(n, m, omega, CTX):
            v = bethe_vector(br, CTX)
            err = np.linalg.norm(v - _bethe_vector_per_path(br, CTX))
            assert err <= 1e-12 * max(1.0, np.linalg.norm(v))
            found += 1
    assert found


def test_bethe_vector_theta_calls_do_not_grow_with_the_paths(monkeypatch):
    # the per-root tables cost the same for the 63 paths of (7, 2) as for the
    # 18 of (4, 2); the local-vector and path-table caches start cold for
    # each count
    omega = np.exp(2j * np.pi / 3)
    counts = []
    for n in (4, 7):
        br = find_bethe_roots(n, 2, omega, CTX)[0]
        eightvertex._require_independent.cache_clear()
        eightvertex._local_vector_table.cache_clear()
        eightvertex._bethe_tables.cache_clear()
        calls = _count_theta_calls(monkeypatch)
        bethe_vector(br, CTX)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1]


def test_extension_by_pi(m1_solutions):
    n = 5
    good = [
        br
        for br in m1_solutions
        if abs(translation_eigenvalue(br, CTX) - (-1.0) ** (n + 1)) < 1e-8
    ]
    assert good
    for br in good:
        ext = extend_by_pi(br, CTX)
        assert ext.n == n - 1
        assert ext.roots[-1] == pytest.approx(math.pi)
        # the extended solution still satisfies the Bethe equations
        assert max(abs(r) for r in bethe_residual(ext, CTX)) < 1e-8
        for u in (0.52, 1.07):
            lam_n = tq_eigenvalue(u, br, CTX)
            lam_ext = tq_eigenvalue(u, ext, CTX)
            assert abs(lam_ext + lam_n / h(u, CTX)) < 1e-8 * max(1.0, abs(lam_ext))


def test_extension_rejected_off_sector(m1_solutions):
    bad = [
        br
        for br in m1_solutions
        if abs(translation_eigenvalue(br, CTX) - 1.0) > 1e-6
    ]
    assert bad
    with pytest.raises(DomainError):
        extend_by_pi(bad[0], CTX)


def test_scattering_matches_amplitude_ratio():
    roots = (0.41, -0.23)
    amps = bethe_amplitudes(roots, CTX)
    ratio = amps[(1, 0)] / amps[(0, 1)]
    # the bare two-particle factor -h(u2 - u1 + 2 eta) / h(u1 - u2 + 2 eta)
    def scattering_ratio(u1, u2):
        return -h(u2 - u1 + 2 * CTX.eta, CTX) / h(u1 - u2 + 2 * CTX.eta, CTX)

    assert scattering_ratio(*roots) == pytest.approx(ratio, rel=1e-12)
    # coincident rapidities scatter with amplitude -1
    assert scattering_ratio(0.3, 0.3) == pytest.approx(-1.0)


def test_equal_roots_annihilate_wavefunction():
    br = BetheRoots(roots=(0.5, 0.5), omega=1.0, n=4)
    assert not np.any(bethe_vector(br, CTX))


def test_residual_rejects_coincident_roots():
    br = BetheRoots(roots=(0.5, 0.5), omega=1.0, n=4)
    with pytest.raises(DomainError):
        bethe_residual(br, CTX)


# ---------------------------------------------------------------------------
# decomposition of the n=2 identity (three-site supercharge images)


def test_theta_triple_product_periodicity():
    x = 0.37
    f1 = theta_triple_product(1, x, CTX)
    assert theta_triple_product(1, x + 2 * math.pi / 3, CTX) == pytest.approx(
        f1, rel=1e-12
    )


def test_identity_decomposition_default_parameters():
    report = appendixB_decomposition(CTX)
    assert report["pass"], report
    assert report["ratio_error"] < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identity_decomposition_random_parameters(seed):
    rng = np.random.default_rng(seed)
    ctx = ThetaContext(
        nome=rng.uniform(0.05, 0.5),
        s=rng.uniform(-1.0, 1.0),
        t=rng.uniform(-1.0, 1.0),
    )
    report = appendixB_decomposition(ctx)
    assert report["pass"], report


# ---------------------------------------------------------------------------
# Newton on live rows against the former all-rows loop

BENCH_BETHE_CASES = [(5, 1), (4, 2)]
OMEGAS = (1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3))


def _newton_all_rows(U, n, omega, ctx, tol=1e-11):
    """The former Newton loop: F and the Jacobian on every row, every pass."""
    m = U.shape[1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(60):
            F, J, _ = _bethe_entire(U, n, omega, ctx)
            done = ~np.all(np.isfinite(F), axis=1) | (np.max(np.abs(F), axis=1) < tol)
            if np.all(done):
                break
            if m == 1:
                step = F / np.where(J[:, :, 0] == 0, np.nan, J[:, :, 0])
            else:
                det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                det = np.where(np.abs(det) < 1e-30, np.nan, det)
                step = np.empty_like(U)
                step[:, 0] = (J[:, 1, 1] * F[:, 0] - J[:, 0, 1] * F[:, 1]) / det
                step[:, 1] = (J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]) / det
            step = np.where(np.abs(step) > 5.0, np.nan, step)
            active = (np.max(np.abs(F), axis=1) >= tol)[:, None]
            U = U - np.where(active, step, 0.0)
    return U


@pytest.mark.parametrize("nome,cases", [
    pytest.param(0.2, BENCH_BETHE_CASES, id="0.2"),
    pytest.param(0.45, BENCH_BETHE_CASES, id="0.45"),
    pytest.param(0.6, [(4, 2)], id="0.6-n4"),
    pytest.param(0.45, [(7, 2)], id="0.45-n7"),
])
def test_live_row_newton_matches_all_rows_loop(nome, cases):
    # nome 0.2 is the one of the paper's Bethe checks, 0.45 needs the most
    # theta terms; at nome 0.6, n = 4 and at nome 0.45, n = 7 the all-rows
    # loop lets a few rows that reached the discard line drift about 2e-6 off
    # it, where bethe_residual rejects them. Start rows, window and tolerance
    # are find_bethe_roots' defaults
    ctx = ThetaContext(nome=nome)
    for n, m in cases:
        start = _newton_starts(m)
        for omega in OMEGAS:
            got = _newton_polish(start, n, complex(omega), ctx)
            ref = _newton_all_rows(start, n, complex(omega), ctx)
            # a retired row ends on the discard line, a stuck one with a root
            # outside the strip; every other row has the same iterates bit for
            # bit, including which rows diverged
            retired = ~np.all((got == ref) | (np.isnan(got) & np.isnan(ref)), axis=1)
            stuck = np.any(np.abs(got.imag) > eightvertex._IMAG_WINDOW + 0.2, axis=1)
            assert np.any(retired & ~stuck) == (m == 2)
            assert np.all(_on_discard_line(got[retired & ~stuck], ctx.eta))
            assert np.array_equal(got[~retired], ref[~retired], equal_nan=True)
            # so the same root sets, in the same order, with the same
            # representatives
            assert _root_sets(got, n, complex(omega), ctx) == _root_sets(ref, n, complex(omega), ctx)


def _bethe_entire_reference(U, n, omega, ctx):
    """The former kernel of the Newton scan: h(-2 eta) evaluated on every
    call, and the products over all k' != k from a cumulative product from
    both ends."""
    K, m = U.shape
    rows, cols = np.nonzero(~np.eye(m, dtype=bool))
    above, below, double = (cmath.exp(1j * ctx.eta), cmath.exp(-1j * ctx.eta),
                            cmath.exp(-2j * ctx.eta))
    X = np.exp(1j * U)
    exps = np.concatenate([X * above, X * below, X[:, rows] * (1.0 / X)[:, cols] * double],
                          axis=1)
    y = np.abs(U.imag)
    y = np.concatenate([y, y, np.abs(U.imag[:, rows] - U.imag[:, cols])], axis=1)
    val, der = elliptic.theta1_from_exp(exps, y, ctx.nome)
    D = np.full((K, m, m), elliptic.theta1_from_exp(double, 0.0, ctx.nome)[0])
    dD = np.zeros((K, m, m), dtype=complex)
    D[:, rows, cols], dD[:, rows, cols] = val[:, 2 * m:], der[:, 2 * m:]
    F = np.zeros((K, m), dtype=complex)
    J = np.zeros((K, m, m), dtype=complex)
    diag = np.arange(m)
    ones = np.ones((K, m, 1), dtype=complex)
    sides = (
        (1.0, val[:, :m], der[:, :m], D, dD),
        (omega ** 2, val[:, m:2 * m], der[:, m:2 * m], -D.transpose(0, 2, 1),
         dD.transpose(0, 2, 1)),
    )
    for phase, v, dv, d, dd in sides:
        power = v ** n
        prod = np.prod(d, axis=2)
        before = np.cumprod(np.concatenate([ones, d[:, :, :-1]], axis=2), axis=2)
        after = np.cumprod(np.concatenate([ones, d[:, :, :0:-1]], axis=2), axis=2)[:, :, ::-1]
        E = before * after * dd
        F += phase * (power * prod)
        J -= phase * (power[:, :, None] * E)
        J[:, diag, diag] += phase * (n * v ** (n - 1) * dv * prod + power * E.sum(axis=2))
    return F, J


@pytest.mark.parametrize("nome", [0.05, 0.2, 0.45, 0.9])
def test_bethe_kernel_matches_the_former_kernel_bit_for_bit(nome):
    # complex np.prod over a short axis rounds differently from chained
    # multiplications, and such a rounding difference moves root sets; so F
    # and J of m <= 2 must stay bit-identical, on the start rows and on
    # seeded random rows in the window of the starts
    ctx = ThetaContext(nome=nome)
    rng = np.random.default_rng(int(nome * 100))
    for m in (1, 2):
        window = eightvertex._IMAG_WINDOW
        U = np.concatenate([_newton_starts(m), rng.uniform(0.0, math.pi, (200, m))
                            + 1j * rng.uniform(-window, window, (200, m))])
        for n in (4, 5, 7, 10, 13):
            for omega in OMEGAS:
                F, J = _bethe_entire(U, n, complex(omega), ctx)[:2]
                F_ref, J_ref = _bethe_entire_reference(U, n, complex(omega), ctx)
                assert np.array_equal(F, F_ref) and np.array_equal(J, J_ref)


@pytest.mark.parametrize("omega,evaluated",
                         zip(OMEGAS, ((50, 3426), (45, 5988), (45, 5985))),
                         ids=("omega0", "omega1", "omega2"))
def test_newton_scan_evaluates_no_retired_row(monkeypatch, omega, evaluated):
    # a row retired on the discard line is never passed to the kernel again:
    # every row after the start rows is the iterate of a row off the line.
    # Newton runs on one start row per symmetry orbit, and a row stuck outside
    # the strip at the rounding floor of F is finished; without that rule the
    # scan evaluated 3462, 6052 and 6049 rows in 60 calls, on the full grid
    # 13060, 11864 and 11860, and the former loop on live rows 19538, 19643
    # and 19639
    calls = []
    real_entire = eightvertex._bethe_entire

    def counting_entire(U, n, omega, ctx):
        calls.append(U.copy())
        return real_entire(U, n, omega, ctx)

    monkeypatch.setattr(eightvertex, "_bethe_entire", counting_entire)
    ctx = ThetaContext(nome=0.2)
    assert find_bethe_roots(4, 2, omega, ctx)
    assert not any(np.any(_on_discard_line(U, ctx.eta)) for U in calls[1:])
    assert (len(calls), sum(map(len, calls))) == evaluated


def _newton_without_floor_rule(U, n, omega, ctx):
    """The Newton scan of `_newton_polish` without its rule for stuck rows:
    a row with a root outside the strip at the rounding floor of F is
    stepped on until it converges, freezes, is retired or the 60 calls end."""
    m = U.shape[1]
    reach = elliptic.theta_reach(1, ctx.nome, derivative=True)

    def freeze(V):
        args = np.concatenate([V, V[:, :1] - V[:, 1:]], axis=1)
        far = np.any(np.abs(V.imag) > eightvertex._IMAG_WINDOW + 5.2, axis=1)
        V[far | np.any(np.abs(args.imag) >= reach, axis=1)] = np.nan

    U = U.copy()
    freeze(U)
    live = np.arange(len(U))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(60):
            V = U[live]
            F, J, _ = _bethe_entire(V, n, omega, ctx)
            keep = np.all(np.isfinite(F), axis=1) & (np.max(np.abs(F), axis=1) >= 1e-11)
            if not np.any(keep):
                break
            live, V, F, J = live[keep], V[keep], F[keep], J[keep]
            if m == 1:
                step = F / np.where(J[:, :, 0] == 0, np.nan, J[:, :, 0])
            else:
                det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                det = np.where(np.abs(det) < 1e-30, np.nan, det)
                step = np.empty_like(V)
                step[:, 0] = (J[:, 1, 1] * F[:, 0] - J[:, 0, 1] * F[:, 1]) / det
                step[:, 1] = (J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]) / det
            step = np.where(np.abs(step) > 5.0, np.nan, step)
            V = V - step
            freeze(V)
            U[live] = V
            live = live[~_on_discard_line(V, ctx.eta)]
    return U


@pytest.mark.parametrize("nome,s,t", [(0.05, 0.3, -0.7), (0.2, 0.44, -0.667), (0.45, 0.3, -0.7)])
def test_stuck_rows_leave_every_root_set_unchanged(monkeypatch, nome, s, t):
    # finishing the rows stuck outside the strip changes no root set, bit for
    # bit and in order, against the loop without that rule; a subset of a
    # sweep over nomes 0.05 to 0.45, two (s, t), seven (n, m) and every omega
    ctx = ThetaContext(nome=nome, s=s, t=t)
    finished = 0
    for n, m in ((5, 1), (4, 2), (7, 2)):
        for omega in OMEGAS:
            got = find_bethe_roots(n, m, omega, ctx)
            with monkeypatch.context() as patched:
                patched.setattr(eightvertex, "_newton_polish", _newton_without_floor_rule)
                assert find_bethe_roots(n, m, omega, ctx) == got
            start = _newton_starts(m)
            a = _newton_polish(start, n, complex(omega), ctx)
            b = _newton_without_floor_rule(start, n, complex(omega), ctx)
            finished += np.count_nonzero(~np.all((a == b) | (np.isnan(a) & np.isnan(b)), axis=1))
    assert finished > 0


@pytest.mark.parametrize("nome", [0.2, 0.45])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bethe_jacobian_matches_central_differences(nome, m):
    ctx = ThetaContext(nome=nome)
    rng = np.random.default_rng(m)
    U = rng.uniform(0.0, math.pi, (20, m)) + 1j * rng.uniform(-1.0, 1.0, (20, m))
    omega = complex(OMEGAS[1])
    J = _bethe_entire(U, 4, omega, ctx)[1]
    step = 1e-4
    fd = np.empty_like(J)
    for k in range(m):
        dU = np.zeros_like(U)
        dU[:, k] = step
        at = [_bethe_entire(U + j * dU, 4, omega, ctx)[0] for j in (-2, -1, 1, 2)]
        fd[:, :, k] = (at[0] - 8 * at[1] + 8 * at[2] - at[3]) / (12 * step)
    scale = np.max(np.abs(J), axis=(1, 2))[:, None, None]
    assert np.max(np.abs(J - fd) / scale) < 1e-10


@pytest.mark.parametrize("nome,omegas", [(0.2, OMEGAS), (0.9, OMEGAS[1:2])])
def test_newton_row_alone_matches_its_batch(nome, omegas):
    # each theta element gets its own term count, so a Newton row does not
    # depend on the other rows; at nome 0.9, n = 4, omega = e^{2 i pi/3} the
    # start row (2 pi/9, 7 pi/9 - 0.6i) once passed the theta reach inside
    # the batch although it converges alone
    ctx = ThetaContext(nome=nome)
    start = _newton_starts(2)
    (found,) = [i for i, row in enumerate(start)
                if np.allclose(row, [2 * math.pi / 9, 7 * math.pi / 9 - 0.6j])]
    picks = sorted({found, *range(0, len(start), 90)})
    for omega in omegas:
        batch = _newton_polish(start, 4, complex(omega), ctx)
        for i in picks:
            alone = _newton_polish(start[i:i + 1], 4, complex(omega), ctx)[0]
            assert np.array_equal(alone, batch[i], equal_nan=True)
        assert np.all(np.isfinite(batch[found]))


@pytest.mark.parametrize("n,m,counts", [
    (5, 1, {0.2: (7, 8, 8), 0.45: (15, 15, 15)}),
    (4, 2, {0.2: (12, 20, 20), 0.45: (51, 46, 46)}),
])
def test_bethe_scan_root_set_counts(n, m, counts):
    # the root sets the scan finds per omega, at the nome of the paper's
    # Bethe checks and at one that needs the most theta terms
    for nome, per_omega in counts.items():
        ctx = ThetaContext(nome=nome)
        assert tuple(len(find_bethe_roots(n, m, omega, ctx)) for omega in OMEGAS) == per_omega


def _canonical(us):
    """Roots with real parts in [0, pi), sorted by their rounded parts."""
    vals = []
    for uu in us:
        re = uu.real % math.pi
        if re > math.pi - 1e-6:
            re -= math.pi
        vals.append(complex(re, uu.imag))
    return sorted(vals, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


def _root_sets_loop(U, n, omega, ctx):
    """The former root-set filter of find_bethe_roots: one Newton row at a
    time, each new canonical form compared with every accepted one in Python."""
    m = U.shape[1]
    found, forms = [], []
    for row in U:
        if not np.all(np.isfinite(row)):
            continue
        us = [complex(v) for v in row]
        if any(abs(uu.imag) > eightvertex._IMAG_WINDOW + 0.2 for uu in us):
            continue
        if m == 2 and abs(us[0].imag - us[1].imag) < 1e-6:
            d = (us[0] - us[1]).real
            gaps = [(d - shift) % math.pi for shift in (0.0, 2 * ctx.eta, -2 * ctx.eta)]
            if any(min(gap, math.pi - gap) < 1e-6 for gap in gaps):
                continue
        form = _canonical(us)
        if any(all(abs(a - b) < 1e-6 for a, b in zip(form, f)) for f in forms):
            continue
        try:
            resid = bethe_residual(BetheRoots(tuple(us), omega, n), ctx)
        except (DomainError, PoleError):
            continue
        if max(abs(r) for r in resid) > 1e-9:
            continue
        found.append(us)
        forms.append(form)
    return [BetheRoots(tuple(us), omega, n) for us in found]


def _orbit_image(row, flip_re, flip_im, shift, swap):
    """Reference: one row of roots mapped root by root from its real and
    imaginary parts, as `_start_orbits` describes the map."""
    roots = [complex(-u.real if flip_re else u.real, -u.imag if flip_im else u.imag)
             for u in map(complex, row)]
    roots = [complex(u.real + math.pi, u.imag) if s else u for u, s in zip(roots, shift)]
    return np.array(roots[::-1] if swap else roots)


@pytest.mark.parametrize("m", [1, 2])
def test_newton_starts_are_the_grid_points_and_pairs(m):
    # the start rows, built from index arrays, are those of a loop over the
    # grid points and their pairs, bit for bit, and read-only
    n_re, n_im = (13, 7) if m == 1 else (9, 5)
    points = [complex(x, y) for x in np.linspace(0.0, math.pi, n_re, endpoint=False)
              for y in np.linspace(-1.2, 1.2, n_im)]
    rows = [[p] for p in points] if m == 1 else list(itertools.combinations(points, 2))
    starts = _newton_starts(m)
    assert starts.shape == (len(rows), m)
    assert starts.tobytes() == np.array(rows).tobytes()
    assert not starts.flags.writeable


@pytest.mark.parametrize("nome", [0.2, 0.45])
@pytest.mark.parametrize("n,m", [(5, 1), (4, 2), (7, 2)])
def test_orbit_scan_matches_the_full_grid(nome, n, m):
    # Newton on one start row per symmetry orbit gives the root sets of the
    # Newton scan on every start row: the same canonical forms in the same
    # order. A representative's row is its full-grid row, and every other row
    # is the exact image of its representative's row
    ctx = ThetaContext(nome=nome)
    starts = _newton_starts(m)
    for omega in map(complex, OMEGAS):
        table = _start_orbits(m, omega == 1.0)
        rep = table[0]
        assert np.array_equal(rep[rep], rep)
        full = _newton_polish(starts, n, omega, ctx)
        got = _scan_on_orbits(n, m, omega, ctx)
        ref_sets, got_sets = _root_sets(full, n, omega, ctx), _root_sets(got, n, omega, ctx)
        assert len(got_sets) == len(ref_sets)
        for a, b in zip(map(_canonical, (br.roots for br in got_sets)),
                        map(_canonical, (br.roots for br in ref_sets))):
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6
        own = rep == np.arange(len(rep))
        assert np.array_equal(got[own], full[own], equal_nan=True)
        for r in np.flatnonzero(~own):
            q, maps = rep[r], [t[r] for t in table[1:]]
            # the map takes the representative's starts to the row's own
            assert np.allclose(_orbit_image(starts[q], *maps), starts[r], rtol=0, atol=1e-12)
            want = _orbit_image(got[q], *maps)
            if np.all(np.isfinite(want)):
                assert got[r].tobytes() == want.tobytes()
            else:
                assert np.array_equal(got[r], want, equal_nan=True)


def test_orbit_scan_finds_the_n10_eigenvector():
    # the set S = (1.0475+0.6282i, 2.0941-0.9813i) at omega = e^{2 pi i/3}
    # and -S at e^{-2 pi i/3} are T eigenvectors whose bethe_residual sits
    # near the 1e-9 bound: on the full grid every Newton row that reached
    # them ended just above it
    ctx = ThetaContext(nome=0.2)
    T = transfer_matrix(10, 0.47, ctx)
    target = np.array([1.0475 + 0.6282j, 2.0941 - 0.9813j])
    for omega, sign in zip(OMEGAS[1:], (1, -1)):
        hits = [br for br in find_bethe_roots(10, 2, omega, ctx)
                if np.allclose(_canonical(br.roots), _canonical(sign * target), atol=1e-4)]
        assert len(hits) == 1
        v = bethe_vector(hits[0], ctx)
        v = v / np.linalg.norm(v)
        lam = tq_eigenvalue(0.47, hits[0], ctx)
        assert np.linalg.norm(T @ v - lam * v) / max(1.0, abs(lam)) < 1e-10


@pytest.mark.parametrize("nome,n,m", [(0.2, 5, 1), (0.2, 4, 2), (0.45, 4, 2), (0.9, 4, 2)])
def test_root_set_filter_matches_per_row_loop(nome, n, m):
    # the same sets, in the same order, with the same representatives, on the
    # Newton output and on rows made to hit every branch: copies shifted by
    # pi or with the roots swapped, real parts just below pi, roots 2 eta
    # apart, rows outside the strip and non-finite rows
    ctx = ThetaContext(nome=nome)
    omega = complex(OMEGAS[1])
    U = _newton_polish(_newton_starts(m), n, omega, ctx)
    done = U[np.all(np.isfinite(U), axis=1)]
    edge = done[::6].copy()
    edge[:, 0] += 1j * (eightvertex._IMAG_WINDOW + 0.2 - edge[:, 0].imag + [0.0, 1e-9][m - 1])
    # most sets hold a root with real part 0 mod pi, which done - 1e-12
    # moves just below pi
    extra = [done[::7] + math.pi, done[::5] - 2 * math.pi, done[::3, ::-1], done - 1e-12, edge]
    if m == 2:
        x = np.linspace(0.1, 3.0, 7)
        for gap in (0.0, 2 * ctx.eta, -2 * ctx.eta, math.pi + 2 * ctx.eta, 2 * ctx.eta + 5e-7):
            extra.append(np.stack([x + 0.3j, x - gap + 0.3j], axis=1))
    extra.append(np.full((2, m), np.nan + 0j))
    extra.append(np.full((2, m), 0.4 + 1.5j))
    U = np.concatenate([U] + extra)
    got = _root_sets(U, n, omega, ctx)
    assert got
    assert got == _root_sets_loop(U, n, omega, ctx)


def _scan_with_residual_calls(monkeypatch, n, m, omega):
    """(root sets, bethe_residual calls) of one scan at nome 0.2."""
    calls = []
    real_residual = eightvertex.bethe_residual

    def counting_residual(br, ctx):
        calls.append(br.roots)
        return real_residual(br, ctx)

    monkeypatch.setattr(eightvertex, "bethe_residual", counting_residual)
    return find_bethe_roots(n, m, omega, ThetaContext(nome=0.2)), calls


@pytest.mark.parametrize("omega", OMEGAS, ids=("omega0", "omega1", "omega2"))
def test_bethe_scan_validates_only_new_root_sets(monkeypatch, omega):
    # a Newton row that lands on an already found set is skipped before its
    # residual is computed, so every residual call yields a new root set
    roots, calls = _scan_with_residual_calls(monkeypatch, 5, 1, omega)
    assert roots
    assert len(calls) == len(roots)


@pytest.mark.parametrize("omega", OMEGAS, ids=("omega0", "omega1", "omega2"))
def test_bethe_scan_skips_pairs_2eta_apart(monkeypatch, omega):
    # most m = 2 Newton rows end on a pair with u1 - u2 = +-2 eta (mod pi),
    # where h(0) sits in a denominator of the Bethe equations; they are
    # skipped before bethe_residual, so every residual call yields a root set
    roots, calls = _scan_with_residual_calls(monkeypatch, 4, 2, omega)
    assert roots
    assert len(calls) == len(roots)


@pytest.mark.parametrize("nome", [0.7, 0.9])
@pytest.mark.parametrize("n,m", BENCH_BETHE_CASES)
def test_bethe_scan_stays_within_theta_reach(n, m, nome):
    # Newton rows are frozen before an argument of h reaches the reach of the
    # theta series (7.7 at nome 0.7, 3.1 at 0.9), so no RangeError escapes the
    # scan; at nome 0.9 a row of the (4, 2) scan at this omega wanders there
    ctx = ThetaContext(nome=nome)
    roots = find_bethe_roots(n, m, OMEGAS[1], ctx)
    assert roots
    for br in roots:
        assert max(abs(r) for r in bethe_residual(br, ctx)) < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_bethe_search_needs_height_paths_with_m_down_steps(n):
    # a closed height path has n - 2m = 0 mod 3; for other (n, m) every Bethe
    # vector vanishes (at n = 3, m = 2 the scan used to return such sets), so
    # the search refuses them before any Newton step
    for m in (1, 2):
        admissible = any(p.m == m for p in path_states(n))
        assert admissible == ((n - 2 * m) % 3 == 0)
        if not admissible:
            with pytest.raises(DomainError, match="height path"):
                find_bethe_roots(n, m, OMEGAS[0], CTX)
