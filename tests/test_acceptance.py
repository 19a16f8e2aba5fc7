"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -v -s` or in
the captured output of a failing run) and then asserts.
"""

import math
import time

import numpy as np

from susyxyz.eightvertex import (
    appendixB_decomposition,
    bethe_residual,
    extend_by_pi,
    find_bethe_roots,
    hatQ_dagger,
    path_rank,
    path_rank_complement,
    tq_eigenvalue,
    transfer_matrix,
    translation_eigenvalue,
)
from susyxyz.elliptic import ThetaContext, h, zeta_of_nome
from susyxyz.fermion import (
    fermion_spectrum,
    hardcore_count,
    spectral_comparison,
)
from susyxyz.spinchain import _rank
from susyxyz.spinchain import (
    CouplingLine,
    build_sector_basis,
    common_levels,
    rescaled_spectrum,
    spectrum,
    xyz_apply,
    xyz_hamiltonian,
)
from susyxyz.supercharge import (
    algebra_suite,
    cohomology_dimension,
    parity_spectral_inclusion,
    susy_sector,
)

from operator_reference import (
    hamiltonian_from_transfer,
    intertwining_residual,
    quadruplet_counts,
    symmetry_operator,
    transfer_matrix_reference,
)
from path_reference import path_matrix_reference, path_states, path_to_hardcore

ZETAS = (0.0, 0.3, 1.0, 2.5)


def _verdict(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {label}" + (f" — {failures[:3]}" if failures else ""))
    assert not failures, failures


def test_criterion_01_supersymmetry_algebra():
    t0 = time.time()
    failures = []
    for check in algebra_suite(range(2, 9), ZETAS)["checks"]:
        if not check["pass"]:
            failures.append(check)
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _verdict("criterion 1: supercharge algebra, n=2..8, four couplings", failures)


def test_criterion_02_cohomology_dimensions():
    t0 = time.time()
    failures = []
    for n in range(3, 12):
        # one zero-energy state in each spin-parity block at odd n
        expected = (1, 1) if n % 2 else (0, 0)
        for zeta in (0.3, 1.0, 1.9):
            dims = cohomology_dimension(n, zeta)
            if dims != expected:
                failures.append((n, zeta, dims, expected))
    elapsed = time.time() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _verdict("criterion 2: cohomology dims 1 + 1 (odd) / 0 (even), n=3..11", failures)


def test_criterion_03_quadruplets_and_singlets():
    failures = []
    zeta = 0.7
    target = 3 + zeta ** 2
    counts = []
    for n in (2, 3, 4):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)))
        counts.append(int(np.sum(np.abs(evals - target) < 1e-9)))
    if counts != [1, 2, 1]:
        failures.append(f"pattern at 3+zeta^2 is {counts}, expected [1, 2, 1]")
    # quadruplet coverage of every positive-energy state at n=3..7, the
    # windows of centres 4 and 6
    for n in range(3, 8):
        positive, members = quadruplet_counts(n, zeta)
        if members != positive:
            failures.append((n, members, positive))
    # two zero-energy singlets at each odd size
    for n in (3, 5, 7, 9):
        evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), susy_sector(n)))
        zeros = int(np.sum(np.abs(evals) < 1e-9))
        if zeros != 2:
            failures.append(f"odd n={n}: {zeros} zero modes, expected 2")
    _verdict("criterion 3: (1,2,1) pattern, quadruplet coverage, odd-size singlets",
             failures)


def test_criterion_04_parity_spectrum_inclusion():
    failures = []
    for n in (3, 5, 7, 9, 11):
        residual, ok = parity_spectral_inclusion(n, 0.85)
        if not ok:
            failures.append((n, residual))
    _verdict("criterion 4: odd-parity spectrum inside even-parity, odd n=3..11",
             failures)


def test_criterion_05_eight_vertex_consistency():
    failures = []
    for nome in (0.1, 0.3):
        ctx = ThetaContext(nome=nome)
        zeta = zeta_of_nome(nome)
        for n in range(2, 7):
            T_eta = transfer_matrix(n, ctx.eta, ctx)
            shift = symmetry_operator("translation", n).toarray()
            r = np.linalg.norm(T_eta - h(2 * ctx.eta, ctx) ** n * shift)
            if r > 1e-10 * max(1.0, np.linalg.norm(T_eta)):
                failures.append(("translation", n, nome, r))
            Tu = transfer_matrix(n, 0.41, ctx)
            Tv = transfer_matrix(n, 0.97, ctx)
            r = np.linalg.norm(Tu @ Tv - Tv @ Tu)
            if r > 1e-9 * max(1.0, np.linalg.norm(Tu) * np.linalg.norm(Tv)):
                failures.append(("commutation", n, nome, r))
            Hd = xyz_apply(n, CouplingLine(zeta), np.eye(2 ** n))
            r = np.linalg.norm(Hd - hamiltonian_from_transfer(n, ctx))
            if r > 1e-5 * max(1.0, np.linalg.norm(Hd)):
                failures.append(("hamiltonian", n, nome, r))
    _verdict("criterion 5: transfer matrix vs translation / commutation / H", failures)


def test_criterion_06_path_basis():
    failures = []
    ctx = ThetaContext(nome=0.25)
    for n in range(2, 13):
        count = len(path_states(n))
        if count != 2 ** n + 2 * (-1) ** n:
            failures.append(("count", n, count))
    for n in range(2, 11):
        rank = path_rank(n, ctx)
        expected = 2 ** n if n % 2 == 0 else 2 ** n - 2
        if rank != expected:
            failures.append(("rank", n, rank, expected))
    for n in (3, 5, 7, 9):
        comp = path_rank_complement(n, ctx)[1]
        if comp.shape != (2 ** n, 2):
            failures.append(("complement dim", n, comp.shape))
            continue
        Hd = xyz_apply(n, CouplingLine(zeta_of_nome(ctx.nome)), np.eye(2 ** n))
        if np.linalg.norm(Hd @ comp) > 1e-8 * max(1.0, np.linalg.norm(Hd)):
            failures.append(("complement energy", n))
        for u in (0.3, 0.75, 1.2):
            T = transfer_matrix(n, u, ctx)
            lam = h(u, ctx) ** n
            if np.linalg.norm(T @ comp - lam * comp) > 1e-8 * max(1.0, abs(lam)):
                failures.append(("complement transfer", n, u))
    # the inhomogeneous chain: the complement of the path span, past the
    # rank of the path matrix
    rng = np.random.default_rng(11)
    for n in (3, 5, 7):
        shifts = tuple(rng.uniform(-0.15, 0.15, size=n))
        u_svd, singular, _ = np.linalg.svd(path_matrix_reference(n, ctx, shifts))
        comp = u_svd[:, _rank(singular):]
        if comp.shape != (2 ** n, 2):
            failures.append(("inhomogeneous complement dim", n, comp.shape))
        for u in (0.5, 1.0):
            T = transfer_matrix_reference(n, u, ctx, shifts)
            lam = np.prod([h(u - s, ctx) for s in shifts])
            if np.linalg.norm(T @ comp - lam * comp) > 1e-8 * max(1.0, abs(lam)):
                failures.append(("inhomogeneous complement", n, u))
    _verdict("criterion 6: path counts, ranks, and zero-energy complements", failures)


def test_criterion_07_bethe_supersymmetry():
    failures = []
    ctx = ThetaContext(nome=0.2)
    for n in range(4, 7):
        A = hatQ_dagger(n, ctx)
        B = hatQ_dagger(n - 1, ctx)
        if np.linalg.norm(B @ A) > 1e-12 * max(1.0, np.linalg.norm(A) ** 2):
            failures.append(("nilpotency", n))
    for n in range(3, 7):
        for charge in ("hatQ", "Q"):
            for u in (0.45, 1.05):
                r = intertwining_residual(n, u, ctx, charge=charge)
                if r > 1e-9:
                    failures.append(("intertwining", n, charge, u, r))
    # u = pi extension on solutions of the Bethe equations with m <= 2
    cases = [(5, 1), (4, 2)]
    for n, m in cases:
        extended = 0
        for omega in (1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)):
            for br in find_bethe_roots(n, m, omega, ctx):
                t = translation_eigenvalue(br, ctx)
                if abs(t - (-1.0) ** (n + 1)) > 1e-8:
                    continue
                ext = extend_by_pi(br, ctx)
                if max(abs(r) for r in bethe_residual(ext, ctx)) > 1e-8:
                    failures.append(("extended BAE", n, m, br.roots))
                for u in (0.52, 1.17):
                    lam_n = tq_eigenvalue(u, br, ctx)
                    lam_e = tq_eigenvalue(u, ext, ctx)
                    if abs(lam_e + lam_n / h(u, ctx)) > 1e-8 * max(1.0, abs(lam_e)):
                        failures.append(("extension eigenvalue", n, m, u))
                extended += 1
        if extended == 0:
            failures.append(("no extendable solutions", n, m))
    _verdict("criterion 7: path supercharge nilpotency, intertwining, pi-extension",
             failures)


def test_criterion_08_identity_decomposition():
    failures = []
    rng = np.random.default_rng(2024)
    done = 0
    while done < 10:
        ctx = ThetaContext(
            nome=rng.uniform(0.05, 0.55),
            s=rng.uniform(-1.2, 1.2),
            t=rng.uniform(-1.2, 1.2),
        )
        try:
            report = appendixB_decomposition(ctx)
        except Exception:  # noqa: BLE001 - degenerate draw, try another
            continue
        done += 1
        if not report["pass"] or report["ratio_error"] > 1e-9:
            failures.append((ctx.nome, ctx.s, ctx.t, report["ratio_error"]))
    _verdict("criterion 8: identity decomposition coefficients (f1(t), f4(t))",
             failures)


def test_criterion_09_fermion_correspondence():
    t0 = time.time()
    failures = []
    # characteristic-polynomial identities at m = 2
    for zeta in (1.4, 2.1):
        y = math.sqrt((zeta ** 2 - 1) / 8)
        ev_r = np.sort(4 * fermion_spectrum(6, y, 2, "ramond", -1))
        quad = np.roots([1.0, -(3 + 4 * y * y), 2 * (1 + 2 * y * y + 2 * y ** 4)])
        expect = 4 * np.sort(np.real(np.concatenate(
            [[0, 0, 1 + 4 * y * y, 1 + 2 * y * y], quad])))
        if not np.allclose(ev_r, expect, atol=1e-8):
            failures.append(("ramond char poly", zeta))
        ev_xyz = np.sort(spectrum(
            xyz_hamiltonian(4, CouplingLine(zeta), build_sector_basis(4, -1.0))))
        nonzero = expect[np.abs(expect) > 1e-8]
        if not np.allclose(ev_xyz, np.sort(np.unique(np.round(nonzero, 10))), atol=1e-8):
            failures.append(("xyz k=pi char poly", zeta))
        ev_ns = np.sort(4 * fermion_spectrum(6, y, 2, "neveu-schwarz", 1))
        cubic = np.roots([1.0, -3 * (2 * y * y + 1), 2 * (2 * y * y + 1) ** 2, 8 * y ** 4])
        quad = np.roots([1.0, -(4 * y * y + 1), 4 * y ** 4])
        expect_ns = 4 * np.sort(np.real(np.concatenate([[1.0], cubic, quad])))
        if not np.allclose(ev_ns, expect_ns, atol=1e-8):
            failures.append(("ns char poly", zeta))
    # set coincidence for m = 2..5 at three couplings
    for m in range(2, 6):
        for zeta in (1.2, 1.8, 3.0):
            for variant in ("ramond_vs_kpi", "ns_vs_k0"):
                report = spectral_comparison(m, zeta, variant)
                if not report["pass"]:
                    failures.append((variant, m, zeta,
                                     report["xyz_only"], report["fermion_only"]))
    # image counts of the path -> hard-particle map
    for n in range(3, 11):
        for m in range(0, n + 1):
            if (n - 2 * m) % 3 != 0:
                continue
            paths = [p for p in path_states(n) if p.m == m]
            if not paths:
                continue
            images = {path_to_hardcore(p)[0] for p in paths}
            if len(images) != hardcore_count(n + m, m):
                failures.append(("image count", n, m, len(images)))
    elapsed = time.time() - t0
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10 minutes")
    _verdict("criterion 9: fermion-chain correspondence", failures)


def test_criterion_10_figure_one():
    failures = []
    sector6 = build_sector_basis(6, -1.0)
    sector7 = build_sector_basis(7, 1.0)
    grid = [round(0.05 * k, 2) for k in range(61)]
    min_matched = None
    for zeta in grid:
        eps6 = rescaled_spectrum(6, zeta, sector6)
        eps7 = rescaled_spectrum(7, zeta, sector7)
        matched, _, _ = common_levels(eps6, eps7, tol=1e-8)
        if min_matched is None or len(matched) < min_matched:
            min_matched = len(matched)
        # the common multiset (the solid lines) never disappears: generically
        # seven levels are shared, with extra coincidences at special points
        if len(matched) < 7:
            failures.append((zeta, len(matched)))
        zeros = int(np.sum(np.abs(eps7) < 1e-9))
        if zeros != 2:
            failures.append((zeta, "zero doublet", zeros))
    _verdict(
        f"criterion 10: shared n=6/n=7 rescaled levels over the zeta grid "
        f"(min matched {min_matched})",
        failures,
    )
