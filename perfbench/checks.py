"""Output checks for benchmark ops, derived from the paper's claims.

Each check takes the op and the result its child process returned and gives
``None`` when the output is correct, or a one-line reason. A check never
trusts the program's own verdict alone: it also recounts sizes
combinatorially, re-derives the expected zero modes and level coincidences,
and evaluates the Bethe equations with mpmath's independent theta function.
"""

from __future__ import annotations

import cmath
import json
import math

import mpmath

SPECTRAL_TOL = 1e-8
ZERO_TOL = 1e-9
BETHE_TOL = 1e-9
EXTENDED_BETHE_TOL = 1e-8
EIGVEC_TOL = 1e-8
ETA = math.pi / 3
OMEGAS = (1.0, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3))


def momentum_dim(n, t):
    """Dimension of the translation sector T = t (t = +-1) of n spins 1/2.

    Character formula: (1/n) sum_j t^j 2^gcd(j, n), since T^j fixes the
    2^gcd(j, n) configurations that are periodic under a shift by j.
    """
    total = sum(t ** j * 2 ** math.gcd(j, n) for j in range(n))
    if total % n:
        raise ValueError(f"non-integral sector dimension for n={n}, t={t}")
    return total // n


def susy_dim(n):
    """Dimension of the sector t_N = (-1)^(N+1) on which the supercharges act."""
    return momentum_dim(n, (-1) ** (n + 1))


def shared_levels(a, b, tol=SPECTRAL_TOL):
    """Number of levels two sorted spectra share, as a multiset."""
    i = j = shared = 0
    while i < len(a) and j < len(b):
        if abs(a[i] - b[j]) < max(tol, tol * abs(a[i])):
            shared += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return shared


def _csv(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _grouped_levels(rows, key_cols, index_col, value_col):
    """{key: [values]} with each group's index column running 0, 1, 2, ..."""
    groups = {}
    for row in rows:
        key = tuple(row[c] for c in key_cols)
        levels = groups.setdefault(key, [])
        if int(row[index_col]) != len(levels):
            raise ValueError(f"level index {row[index_col]} out of order in group {key}")
        levels.append(float(row[value_col]))
    return groups


def check_spectrum(op, result):
    """Row count = sector dimension; H = {Q, Q^dag} >= 0; two zero levels iff n odd."""
    groups = _grouped_levels(_csv(result["stdout"], "zeta,n,sector,index,energy"),
                             (0, 1, 2), 3, 4)
    expected = {(z, n) for z in op["zetas"] for n in op["ns"]}
    seen = {(float(z), int(n)) for z, n, _ in groups}
    if seen != expected or len(groups) != len(expected):
        return f"spectrum covers {sorted(seen)}, expected {sorted(expected)}"
    for (z, n, _), levels in groups.items():
        n = int(n)
        if len(levels) != susy_dim(n):
            return f"n={n}, zeta={z}: {len(levels)} levels, sector dimension {susy_dim(n)}"
        if levels != sorted(levels):
            return f"n={n}, zeta={z}: levels are not ascending"
        scale = max(1.0, max(abs(e) for e in levels))
        if levels[0] < -SPECTRAL_TOL * scale:
            return f"n={n}, zeta={z}: negative energy {levels[0]} below -tol"
        zeros = sum(abs(e) < SPECTRAL_TOL * scale for e in levels)
        if zeros != (2 if n % 2 else 0):
            return f"n={n}, zeta={z}: {zeros} zero levels, expected {2 if n % 2 else 0}"
    return None


def check_fig1(op, result):
    """Per grid point: sector sizes, >= 7 shared n=6/n=7 levels, two n=7 zero modes."""
    groups = _grouped_levels(_csv(result["stdout"], "zeta,n,index,epsilon"), (0, 1), 2, 3)
    a, b, step = op["grid"]
    grid = [a + k * step for k in range(int(round((b - a) / step)) + 1)]
    zetas = sorted({float(z) for z, _ in groups})
    if len(zetas) != len(grid) or any(abs(x - y) > 1e-9 for x, y in zip(zetas, grid)):
        return f"fig1 grid {zetas} differs from the requested {grid}"
    for z, _ in groups:
        if (z, "6") not in groups or (z, "7") not in groups:
            return f"zeta={z}: missing n=6 or n=7 levels"
    for (z, n), levels in groups.items():
        if len(levels) != {"6": momentum_dim(6, -1), "7": momentum_dim(7, 1)}.get(n, -1):
            return f"zeta={z}, n={n}: {len(levels)} levels, wrong sector dimension"
        if n == "6":
            shared = shared_levels(sorted(levels), sorted(groups[(z, "7")]))
            if shared < 7:
                return f"zeta={z}: only {shared} levels shared by n=6 and n=7"
        elif sum(abs(e) < ZERO_TOL for e in levels) != 2:
            return f"zeta={z}: n=7 does not have exactly two zero modes"
    return None


def check_pathbasis(op, result):
    """2^n + 2(-1)^n admissible paths, spanning rank 2^n (n even) or 2^n - 2 (n odd)."""
    lines = result["stdout"].strip().splitlines()
    pos = 0
    for n in op["ns"]:
        header = json.loads(lines[pos])
        count = 2 ** n + 2 * (-1) ** n
        rank = 2 ** n if n % 2 == 0 else 2 ** n - 2
        if header != {"n": n, "count": count, "rank": rank}:
            return f"path header {header}, expected count {count}, rank {rank}"
        paths = {(p["ell"], tuple(p["positions"]))
                 for p in map(json.loads, lines[pos + 1:pos + 1 + count])}
        if len(paths) != count:
            return f"n={n}: {len(paths)} distinct paths, expected {count}"
        for ell, xs in paths:
            if ell not in (0, 1, 2) or (n - 2 * len(xs)) % 3 or list(xs) != sorted(set(xs)) \
                    or any(not 1 <= x <= n for x in xs):
                return f"n={n}: inadmissible path ell={ell}, positions={xs}"
        pos += 1 + count
    if pos != len(lines):
        return f"{len(lines) - pos} unexpected trailing lines"
    return None


def _json_suite(result, n_checks=None, key="checks"):
    report = json.loads(result["stdout"])
    if report.get("pass") is not True:
        failing = [c.get("relation", c) for c in report.get(key, []) if not c.get("pass")]
        return report, f"verdict is fail ({failing[:3]})"
    if n_checks is not None and len(report[key]) != n_checks:
        return report, f"{len(report[key])} checks reported, expected {n_checks}"
    if key in report and not all(c["pass"] is True for c in report[key]):
        return report, "a sub-check failed under an overall pass"
    return report, None


def check_cohomology(op, result):
    """dim H(Q) = 2 for odd n and 0 for even n, on every coupling."""
    report, why = _json_suite(result)
    if why:
        return why
    want = {str(n): 2 if n % 2 else 0 for n in op["ns"]}
    if report["dims"] != want:
        return f"cohomology dimensions {report['dims']}, expected {want}"
    return None


def check_algebra(op, result):
    """Seven N=(2,2) relations per (n, zeta), each below the tolerance."""
    _, why = _json_suite(result, 7 * len(op["ns"]) * len(op["zetas"]))
    return why


def check_fermion_compare(op, result):
    """Both boundary variants match level for level, with full-size XYZ sectors."""
    report, why = _json_suite(result, 2 * len(op["ms"]) * len(op["zetas"]), key="reports")
    if why:
        return why
    for r in report["reports"]:
        if r["xyz_only"] or r["fermion_only"]:
            return f"m={r['m']} {r['variant']}: unmatched levels"
        t = -1 if r["variant"] == "ramond_vs_kpi" else 1
        if len(r["xyz_levels"]) != momentum_dim(2 * r["m"], t):
            return f"m={r['m']} {r['variant']}: XYZ sector has the wrong dimension"
    return None


def check_conjectures(op, result):
    """Parity inclusion per odd n; path count, rank and odd-n complement per nome."""
    ns = op["ns"]
    odd = sum(n % 2 for n in ns)
    _, why = _json_suite(result, odd + len(op["nomes"]) * (2 * len(ns) + 2 * odd))
    return why


def check_transfer(op, result):
    """T(eta) = translation, [T(u), T(v)] = 0 and H from log T', for every n."""
    _, why = _json_suite(result, 3 * len(op["ns"]))
    return why


def check_appendixB(op, result):
    """The 3 -> 2 site coefficients have the ratio f1(t)/f4(t)."""
    report, why = _json_suite(result)
    if why:
        return why
    if not report["ratio_error"] < 1e-9:
        return f"ratio error {report['ratio_error']} >= 1e-9"
    return None


def _theta1(z, nome):
    return complex(mpmath.jtheta(1, z, nome))


def bethe_residual(roots, n, omega, nome):
    """max_j |LHS - RHS| of the Bethe equations, with mpmath's theta_1.

    [h(u_j + eta) / h(u_j - eta)]^n = omega^2 prod_{k != j} h(u_j - u_k + 2 eta)
    / h(u_j - u_k - 2 eta), with h(u) = theta_1(u, q).
    """
    worst = 0.0
    for j, uj in enumerate(roots):
        lhs = (_theta1(uj + ETA, nome) / _theta1(uj - ETA, nome)) ** n
        rhs = omega ** 2
        for k, uk in enumerate(roots):
            if k != j:
                rhs *= _theta1(uj - uk + 2 * ETA, nome) / _theta1(uj - uk - 2 * ETA, nome)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_bethe(op, result):
    """Every root set solves the Bethe equations and gives a transfer eigenvector;
    each (n, m) case has an eigenvector and a root set extendable by u = pi."""
    nome, omega = op["nome"], OMEGAS[op["omega"]]
    sets = result["bethe"]
    for n, m in op["cases"]:
        case = [r for r in sets if r["n"] == n and r["m"] == m]
        if not any(r["vec_resid"] is not None for r in case):
            return f"n={n}, m={m}: no root set gives a nonzero eigenvector"
        if not any(r["ext_resid"] is not None for r in case):
            return f"n={n}, m={m}: no root set extends by u = pi"
    for r in sets:
        roots = [complex(*u) for u in r["roots"]]
        where = f"n={r['n']}, roots={[complex(round(u.real, 6), round(u.imag, 6)) for u in roots]}"
        resid = bethe_residual(roots, r["n"], omega, nome)
        if not resid < BETHE_TOL:
            return f"{where}: Bethe residual {resid:.2e} (mpmath) >= {BETHE_TOL}"
        if r["vec_resid"] is not None and not r["vec_resid"] < EIGVEC_TOL:
            return f"{where}: eigenvector residual {r['vec_resid']:.2e} >= {EIGVEC_TOL}"
        if r["ext_resid"] is not None:
            ext = bethe_residual(roots + [math.pi], r["n"] - 1, omega, nome)
            if not ext < EXTENDED_BETHE_TOL:
                return f"{where}: extended Bethe residual {ext:.2e} >= {EXTENDED_BETHE_TOL}"
            if not r["ext_resid"] < EIGVEC_TOL:
                return f"{where}: T-Q relation after u = pi extension off by {r['ext_resid']:.2e}"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "fig1": check_fig1,
    "pathbasis": check_pathbasis,
    "cohomology": check_cohomology,
    "algebra": check_algebra,
    "fermion-compare": check_fermion_compare,
    "conjectures": check_conjectures,
    "transfer": check_transfer,
    "appendixB": check_appendixB,
    "bethe": check_bethe,
}


def failure(op, result):
    """None when the op succeeded with correct output, else the reason it failed."""
    if result.get("error"):
        return result["error"].strip().splitlines()[-1]
    if result.get("exit") != 0:
        return f"exit code {result.get('exit')}: {result.get('stderr', '').strip()[-300:]}"
    try:
        return CHECKS[op["check"]](op, result)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
