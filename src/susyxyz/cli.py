"""Command-line front end: spectra, Figure-1 style data, and check suites.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error. Each command declares only the options it reads, and
options must be spelled out in full, so an option a command does not read is
a usage error. Sub-checks run one after another in one thread; BLAS threads
the linear algebra inside each of them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .eightvertex import (
    _path_codes,
    appendixB_decomposition,
    hamiltonian_from_transfer,
    path_rank,
    path_rank_complement,
    transfer_apply,
    transfer_matrix,
)
from .elliptic import ThetaContext, h, zeta_of_nome
from .errors import ConfigurationError, ContractError, DomainError, RangeError
from .fermion import spectral_comparison
from .spinchain import (
    SPECTRAL_TOL,
    CouplingLine,
    _check_record,
    build_sector_basis,
    rescaled_spectrum,
    spectrum,
    spectrum_csv_rows,
    translation_operator,
    xyz_hamiltonian,
    xyz_hamiltonian_full,
)
from .supercharge import (
    ALGEBRA_TOL,
    cohomology_dimension,
    parity_spectral_inclusion,
    susy_sector,
    verify_algebra,
)

DEFAULT_ZETAS = (0.0, 0.3, 1.0, 2.5)

_USAGE_ERRORS = (DomainError, RangeError, ConfigurationError, ContractError)


def thread_cap():
    """The number of threads the CLI runs its sub-checks in: always 1.

    Kept only for the ``pool_threads`` field of the environment record that
    ``perfbench/run.py`` writes.
    """
    return 1


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_n_range(text):
    """Accept '5', '3..11' or '2,4,6'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise DomainError(f"empty n range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def parse_zeta_list(text):
    return tuple(float(part) for part in text.split(","))


def parse_grid(text):
    """'a:b:step' grid: the points a + k*step that do not pass b by more than
    1e-9 of a step, so that rounding in (b - a)/step cannot drop b itself."""
    try:
        a, b, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise DomainError(f"grid must be a:b:step, got {text!r}")
    # a NaN fails every comparison; an infinite bound makes (b - a)/step non-finite
    if not (step > 0 and b >= a and math.isfinite((b - a) / step)):
        raise DomainError(f"grid must have finite a <= b and step > 0, got {text!r}")
    count = math.floor((b - a) / step + 1e-9)
    return tuple(a + k * step for k in range(count + 1))


def _sector_from_tag(n, tag):
    tag = tag.replace(" ", "")
    if tag in ("susy",):
        return susy_sector(n), "t=+1" if (-1) ** (n + 1) > 0 else "t=-1"
    if tag in ("t=+1", "t=1", "k=0"):
        return build_sector_basis(n, 1.0), "t=+1"
    if tag in ("t=-1", "k=pi"):
        if n % 2 != 0:
            raise DomainError(f"momentum pi needs even n, got {n}")
        return build_sector_basis(n, -1.0), "t=-1"
    raise DomainError(f"unknown sector {tag!r} (use susy, t=+1, t=-1, k=0, k=pi)")


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _resolve_zetas(args):
    if args.nome is not None:
        if args.zeta is not None:
            raise ConfigurationError("give either --zeta or --nome, not both")
        return (zeta_of_nome(args.nome),)
    if args.zeta is not None:
        return args.zeta
    return DEFAULT_ZETAS


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(args):
    zetas = _resolve_zetas(args)
    rows = [("zeta", "n", "sector", "index", "energy")]
    for n in args.n:
        if n < 2:
            raise DomainError(f"spectrum needs n >= 2, got {n}")
        sector, tag = _sector_from_tag(n, args.sector)
        for zeta in zetas:
            evals = spectrum(xyz_hamiltonian(n, CouplingLine(zeta), sector))
            rows.extend(spectrum_csv_rows(zeta, n, tag, evals))
    if args.format == "json":
        payload = [dict(zip(rows[0], r)) for r in rows[1:]]
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        _emit([",".join(r) for r in rows], args.out)
    return 0


def cmd_fig1(args):
    """Rescaled spectra eps = 4E/(3+zeta^2) for n=6 (k=pi) and n=7 (k=0)."""
    sectors = ((6, build_sector_basis(6, -1.0)), (7, build_sector_basis(7, 1.0)))
    lines = ["zeta,n,index,epsilon"]
    for z in args.zeta_grid:
        for n, sector in sectors:
            for i, e in enumerate(rescaled_spectrum(n, z, sector)):
                lines.append(f"{z:.10g},{n},{i},{e:.12g}")
    _emit(lines, args.out)
    return 0


def _check_output(report, out):
    _emit([json.dumps(report, indent=2, default=float)], out)
    return 0 if report["pass"] else 1


def check_algebra(args):
    zetas = _resolve_zetas(args)
    tol = args.tol if args.tol is not None else ALGEBRA_TOL
    pairs = {}  # each supercharge pair is built once per command
    checks = [c for n in args.n for z in zetas for c in verify_algebra(n, z, tol, pairs)]
    return {"suite": "algebra", "tol": tol, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def check_cohomology(args):
    """dim H per n, in total and per spin parity (P = +1, P = -1); a pass
    needs the same split at every zeta, (1, 1) at odd n and (0, 0) at even n."""
    zetas = _resolve_zetas(args)
    dims, by_parity = {}, {}
    ok = True
    for n in args.n:
        vals = [cohomology_dimension(n, z) for z in zetas]
        if len(set(vals)) != 1:
            ok = False
        dims[str(n)] = sum(vals[0])
        by_parity[str(n)] = list(vals[0])
        if vals[0] != ((1, 1) if n % 2 else (0, 0)):
            ok = False
    return {"suite": "cohomology", "zetas": list(zetas), "dims": dims,
            "dims_by_parity": by_parity, "pass": ok}


def check_conjectures(args):
    zetas = _resolve_zetas(args)
    tol = args.tol if args.tol is not None else SPECTRAL_TOL
    checks = []
    for n in args.n:
        if n % 2 == 0:
            continue
        for z in zetas:
            r, ok = parity_spectral_inclusion(n, z, tol)
            checks.append(_check_record("parity_spectral_inclusion", n, z, r, ok))
    for nome in args.nomes:
        ctx = ThetaContext(nome=nome, s=args.s, t=args.t)
        zeta = zeta_of_nome(nome)
        for n in args.n:
            count = len(_path_codes(n))
            expected = 2 ** n + 2 * (-1) ** n
            checks.append(_check_record("path_count", n, zeta, abs(count - expected),
                                        count == expected))
            rank, comp = path_rank_complement(n, ctx, complement=n % 2 == 1)
            exp_rank = 2 ** n if n % 2 == 0 else 2 ** n - 2
            checks.append(_check_record("path_rank", n, zeta, abs(rank - exp_rank),
                                        rank == exp_rank))
            if n % 2 == 1:
                # the complement lives in the full space; act with the full H's
                # triplets, whose Frobenius norm is that of their (duplicate-free)
                # values at n >= 3
                Hfull = xyz_hamiltonian_full(n, CouplingLine(zeta))
                r_energy = np.linalg.norm(Hfull @ comp)
                checks.append(_check_record("complement_zero_energy", n, zeta, r_energy,
                                            r_energy < tol * max(1.0, np.linalg.norm(Hfull.vals))))
                r_transfer = 0.0
                for u in (0.35, 0.8, 1.3):
                    lam = h(u, ctx) ** n
                    r_transfer = max(
                        r_transfer,
                        np.linalg.norm(transfer_apply(n, u, ctx, comp) - lam * comp)
                        / max(1.0, abs(lam)),
                    )
                checks.append(_check_record("complement_transfer_eigenvalue", n, zeta,
                                            r_transfer, r_transfer < tol))
    return {"suite": "conjectures", "tol": tol, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def check_appendixB(args):
    if args.nome is None:
        raise ConfigurationError("check appendixB requires --nome")
    ctx = ThetaContext(nome=args.nome, s=args.s, t=args.t)
    report = appendixB_decomposition(ctx)
    report["suite"] = "appendixB"
    return report


def check_fermion_compare(args):
    zetas = args.zeta if args.zeta is not None else (1.2, 1.8, 3.0)
    variants = (
        ("ramond_vs_kpi", "ns_vs_k0") if args.variant == "both" else (args.variant,)
    )
    tol = args.tol if args.tol is not None else SPECTRAL_TOL
    reports = [spectral_comparison(m, z, v, tol=tol)
               for m in args.m for z in zetas for v in variants]
    return {"suite": "fermion-compare", "tol": tol, "reports": reports,
            "pass": all(r["pass"] for r in reports)}


def cmd_pathbasis(args):
    nome = args.nome if args.nome is not None else 0.2
    ctx = ThetaContext(nome=nome, s=args.s, t=args.t)
    lines = []
    for n in args.n:
        # every admissible path (n - 2m = 0 mod 3), by m, then ell, then positions
        paths = [json.dumps({"ell": ell, "positions": list(xs), "n": n})
                 for m in range(n + 1) if (n - 2 * m) % 3 == 0
                 for ell in range(3)
                 for xs in itertools.combinations(range(1, n + 1), m)]
        lines.append(json.dumps({"n": n, "count": len(paths), "rank": path_rank(n, ctx)}))
        lines.extend(paths)
    _emit(lines, args.out)
    return 0


def check_transfer(args):
    nome = args.nome if args.nome is not None else 0.2
    ctx = ThetaContext(nome=nome, s=args.s, t=args.t)
    tol = args.tol if args.tol is not None else 1e-9
    checks = []
    zeta = zeta_of_nome(nome)
    for n in args.n:
        T_eta = transfer_matrix(n, ctx.eta, ctx)
        shift = translation_operator(n).toarray()
        r = np.linalg.norm(T_eta - h(2 * ctx.eta, ctx) ** n * shift)
        scale = max(1.0, np.linalg.norm(T_eta))
        checks.append(_check_record("transfer_at_eta_is_translation", n, zeta, r / scale,
                                    r / scale < 1e-10))
        Tu = transfer_matrix(n, args.u, ctx)
        Tv = transfer_matrix(n, args.u + 0.4, ctx)
        r = np.linalg.norm(Tu @ Tv - Tv @ Tu) / max(1.0, np.linalg.norm(Tu) * np.linalg.norm(Tv))
        checks.append(_check_record("commuting_family", n, zeta, r, r < tol))
        Hd = xyz_hamiltonian_full(n, CouplingLine(zeta)).toarray()
        Ht = hamiltonian_from_transfer(n, ctx)
        r = np.linalg.norm(Hd - Ht) / max(1.0, np.linalg.norm(Hd))
        checks.append(_check_record("hamiltonian_from_transfer", n, zeta, r, r < 1e-5))
    return {"suite": "transfer", "nome": nome, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# parser


# the options several commands share; each command declares those it reads
_SHARED_OPTIONS = {
    "zeta": dict(type=parse_zeta_list, default=None),
    "nome": dict(type=float, default=None),
    "s": dict(type=float, default=0.3),
    "t": dict(type=float, default=-0.7),
    "tol": dict(type=float, default=None),
    "out": dict(default=None),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="susy-xyz",
        description="Numerical checks for lattice supersymmetry of the XYZ chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, options="", n=None, **kwargs):
        """Add a subcommand that reads the shared `options` (space-separated);
        --n, when listed, defaults to `n` and is required without one."""
        p = group.add_parser(name, allow_abbrev=False, **kwargs)
        for option in options.split():
            if option == "n":
                p.add_argument("--n", type=parse_n_range, default=n, required=n is None)
            else:
                p.add_argument(f"--{option}", **_SHARED_OPTIONS[option])
        return p

    def suite(p, check):
        p.set_defaults(func=lambda a: _check_output(check(a), a.out))

    p = command(sub, "spectrum", "n zeta nome out", help="sector spectra as CSV/JSON")
    p.add_argument("--sector", default="susy")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = command(sub, "fig1", help="rescaled n=6/n=7 spectra over a zeta grid")
    p.add_argument("--zeta-grid", type=parse_grid, default=parse_grid("0:3:0.05"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("check", help="run a named check suite")
    chk = p.add_subparsers(dest="suite", required=True)

    c = command(chk, "algebra", "n zeta nome tol out", n=tuple(range(2, 9)))
    suite(c, check_algebra)

    c = command(chk, "cohomology", "n zeta nome out", n=tuple(range(3, 12)))
    suite(c, check_cohomology)

    c = command(chk, "conjectures", "n zeta nome s t tol out", n=tuple(range(3, 8)))
    c.add_argument("--nomes", type=parse_zeta_list, default=(0.1, 0.3))
    suite(c, check_conjectures)

    c = command(chk, "appendixB", "nome s t out")
    suite(c, check_appendixB)

    c = command(chk, "fermion-compare")
    c.add_argument("--m", type=parse_n_range, default=(2, 3))
    c.add_argument("--zeta", type=parse_zeta_list, default=None)
    c.add_argument("--variant", default="both",
                   choices=("both", "ramond_vs_kpi", "ns_vs_k0"))
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--out", default=None)
    suite(c, check_fermion_compare)

    p = command(sub, "pathbasis", "n nome s t out", n=(4,),
                help="enumerate height-path states")
    p.set_defaults(func=cmd_pathbasis)

    p = command(sub, "transfer", "n nome s t tol out", n=(3, 4),
                help="transfer-matrix consistency checks")
    p.add_argument("--u", type=float, default=0.45)
    suite(p, check_transfer)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "n", None) is not None and any(n < 1 for n in args.n):
            parser.error(f"invalid chain size in {args.n}")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
