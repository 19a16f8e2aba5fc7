"""Command-line front end: spectra, Figure-1 style data, and check suites.

Each `check` command and `transfer` calls one suite of the library and
prints its report. Exit codes: 0 all checks pass, 1 at least one check
failed, 2 usage or configuration error. Each command declares only the
options it reads, and options must be spelled out in full, so an option a
command does not read is a usage error. Sub-checks run one after another in
one thread; BLAS threads the linear algebra inside each of them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .eightvertex import appendixB_decomposition, path_rank, transfer_suite
from .elliptic import ThetaContext, zeta_of_nome
from .errors import ConfigurationError, ContractError, DomainError, RangeError
from .fermion import comparison_suite
from .spinchain import (
    CouplingLine,
    build_sector_basis,
    rescaled_spectrum,
    spectrum,
    xyz_hamiltonian,
)
from .supercharge import algebra_suite, cohomology_suite, conjectures_suite, susy_sector

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
            rows.extend((f"{zeta:.10g}", str(n), tag, str(i), f"{e:.12g}")
                        for i, e in enumerate(evals))
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


def _tol(args):
    """{"tol": --tol} when given; without it a suite applies its own bound."""
    return {} if args.tol is None else {"tol": args.tol}


def _context(args):
    """The ThetaContext of --nome (0.2 when not given), --s and --t."""
    return ThetaContext(nome=args.nome if args.nome is not None else 0.2, s=args.s, t=args.t)


def _appendixB(args):
    if args.nome is None:
        raise ConfigurationError("check appendixB requires --nome")
    return appendixB_decomposition(_context(args))


def _fermion_compare(args):
    zetas = args.zeta if args.zeta is not None else (1.2, 1.8, 3.0)
    variants = ("ramond_vs_kpi", "ns_vs_k0") if args.variant == "both" else (args.variant,)
    return comparison_suite(args.m, zetas, variants, **_tol(args))


def cmd_pathbasis(args):
    ctx = _context(args)
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


# ---------------------------------------------------------------------------
# parser


# every option a command may read, shared (--zeta, --nome, ...) or its own;
# each command declares those it reads, in the order of its help
_OPTIONS = {
    "zeta": dict(type=parse_zeta_list, default=None),
    "nome": dict(type=float, default=None),
    "s": dict(type=float, default=0.3),
    "t": dict(type=float, default=-0.7),
    "tol": dict(type=float, default=None),
    "out": dict(default=None),
    "sector": dict(default="susy"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "zeta-grid": dict(type=parse_grid, default=parse_grid("0:3:0.05")),
    "nomes": dict(type=parse_zeta_list, default=(0.1, 0.3)),
    "m": dict(type=parse_n_range, default=(2, 3)),
    "variant": dict(default="both", choices=("both", "ramond_vs_kpi", "ns_vs_k0")),
    "u": dict(type=float, default=0.45),
}


def _suite(run):
    """The command that prints the JSON report `run(args)` of one suite."""
    return lambda a: _check_output(run(a), a.out)


# name: (the options it reads, the default of --n (required when None),
# the keywords of its parser, what it runs); `check` holds the suites
_COMMANDS = {
    "spectrum": ("n zeta nome out sector format", None,
                 dict(help="sector spectra as CSV/JSON"), cmd_spectrum),
    "fig1": ("zeta-grid out", None,
             dict(help="rescaled n=6/n=7 spectra over a zeta grid"), cmd_fig1),
    "check": None,
    "pathbasis": ("n nome s t out", (4,), dict(help="enumerate height-path states"),
                  cmd_pathbasis),
    "transfer": ("n nome s t tol out u", (3, 4), dict(help="transfer-matrix consistency checks"),
                 _suite(lambda a: transfer_suite(a.n, _context(a), a.u, **_tol(a)))),
}
_SUITES = {
    "algebra": ("n zeta nome tol out", tuple(range(2, 9)), {}, _suite(
        lambda a: algebra_suite(a.n, _resolve_zetas(a), **_tol(a)))),
    "cohomology": ("n zeta nome out", tuple(range(3, 12)), {}, _suite(
        lambda a: cohomology_suite(a.n, _resolve_zetas(a)))),
    "conjectures": ("n zeta nome s t tol out nomes", tuple(range(3, 8)), {}, _suite(
        lambda a: conjectures_suite(a.n, _resolve_zetas(a), a.nomes, a.s, a.t, **_tol(a)))),
    "appendixB": ("nome s t out", None, {}, _suite(_appendixB)),
    "fermion-compare": ("m zeta variant tol out", None, {}, _suite(_fermion_compare)),
}


def _add_command(group, name, options, n, kwargs, func):
    """Add a subcommand that reads `options` (space-separated); --n, when
    listed, defaults to `n` and is required without one."""
    p = group.add_parser(name, allow_abbrev=False, **kwargs)
    for option in options.split():
        if option == "n":
            p.add_argument("--n", type=parse_n_range, default=n, required=n is None)
        else:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    p.set_defaults(func=func)


def build_parser(argv=None):
    """The parser of every command, or, when argv starts with a command (and,
    after `check`, a suite), of that one alone: the other commands and suites
    are entered by name only, which is all that the usage lines and error
    messages read, so those print as they do with the whole parser."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    suite = argv[1] if command == "check" and len(argv) > 1 and argv[1] in _SUITES else None
    if command == "check" and suite is None:
        command = None  # the usage and choices of `check` read every suite
    parser = argparse.ArgumentParser(
        prog="susy-xyz",
        description="Numerical checks for lattice supersymmetry of the XYZ chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        if command and command != name:
            sub.choices[name] = None  # listed in the usage; argv does not reach it
        elif name != "check":
            _add_command(sub, name, *spec)
        else:
            chk = sub.add_parser("check", help="run a named check suite").add_subparsers(
                dest="suite", required=True)
            for suite_name, suite_spec in _SUITES.items():
                if suite and suite != suite_name:
                    chk.choices[suite_name] = None
                else:
                    _add_command(chk, suite_name, *suite_spec)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
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
