"""Seeded op lists for the benchmark workloads.

An op is a dict with a ``kind`` ("cli" runs ``susyxyz.cli.main(argv)``,
"bethe" runs the Bethe-root scan through the public ``eightvertex``
functions), a short ``label``, and the parameters its output check needs.
Generation is pure Python and imports nothing from the program, so the same
seed gives the same op list on every commit.

Parameters are drawn only where the paper's claims hold:
- spin-chain couplings zeta in [0.05, 3.0];
- zeta in [1.1, 3.0] for the fermion comparison (zeta^2 = 1 + 8 y^2, y > 0);
- elliptic nomes in [0.05, 0.45]; the transfer ops take one from each
  quarter of the range, so their summed cost varies little with the seed,
  and the conjectures, pathbasis and Bethe ops run at fixed nomes (see below);
- path-basis parameters (s, t) near (0.3, -0.7), far from the degenerate
  lines s = t mod pi.

Sizes (chain length n, particle number m) are fixed per workload: the seed
moves coupling values, not the amount of work, so timings of different seeds
are comparable.
"""

from __future__ import annotations

import random

WORKLOADS = ("sector-large", "theta-paths")

# The ops whose latency sets op_p50_s and op_p90_s on theta-paths run at fixed
# nomes, with seeded (s, t) and zeta: theta needs more series terms at a larger
# nome, and the Bethe scan finds about four times as many solutions at 0.45 as
# at 0.05, so seeded nomes there would make the quantiles a property of the seed.
CONJECTURE_NOMES = (0.1, 0.2, 0.3, 0.4)
# pathbasis n=10 costs about as much as a conjectures op, and more with the
# nome; at this nome it stays above the conjectures ops in cost, so it never
# becomes the median op.
PATHBASIS_NOME = 0.4
BETHE_NOME = 0.2  # as in the paper's Bethe checks
BETHE_CASES = ((5, 1), (4, 2))


def _zeta(rng):
    return round(rng.uniform(0.05, 3.0), 4)


def _fermion_zeta(rng):
    return round(rng.uniform(1.1, 3.0), 4)


def _nome(rng, lo=0.05, hi=0.45):
    return round(rng.uniform(lo, hi), 4)


def _path_params(rng):
    return round(rng.uniform(0.2, 0.45), 4), round(rng.uniform(-0.85, -0.55), 4)


def _fmt(values):
    return ",".join(f"{v:g}" for v in values)


def _cli(label, argv, check, **expect):
    return {"kind": "cli", "label": label, "argv": argv, "check": check, **expect}


def _spectrum(ns, zetas):
    return _cli(
        f"spectrum n={ns[0]}..{ns[-1]}",
        ["spectrum", "--n", f"{ns[0]}..{ns[-1]}", "--zeta", _fmt(zetas), "--sector", "susy"],
        "spectrum", ns=list(ns), zetas=list(zetas),
    )


def _cohomology(ns, zeta):
    return _cli(
        f"cohomology n={ns[0]}..{ns[-1]}",
        ["check", "cohomology", "--n", f"{ns[0]}..{ns[-1]}", "--zeta", _fmt([zeta])],
        "cohomology", ns=list(ns), zetas=[zeta],
    )


def _algebra(ns, zeta):
    return _cli(
        f"algebra n={ns[0]}..{ns[-1]}",
        ["check", "algebra", "--n", f"{ns[0]}..{ns[-1]}", "--zeta", _fmt([zeta])],
        "algebra", ns=list(ns), zetas=[zeta],
    )


def _fermion(ms, zeta):
    return _cli(
        f"fermion-compare m={ms[0]}..{ms[-1]}",
        ["check", "fermion-compare", "--m", f"{ms[0]}..{ms[-1]}", "--zeta", _fmt([zeta])],
        "fermion-compare", ms=list(ms), zetas=[zeta],
    )


def _sector_large(rng):
    """Heavy spin-sector ops at the largest n that fits in about 1 GB, and two
    small ops (fig1 on a seeded grid, spectra n=2..8) for the small-op regime.

    With seven ops and three or more passes, the 90th percentile stays among
    the cohomology n=13 samples and the median among the spectrum n=13 ones.
    """
    a = round(rng.uniform(0.0, 0.9), 3)
    b = round(a + 2.0, 3)
    return [
        _cohomology((13,), _zeta(rng)),
        _cohomology((12,), _zeta(rng)),
        _spectrum((13,), [_zeta(rng)]),
        _algebra((10, 11), _zeta(rng)),
        _fermion((6,), _fermion_zeta(rng)),
        _cli(f"fig1 {a:g}:{b:g}", ["fig1", "--zeta-grid", f"{a:g}:{b:g}:0.1"],
             "fig1", grid=[a, b, 0.1]),
        _spectrum(range(2, 9), sorted(_zeta(rng) for _ in range(3))),
    ]


def _theta_paths(rng):
    """Eight-vertex side: path basis, transfer matrix, Bethe roots."""
    s, t = _path_params(rng)
    # With six ops much faster than the four conjectures ops, the median op is
    # a conjectures op and the 90th percentile a Bethe scan, each of a kind
    # with several samples per pass.
    ops = []
    for nome in CONJECTURE_NOMES:
        ops.append(_cli(
            "conjectures n=9",
            ["check", "conjectures", "--n", "9", "--nomes", f"{nome:g}",
             "--zeta", _fmt([_zeta(rng)]), "--s", f"{s:g}", "--t", f"{t:g}"],
            "conjectures", ns=[9], nomes=[nome],
        ))
    ops.append(_cli(
        "pathbasis n=10",
        ["pathbasis", "--n", "10", "--nome", f"{PATHBASIS_NOME:g}", "--s", f"{s:g}", "--t", f"{t:g}"],
        "pathbasis", ns=[10],
    ))
    for lo in (0.05, 0.15, 0.25, 0.35):
        ops.append(_cli(
            "transfer n=2..8",
            ["transfer", "--n", "2..8", "--nome", f"{_nome(rng, lo, lo + 0.1):g}",
             "--s", f"{s:g}", "--t", f"{t:g}"],
            "transfer", ns=list(range(2, 9)),
        ))
    for _ in range(2):
        ps, pt = _path_params(rng)
        ops.append(_cli(
            "appendixB",
            ["check", "appendixB", "--nome", f"{_nome(rng):g}",
             "--s", f"{ps:g}", "--t", f"{pt:g}"],
            "appendixB",
        ))
    for k in range(3):  # omega = 1, exp(2 pi i/3), exp(-2 pi i/3)
        ops.append({
            "kind": "bethe", "label": f"bethe scan omega#{k}", "check": "bethe",
            "cases": [list(c) for c in BETHE_CASES], "omega": k,
            "nome": BETHE_NOME, "s": s, "t": t,
        })
    return ops


_GENERATORS = {
    "sector-large": _sector_large,
    "theta-paths": _theta_paths,
}


def ops_for(workload, seed):
    """The op list of one pass of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
