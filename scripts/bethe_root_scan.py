#!/usr/bin/env python3
"""Scan for Bethe-equation solutions and verify them against the spectrum.

For each solution found by the Newton search we assemble the coordinate
wavefunction, check that it is a genuine transfer-matrix eigenvector, and —
when the momentum sector allows it — append the root u = pi to step down to
the shorter chain. Exit code 2 with an `error:` line when the nome or the
path-basis context is unusable, or when no height path of n steps has m
down steps (n - 2m not divisible by 3).
"""

import argparse
import math
import sys

import numpy as np

from susyxyz.eightvertex import (
    bethe_residual,
    bethe_vector,
    extend_by_pi,
    find_bethe_roots,
    tq_eigenvalue,
    transfer_apply,
    translation_eigenvalue,
)
from susyxyz.elliptic import ThetaContext, h
from susyxyz.errors import ConfigurationError, DomainError, RangeError

PROBES = 0.47 + math.pi / 8 * np.arange(8)


def probe_point(br, ctx):
    """The probe u among PROBES farthest from the zeros of Q(u) = prod_j
    h(u - u_j) and of h(u), the extra factor of Q after the u = pi extension."""
    return max(
        PROBES, key=lambda u: min(abs(h(u - v, ctx)) for v in br.roots + (math.pi,))
    )


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--nome", type=float, default=0.2)
    args = ap.parse_args(argv)

    try:
        ctx = ThetaContext(nome=args.nome)
        ctx.require_independent_local_vectors()
        scans = [find_bethe_roots(args.n, args.m, omega, ctx)
                 for omega in (1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3))]
    except (DomainError, RangeError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for k, found in enumerate(scans):
        print(f"omega = exp({2 * k}i pi/3)")
        for br in found:
            u_probe = probe_point(br, ctx)
            res = max(abs(r) for r in bethe_residual(br, ctx))
            t = translation_eigenvalue(br, ctx)
            lam = tq_eigenvalue(u_probe, br, ctx)
            v = bethe_vector(br, ctx)
            nv = np.linalg.norm(v)
            line = (f"  roots {np.round(br.roots, 6)}  |BAE| {res:.1e}  t {t:+.4f}"
                    f"  probe u {u_probe:.3f}")
            if nv > 1e-7:
                v = v / nv
                Tv = transfer_apply(args.n, u_probe, ctx, v)
                line += f"  eigvec resid {np.linalg.norm(Tv - lam * v):.1e}"
            try:
                ext = extend_by_pi(br, ctx)
                lam_e = tq_eigenvalue(u_probe, ext, ctx)
                line += (
                    f"  pi-extension -> n={ext.n}, "
                    f"|T' + T/h| {abs(lam_e + lam / h(u_probe, ctx)):.1e}"
                )
            except DomainError:
                line += "  (not in the extendable sector)"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
